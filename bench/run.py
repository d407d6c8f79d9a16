"""gridres benchmark: seeded CLI job mixes checked against planted answers.

    python3 bench/run.py --workload algebra --seed 1 --seconds 55 --trace 0

Job documents are generated from the seed and written to disk before any
timing starts; each one then runs in-process through
``gridres.cli.main([subcommand, "--input", path])``.  Load is a closed
loop with one client (one process, one thread, the next job starts when
the previous one returns), cycling through the job list until
``--seconds`` have elapsed and at least one whole pass is done.

Job times are CPU times (the loop is one thread), rescaled to a fixed
machine speed: before each job the benchmark times a fixed pure-Python
calibration workload, and each job's CPU time is multiplied by
``CAL_NOMINAL_MS`` over the median calibration time around it.  A shared
machine runs slower or faster for seconds to minutes at a time; the
calibration slows down with it, so the rescaled figures hold still.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each job
untraced and with span wrappers, TRACE_REPEATS times each, then once with
counter wrappers from the outside-in tracer (bench/tracer.py), and prints
the per-layer metrics.  The last line of stdout is the result
object; ``--record PATH`` also writes a fuller record (machine facts,
per-job input sizes and times) for bench/compare.py.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

SETUP_IMPORTS = 15
# A fresh interpreter times the import, then calibrates itself: it may run on
# the other CPU, whose speed can differ from this one's.
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.process_time(); import gridres, gridres.cli; "
                "t = time.process_time() - t; sys.path.insert(0, sys.argv[2]); "
                "from run import calibrate; "
                "print(t, *[calibrate() for _ in range(5)])")
CAL_ROUNDS = 6000
# Rescaled times read as CPU times on a machine where one calibration takes
# CAL_NOMINAL_MS (about what the machine of bench/baseline takes when quiet).
CAL_NOMINAL_MS = 2.0
CAL_WINDOW = 5  # a job is rescaled by the median of the 2 * CAL_WINDOW + 1 nearest calibrations
TRACE_REPEATS = 2
# work counts reported by the traced run (see bench/tracer.py for their sources)
COUNT_METRICS = ("expr.terms_out", "field.elem_ops", "field.batch_inverse.calls",
                 "multipoly.evaluate.calls", "multipoly.mul.calls",
                 "nullstellensatz.grid_points", "nullstellensatz.term_evals",
                 "cayley_bacharach.enumerated_points", "cayley_bacharach.relation_points",
                 "polytope.lp_solves", "polytope.hull_points_in",
                 "polytope.hull_vertices_out", "toric.vertex_residue.calls",
                 "linalg.solve_linear.calls", "linalg.determinant.calls",
                 "projective.lines_enumerated", "projective.incidence_tests",
                 "lines.covers_found", "cover.candidate_traces")
SUBCOMMANDS = ("coeff", "witness", "cb-verify", "cb-forced", "hyper-verify", "newton",
               "unfolded", "toric-verify", "lines-search", "lines-check",
               "lines-classify", "cover-bound", "problem1-bound")


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu_model": model}


def _cal_work(rounds):
    """Fixed work of the kinds the library does: modular ints, dict updates,
    small Fractions."""
    table: dict = {}
    acc, q = 1, None
    for k in range(1, rounds + 1):
        acc = acc * 7919 % 10007
        table[acc & 255] = table.get(acc & 255, 0) + k
        if not k & 15:
            q = Fraction(acc, k) + Fraction(k, 3)
    return acc, len(table), q


def calibrate() -> float:
    """CPU ms of one calibration workload: how fast the machine runs now."""
    started = time.process_time()
    _cal_work(CAL_ROUNDS)
    return (time.process_time() - started) * 1000


def rescale(cpu_ms: list, cal_ms: list) -> list:
    """Each CPU time times CAL_NOMINAL_MS over the median of the calibrations
    taken nearest to it (cal_ms[i] was taken just before the i-th time)."""
    out = []
    width = 2 * CAL_WINDOW + 1
    for i, ms in enumerate(cpu_ms):
        lo = max(0, min(i - CAL_WINDOW, len(cal_ms) - width))
        out.append(ms * CAL_NOMINAL_MS / statistics.median(cal_ms[lo:lo + width]))
    return out


def setup_seconds() -> tuple[float, float]:
    """Median CPU time to import gridres and gridres.cli in a fresh
    interpreter, each import rescaled by the calibrations of its own
    interpreter; also the raw median."""
    rescaled, raw = [], []
    for i in range(SETUP_IMPORTS + 1):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
                             capture_output=True, text=True, check=True, timeout=60)
        if i:  # the first import may compile bytecode
            t, *cal = map(float, out.stdout.split())
            raw.append(t)
            rescaled.append(t * CAL_NOMINAL_MS / statistics.median(cal))
    return statistics.median(rescaled), statistics.median(raw)


def strip_elapsed(text: str) -> str:
    """The report without its elapsed_ms field (the only run-dependent part)."""
    cut = text.rfind('"elapsed_ms"')
    return text[:cut] if cut >= 0 else text


def run_job(cli, argv):
    """Run one job; returns (exit code, stdout, wall ms, CPU ms)."""
    buf = io.StringIO()
    started, cpu_started = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except Exception as err:  # an escaped exception is a failed job, not a crash
        code = f"escaped {type(err).__name__}: {err}"
    return (code, buf.getvalue(), (time.perf_counter() - started) * 1000,
            (time.process_time() - cpu_started) * 1000)


def check_first(job, code, text) -> str | None:
    if not isinstance(code, int):
        return code
    try:
        report = json.loads(text)
    except json.JSONDecodeError as err:
        return f"report is not JSON: {err}"
    return jobs.check(job, code, report)


class Pass:
    """One job list, its argv lines, and the verdict of each job's first report."""

    def __init__(self, cli, job_list, argvs):
        self.cli, self.jobs, self.argvs = cli, job_list, argvs
        self.first: list = [None] * len(job_list)   # (code, stripped text)
        self.verdict: list = [None] * len(job_list)

    def run_one(self, i):
        """Run job i; returns (wall ms, CPU ms, passed)."""
        code, text, ms, cpu_ms = run_job(self.cli, self.argvs[i])
        key = (code, strip_elapsed(text))
        if self.first[i] is None:
            self.first[i] = key
            self.verdict[i] = check_first(self.jobs[i], code, text)
        return ms, cpu_ms, key == self.first[i] and self.verdict[i] is None


def quantile(values, q):
    """q-th of the 9 deciles (q = 5 median, q = 9 p90) of the values."""
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def end_to_end(p: Pass, seconds: float) -> tuple[dict, dict]:
    """Cycle through the job list for `seconds` (at least one whole pass).
    The rate counts whole passes only, so every job weighs the same.  Each
    job's time is the mean of its rescaled repeats, which spread over the
    whole run."""
    n = len(p.jobs)
    order, cpu, cal, passed_flags, walls = [], [], [], [], []
    started = time.perf_counter()
    while True:
        i = len(order) % n
        cal.append(calibrate())
        ms, cpu_ms, passed = p.run_one(i)
        order.append(i)
        cpu.append(cpu_ms)
        walls.append(ms)
        passed_flags.append(passed)
        now = time.perf_counter()
        if now - started >= seconds and len(order) >= n:
            break
    norm = rescale(cpu, cal)
    whole = len(order) // n * n
    per_job: list[list] = [[] for _ in range(n)]
    for i, ms in zip(order, norm):
        per_job[i].append(ms)
    job_ms = [statistics.fmean(v) for v in per_job]
    setup_s, setup_raw_s = setup_seconds()
    metrics = {
        "jobs_per_s": (sum(passed_flags[:whole]) / (sum(norm[:whole]) / 1000), "1/s"),
        "job_p50_ms": (statistics.median(job_ms), "ms"),
        "job_p90_ms": (quantile(job_ms, 9), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    failed = passed_flags.count(False)
    cal_q = statistics.quantiles(cal, n=4)
    extra = {"jobs": len(order), "failed": failed, "passes": len(order) / n,
             "wall_s": now - started, "failed_ratio": failed / len(order),
             "job_wall_s": sum(walls) / 1000, "job_cpu_s": sum(cpu) / 1000,
             "cal_ms_quartiles": cal_q, "setup_raw_s": setup_raw_s,
             "pass_rates": [n / (sum(norm[k:k + n]) / 1000) for k in range(0, whole, n)],
             "job_ms": [round(v, 4) for v in job_ms]}
    return metrics, extra


def traced_run(tracer, package, p: Pass, i):
    tracer.install(package)
    try:
        return p.run_one(i)
    finally:
        tracer.uninstall()


def per_layer(p: Pass, package, trace_path) -> tuple[dict, dict]:
    """Each job runs untraced and then under span wrappers, TRACE_REPEATS
    times, with a calibration before each pair; then once under counter
    wrappers.  Spans give self times and per-subcommand p50s, rescaled like
    the end-to-end times and given per pass; the counters, which are exact,
    give calls, errors and work counts, so their cost lands in no span.
    Untraced and traced runs of a job are back to back, which keeps machine
    drift out of trace.overhead_ratio."""
    spans, counts = Tracer("spans"), Tracer("counts")
    plain, traced, counted, cal = [], [], [], []
    try:
        for i in range(len(p.jobs)):
            for _ in range(TRACE_REPEATS):
                cal.append(calibrate())
                plain.append(p.run_one(i))
                spans.job = len(traced)  # job i's runs are i * TRACE_REPEATS + r
                traced.append(traced_run(spans, package, p, i))
            counts.job = i
            counted.append(traced_run(counts, package, p, i))
    finally:
        spans.write(trace_path)
    scale = rescale([1.0] * len(cal), cal)
    untraced_ms = sum(f * s[0] for f, s in zip(scale, plain)) / TRACE_REPEATS
    traced_ms = sum(f * s[0] for f, s in zip(scale, traced)) / TRACE_REPEATS
    self_ms = {k: v / TRACE_REPEATS for k, v in spans.self_ms(scale).items()}
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (counts.calls[layer], "count")
        metrics[f"{layer}.self_ms"] = (self_ms.get(layer, 0.0), "ms")
        metrics[f"{layer}.errors"] = (counts.errors[layer], "count")
    roots: dict = {}
    for name, layer, start, end, parent, job in spans.spans:
        if parent < 0 and name == "cli.main":
            kind = p.jobs[job // TRACE_REPEATS]["kind"]
            roots.setdefault(kind, []).append((end - start) * 1000 * scale[job])
    for sub in SUBCOMMANDS:
        metrics[f"cli.{sub}.p50_ms"] = (statistics.median(roots[sub]) if sub in roots
                                        else 0.0, "ms")
    c = counts.counts
    for key in COUNT_METRICS:
        metrics[key] = (c[key], "count")
    hull_in = c["polytope.hull_points_in"]
    metrics["polytope.vertex_yield"] = (
        c["polytope.hull_vertices_out"] / hull_in if hull_in else 0.0, "ratio")
    metrics["trace.spans"] = (len(spans.spans) // TRACE_REPEATS, "count")
    metrics["trace.untraced_wall_ms"] = (untraced_ms, "ms")
    metrics["trace.traced_wall_ms"] = (traced_ms, "ms")
    metrics["trace.overhead_ratio"] = (traced_ms / untraced_ms, "ratio")
    metrics["trace.self_ms_sum"] = (sum(self_ms.values()), "ms")
    # a traced report must equal the untraced one (elapsed_ms aside)
    runs = plain + traced + counted
    extra = {"jobs": len(runs), "failed": sum(not r[2] for r in runs),
             "passes": 2 * TRACE_REPEATS + 1,
             "report_mismatches": sorted({k // TRACE_REPEATS for k, (a, b) in
                                          enumerate(zip(plain, traced)) if a[2] and not b[2]}
                                         | {i for i, d in enumerate(counted) if not d[2]}),
             "self_ms_share": sum(self_ms.values()) / traced_ms,
             "counted_wall_ms": sum(s[0] for s in counted),
             "counts": dict(sorted(c.items())), "trace_file": str(trace_path)}
    return metrics, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="also write the full run record to this file")
    args = ap.parse_args(argv)

    if not (SRC / "gridres" / "cli.py").is_file():
        print(f"error: no gridres sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gridres
    from gridres import cli

    job_list = jobs.make_jobs(args.workload, args.seed)
    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        argvs = []
        for j in job_list:
            path = work / f"{j['id']}.json"
            path.write_bytes(jobs.doc_bytes(j))
            argvs.append([j["kind"], "--input", str(path)])
        # one warm-up job per subcommand, not counted
        for kind in dict.fromkeys(j["kind"] for j in job_list):
            i = next(k for k, j in enumerate(job_list) if j["kind"] == kind)
            run_job(cli, argvs[i])

        p = Pass(cli, job_list, argvs)
        if args.trace:
            trace_path = ROOT / ".bench_work" / f"trace-{args.workload}-s{args.seed}.jsonl"
            metrics, extra = per_layer(p, gridres, trace_path)
        else:
            metrics, extra = end_to_end(p, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for i, reason in enumerate(p.verdict):
        if reason:
            print(f"FAILED {job_list[i]['id']}: {reason}", file=sys.stderr)
    result = {"correct": extra["failed"] == 0, "attempted": extra["jobs"],
              "failed": extra["failed"],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    if args.record:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "machine": machine(), "result": result,
                  "extra": extra,
                  "jobs": [{"id": j["id"], "kind": j["kind"], **j["meta"]}
                           for j in job_list]}
        Path(args.record).parent.mkdir(parents=True, exist_ok=True)
        Path(args.record).write_text(json.dumps(record) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

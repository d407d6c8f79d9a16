"""The benchmark's own tests (stdlib unittest, about half a minute):

    python3 bench/selftest.py

They check that job documents depend only on the seed, that the planted
answer checks catch a tampered report and that such a report counts as a
failed job, that rescaling cancels a change of machine speed, that tracing
changes no report and wraps every public name in every module that binds
it, that the comparison rules classify rows as documented, and that the
benchmark refuses to run without the sources.
"""

from __future__ import annotations

import copy
import hashlib
import inspect
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

import gridres  # noqa: E402
from gridres import cli  # noqa: E402

DIGEST = ("import hashlib, sys; sys.path.insert(0, sys.argv[1]); import jobs; "
          "h = hashlib.sha256(); "
          "[h.update(jobs.doc_bytes(j)) for w in sorted(jobs.WORKLOADS) "
          "for j in jobs.make_jobs(w, 11)]; print(h.hexdigest())")

# the result field each tamper edits, per subcommand
TAMPER = {"coeff": "coefficient_via_grid", "witness": "witness_value",
          "cb-verify": "residual", "cb-forced": "forced_value",
          "hyper-verify": "solutions", "newton": "vertices", "unfolded": "unfolded",
          "toric-verify": "residue_sum", "lines-search": "covers",
          "lines-check": "uncovered", "lines-classify": "u_set",
          "cover-bound": "min_cover", "problem1-bound": "min_green_lines"}


def tampered(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "1"
    if isinstance(value, list):
        return value[:-1] if value else [["0", "0", "1"]]
    return "0"


def sample_jobs():
    """The first job of each subcommand, from every workload."""
    out = {}
    for w in sorted(jobs.WORKLOADS):
        for j in jobs.make_jobs(w, 3):
            out.setdefault(j["kind"], j)
    return list(out.values())


class FakeCli:
    """Stands in for gridres.cli and prints a canned report."""

    def __init__(self, report, code):
        self.report, self.code = report, code

    def main(self, argv):
        print(json.dumps(self.report, indent=2))
        return self.code


class BenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = Path(tempfile.mkdtemp(prefix="gridres-bench-"))
        cls.jobs = sample_jobs()
        cls.argvs = []
        for j in cls.jobs:
            path = cls.tmp / f"{j['id']}.json"
            path.write_bytes(jobs.doc_bytes(j))
            cls.argvs.append([j["kind"], "--input", str(path)])

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def run_all(self):
        return [run.run_job(cli, argv) for argv in self.argvs]

    def test_same_seed_gives_identical_documents(self):
        digests = set()
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            out = subprocess.run([sys.executable, "-c", DIGEST, str(HERE)], env=env,
                                 capture_output=True, text=True, check=True, timeout=120)
            digests.add(out.stdout.strip())
        h = hashlib.sha256()
        for w in sorted(jobs.WORKLOADS):
            for j in jobs.make_jobs(w, 11):
                h.update(jobs.doc_bytes(j))
        digests.add(h.hexdigest())
        self.assertEqual(len(digests), 1)
        self.assertNotEqual(jobs.doc_bytes(jobs.make_jobs("lines", 1)[0]),
                            jobs.doc_bytes(jobs.make_jobs("lines", 2)[0]))

    def test_every_workload_has_enough_jobs(self):
        for w in jobs.WORKLOADS:
            self.assertGreaterEqual(len(jobs.make_jobs(w, 1)), 100, w)

    def test_planted_answers_hold_and_tampering_is_caught(self):
        self.assertEqual(set(TAMPER), {j["kind"] for j in self.jobs})
        for j, (code, text, *_) in zip(self.jobs, self.run_all()):
            report = json.loads(text)
            self.assertIsNone(jobs.check(j, code, report), j["id"])
            bad = copy.deepcopy(report)
            field = TAMPER[j["kind"]]
            bad["result"][field] = tampered(bad["result"][field])
            self.assertIsNotNone(jobs.check(j, code, bad), j["id"])
            self.assertIsNotNone(jobs.check(j, 2 if code != 2 else 0, report), j["id"])

    def test_tampered_report_counts_as_failed_job(self):
        j, argv = self.jobs[0], self.argvs[0]
        code, text, *_ = run.run_job(cli, argv)
        report = json.loads(text)
        good = run.Pass(FakeCli(report, code), [j], [argv])
        self.assertTrue(good.run_one(0)[2])
        report["result"][TAMPER[j["kind"]]] = "12345"
        bad = run.Pass(FakeCli(report, code), [j], [argv])
        self.assertFalse(bad.run_one(0)[2])

    def test_rescaling_cancels_machine_speed(self):
        # the machine halves its speed halfway: job and calibration both double
        cpu = [10.0] * 20 + [20.0] * 20
        cal = [1.0] * 20 + [2.0] * 20
        out = run.rescale(cpu, cal)
        self.assertEqual(len(out), 40)
        for ms in out[:15] + out[25:]:
            self.assertAlmostEqual(ms, 10.0 * run.CAL_NOMINAL_MS)
        self.assertAlmostEqual(run.rescale([5.0] * 3, [run.CAL_NOMINAL_MS] * 3)[1], 5.0)

    def traced(self, mode):
        t = tracer.Tracer(mode)
        t.install(gridres)
        try:
            return t, self.run_all()
        finally:
            t.uninstall()

    def test_tracing_changes_no_report(self):
        plain = [(code, run.strip_elapsed(text)) for code, text, *_ in self.run_all()]
        for mode in ("spans", "counts"):
            _, runs = self.traced(mode)
            self.assertEqual(plain, [(code, run.strip_elapsed(text))
                                     for code, text, *_ in runs], mode)
        t, runs = self.traced("spans")
        # self times sum to the job wall time measured outside cli.main
        self_ms, wall_ms = sum(t.self_ms().values()), sum(r[2] for r in runs)
        self.assertLessEqual(self_ms, wall_ms)
        self.assertGreater(self_ms, 0.95 * wall_ms)
        self.assertTrue(all(s[4] >= 0 or s[0] == "cli.main" for s in t.spans))
        self.assertEqual(sum(s[0] == "cli.main" for s in t.spans), len(runs))
        self.assertFalse(t.calls or t.counts)

    def test_counts_repeat_exactly(self):
        counts = []
        for _ in range(2):
            t, _ = self.traced("counts")
            s, _ = self.traced("spans")
            counts.append((dict(t.counts), dict(t.calls), [x[0] for x in s.spans]))
        self.assertEqual(counts[0], counts[1])
        self.assertFalse(t.spans)

    def test_every_binding_is_replaced_and_restored(self):
        modules = [m for n, m in sys.modules.items()
                   if n == "gridres" or n.startswith("gridres.")]
        before = [(m, dict(vars(m))) for m in modules]
        wrapped = {}
        for mode in ("counts", "spans"):
            t = tracer.Tracer(mode)
            t.install(gridres)
            try:
                self.check_bindings(modules, t)
                wrapped[mode] = set(t.wrapped)
            finally:
                t.uninstall()
            for m, snapshot in before:
                self.assertEqual(dict(vars(m)), snapshot, m.__name__)
        for must in ("cli.main", "cover.min_line_cover", "nullstellensatz.grid_weights",
                     "nullstellensatz.GridSystem.__init__", "polytope.solve_nonnegative",
                     "projective.all_lines", "field.FieldElement.__mul__",
                     "cayley_bacharach.HypersurfaceSystem.solutions"):
            self.assertIn(must, wrapped["counts"])
        # spans cover every counted name except the hot ones
        hot = {n for n in wrapped["counts"] if n in tracer.COUNTED or n in tracer.ITEMS
               or n.startswith("field.FieldElement.")}
        self.assertEqual(wrapped["spans"], wrapped["counts"] - hot)
        self.assertIn("projective.ProjLine.contains", hot)

    def check_bindings(self, modules, t):
        originals = {id(fn) for fn in t.wrapped.values()}
        for m in modules:
            for attr, obj in vars(m).items():
                self.assertNotIn(id(obj), originals, f"{m.__name__}.{attr}")
        # names bound in several modules are wrapped in each of them
        for owner in ("cover", "lines", "cayley_bacharach"):
            fn = vars(sys.modules[f"gridres.{owner}"])["min_line_cover"]
            self.assertIsNot(fn, t.wrapped["cover.min_line_cover"])
        for attr in ("grid_weights", "GridSystem"):
            self.assertIs(vars(sys.modules["gridres.cayley_bacharach"])[attr],
                          vars(sys.modules["gridres.nullstellensatz"])[attr])
        for name in t.wrapped:
            parts = name.split(".")
            if len(parts) == 3:
                cls = vars(sys.modules[f"gridres.{parts[0]}"])[parts[1]]
                raw = vars(cls)[parts[2]]
                raw = getattr(raw, "__func__", raw)
                self.assertIsNot(raw, t.wrapped[name], name)
        # a span around a generator function would time only its creation
        for name, fn in t.wrapped.items():
            if inspect.isgeneratorfunction(fn):
                self.assertIn(name, tracer.ITEMS)

    def test_compare_rules(self):
        bench = {"workloads": [{"name": "w"}],
                 "end_to_end": [{"name": "t", "unit": "ms", "better": "lower",
                                 "bound": 0.1}],
                 "per_layer": []}

        def recs(values):
            return [{"workload": "w", "seed": s, "trace": 0,
                     "result": {"metrics": {"t": {"value": v, "unit": "ms"}}}}
                    for s, v in enumerate(values)]

        base = recs([100, 101, 99, 100, 102, 98, 100, 101, 99, 100])
        status = lambda change: compare.compare(base, recs(change), bench)[0]["status"]
        self.assertEqual(status([80, 81, 79, 80, 82, 78, 80, 81, 79, 80]), "improved")
        self.assertEqual(status([100, 100, 99, 101, 101, 99, 100, 100, 99, 101]),
                         "unchanged")
        self.assertEqual(status([120, 121, 119, 120, 122, 118, 120, 121, 119, 120]),
                         "worse")
        self.assertEqual(status([60, 140, 70, 130, 100, 65, 135, 90, 110, 100]),
                         "unresolved")
        self.assertEqual(compare.compare(base, [], bench)[0]["status"], "unresolved")
        self.assertEqual(compare.compare(base[:3], recs([50, 50, 50]), bench)[0]["status"],
                         "unresolved")
        counts = dict(bench, end_to_end=[{"name": "t", "unit": "count", "better": "lower"}])
        self.assertEqual(compare.compare(base[:1], recs([99]), counts)[0]["status"],
                         "improved")
        self.assertEqual(compare.compare(base[:1], recs([100]), counts)[0]["status"],
                         "unchanged")

    def test_refuses_to_run_without_sources(self):
        bare = self.tmp / "bare"
        shutil.copytree(HERE, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__", "baseline"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        out = subprocess.run([sys.executable, "bench/run.py", "--workload", "lines",
                              "--seed", "1", "--seconds", "1", "--trace", "0"],
                             cwd=bare, capture_output=True, text=True, timeout=120)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"metrics"', out.stdout)


if __name__ == "__main__":
    unittest.main()

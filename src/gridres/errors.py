"""Shared exception types."""


class BudgetExceededError(RuntimeError):
    """A backtracking search, or a hull build, ran past its node budget.

    `nodes` is the number of nodes explored before the work stopped (the
    budget) and `best` the smallest cover size found by then, or None.
    """

    def __init__(self, nodes: int, best: int | None = None):
        super().__init__(f"search budget exceeded ({nodes} nodes)")
        self.nodes = nodes
        self.best = best


class CounterexampleError(RuntimeError):
    """An identity the engine is built to certify failed on concrete input.

    Raised only when exact arithmetic contradicts a statement the package
    verifies; it signals either corrupted input or a genuine counterexample
    and is never swallowed.
    """

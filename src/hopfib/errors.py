"""Exception types shared across the package."""


class HopfibError(Exception):
    """Base class for all package errors."""


class NoSuchRoot(HopfibError):
    pass


class DimensionMismatch(HopfibError):
    pass


class NotAssociative(HopfibError):
    def __init__(self, i, j, k):
        self.witness = (i, j, k)
        super().__init__(f"associativity fails on basis triple ({i}, {j}, {k})")


class UnitAxiomFails(HopfibError):
    def __init__(self, i, side):
        self.witness = i
        self.side = side
        super().__init__(f"unit axiom fails on basis element {i} ({side} side)")


class ImproperIdeal(HopfibError):
    pass


class NotASubalgebra(HopfibError):
    pass


class NotACoideal(HopfibError):
    pass


class NotCentral(HopfibError):
    pass


class BudgetExceeded(HopfibError):
    """A named budget ran out: the term pairs of one sparse contraction
    (linalg.MAX_JOIN_TERMS), or the random central elements that split the
    centre of H/J(H) into fields once the sweep over its basis has not
    (repn.EXTRA_DRAWS; each splits a part that is not a field with
    probability at least 2/3)."""


class NotSplit(HopfibError):
    """F_p is not a splitting field: a simple module S of the named algebra
    has End(S) = F_{p^e} with e = (dim S)**2 / codim ann(S) > 1."""

    def __init__(self, algebra, index, dim, degree):
        self.witness = (algebra, index, dim, degree)
        super().__init__(
            f"F_p does not split {algebra}: simple record {index} has dim S = {dim} and "
            f"e = (dim S)^2 / codim P = {degree} > 1")


class BoundExceeded(HopfibError):
    pass


class InfiniteBasis(HopfibError):
    pass


class StructureCheckFailed(HopfibError):
    def __init__(self, report):
        self.report = report
        failed = ", ".join(c.name for c in report.failed())
        super().__init__(f"structure axioms failed: {failed}")


class BadParameters(HopfibError):
    pass


class NotAPermutation(HopfibError):
    pass


class NotASubgroup(HopfibError):
    pass


class NotAHopfSubalgebra(HopfibError):
    pass

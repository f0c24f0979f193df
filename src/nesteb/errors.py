"""Exception types shared across the package."""

from __future__ import annotations


class NestError(ValueError):
    """Base class for all package errors."""


class LengthMismatch(NestError):
    def __init__(self, lengths: dict[str, int]):
        self.lengths = dict(lengths)
        super().__init__(f"column lengths differ: {self.lengths}")


class NonFiniteValue(NestError):
    def __init__(self, column: str, index: int):
        self.column = column
        self.index = index
        super().__init__(f"non-finite value in column {column!r} at index {index}")


class OutOfDomain(NestError):
    """A finite value outside the input domain stated in ``nesteb.data``."""

    def __init__(self, column: str, index: int, value: float, domain: str):
        self.column = column
        self.index = index
        super().__init__(f"value {value!r} in column {column!r} at index {index} is outside the domain {domain}")


class NonPositiveSigma(NestError):
    def __init__(self, index: int):
        self.index = index
        super().__init__(f"sigma must be strictly positive; violation at index {index}")


class BadFoldCount(NestError):
    def __init__(self, k: int, n: int):
        self.k = k
        self.n = n
        if n < 2:
            super().__init__(f"cross-fitting needs n >= 2 points, got n={n} (fold count K={k})")
        else:
            super().__init__(f"fold count K={k} must satisfy 2 <= K <= n={n}")


class DegenerateWeights(NestError):
    """The sigma-weight normalizer underflowed to zero for one or more queries.

    Signals that h_sigma is far too small for the query sigma relative to the
    training sigmas; we refuse to extrapolate.
    """

    def __init__(self, indices=(0,)):
        self.indices = tuple(int(i) for i in indices)
        super().__init__(
            f"kernel weight normalizer underflowed to 0 for query indices {self.indices}"
        )


class BadGroupCount(NestError):
    def __init__(self, k: int, n: int, detail: str = ""):
        self.k = k
        self.n = n
        msg = f"group count k={k} invalid for n={n}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class AllCellsDegenerate(NestError):
    def __init__(self):
        super().__init__("every grid cell was degenerate; no bandwidth can be selected")


class EmptyMonteCarlo(NestError):
    def __init__(self):
        super().__init__("Monte Carlo sample size must be >= 1")


class NoFeasibleRoot(NestError):
    def __init__(self, ratio: float, lo: float):
        self.ratio = ratio
        self.lo = lo
        super().__init__(
            f"variance ratio {ratio} infeasible with sigma lower bound {lo}: "
            "the implied E[sigma^2] does not exceed lo^2"
        )


class ZeroTailMass(NestError):
    def __init__(self, t: float):
        self.t = t
        super().__init__(f"survival probability at threshold t={t} is zero")


class DomainError(NestError):
    """A family point falls outside the family's support."""


class ZeroMass(NestError):
    def __init__(self, index: int):
        self.index = index
        super().__init__(f"pmf has zero mass at support point {index}")


class NonsensicalCounts(NestError):
    def __init__(self, row_id: str, detail: str):
        self.row_id = row_id
        super().__init__(f"row {row_id!r}: {detail}")

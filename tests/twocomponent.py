"""Unimodality diagnostic for the two-center bias experiment (criterion 6,
full profile): a two-component Gaussian EM fit of the mu_hat - mu values."""

import math
from dataclasses import dataclass

import numpy as np

from nesteb.priors import mixture_weight


@dataclass(frozen=True)
class TwoComponentFit:
    """Deterministic two-component Gaussian EM fit with Ashman's separation
    statistic D; D > 2 with non-trivial weights indicates clear bimodality."""

    w1: float
    m1: float
    s1: float
    w2: float
    m2: float
    s2: float
    ashman_d: float

    @property
    def bimodal(self) -> bool:
        return self.ashman_d > 2.0 and min(self.w1, self.w2) > 0.1


_EM_ITERS = 200


def fit_two_component(values) -> TwoComponentFit:
    v = np.asarray(values, dtype=float).reshape(-1)
    if v.size < 4:
        raise ValueError("need at least 4 values")
    m1, m2 = np.quantile(v, [0.1, 0.9])
    s1 = s2 = max(float(np.std(v)) / 2.0, 1e-8)
    w1 = 0.5
    for _ in range(_EM_ITERS):
        r = mixture_weight(v, w1, m1, s1, 1.0 - w1, m2, s2)
        t1 = max(float(r.sum()), 1e-12)
        t2 = max(float((1.0 - r).sum()), 1e-12)
        m1 = float((r * v).sum() / t1)
        m2 = float(((1.0 - r) * v).sum() / t2)
        s1 = max(math.sqrt(float((r * (v - m1) ** 2).sum() / t1)), 1e-8)
        s2 = max(math.sqrt(float(((1.0 - r) * (v - m2) ** 2).sum() / t2)), 1e-8)
        w1 = min(max(t1 / v.size, 1e-9), 1.0 - 1e-9)
    d = math.sqrt(2.0) * abs(m1 - m2) / math.sqrt(s1 * s1 + s2 * s2)
    return TwoComponentFit(w1, m1, s1, 1.0 - w1, m2, s2, d)

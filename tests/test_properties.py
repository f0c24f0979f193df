"""Property tests of estimate() at fixed bandwidths: equivariances of the
Tweedie rules, and the stated refusal rule on hostile inputs; and of the
tuned pipeline: power-of-two scale invariance of the SURE tuners and of the
estimates at the bandwidths they pick."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nesteb.sure
from nesteb.data import Bandwidths, kfold_split, validate_sample
from nesteb.errors import NestError
from nesteb.estimators import TF, EstimatorSpec, KGroups, Nest, Scaled, estimate
from nesteb.kernel import FLOOR, density_grid
from nesteb.sure import default_grid, pooled_grid_for, tune, tune_kgroups, tune_pooled

# derandomized and without an example database: the same examples every run
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# moderate samples: every in-sample density sits far above the 1e-12 floor,
# which would otherwise break scale equivariance (f scales like 1/c)
sizes = st.integers(2, 40)
moderate_x = st.floats(-5.0, 5.0)
moderate_sigma = st.floats(0.5, 2.0)
bandwidth = st.floats(0.2, 1.0)


@st.composite
def moderate_samples(draw):
    n = draw(sizes)
    x = draw(st.lists(moderate_x, min_size=n, max_size=n))
    sigma = draw(st.lists(moderate_sigma, min_size=n, max_size=n))
    return np.array(x), np.array(sigma)


def rule(name, h_x, h_sigma, c=1.0):
    """The named rule at fixed bandwidths, with every bandwidth in x units
    scaled by c: h_sigma for NEST (h_x multiplies each sigma), h for TF;
    the scaled rule works in z = x/sigma, which c leaves unchanged."""
    return {
        "nest": Nest(Bandwidths(h_x, c * h_sigma)),
        "tf": TF(c * h_x),
        "scaled": Scaled(h_x),
    }[name]


def fit(method, x, sigma):
    return estimate(EstimatorSpec(method), validate_sample(x, sigma))


@pytest.mark.parametrize("name", ["nest", "tf", "scaled"])
@PROPERTY
@given(data=moderate_samples(), h_x=bandwidth, h_sigma=bandwidth, c=st.floats(1e-2, 1e2))
def test_scale_equivariance(name, data, h_x, h_sigma, c):
    x, sigma = data
    base = fit(rule(name, h_x, h_sigma), x, sigma)
    scaled = fit(rule(name, h_x, h_sigma, c), c * x, c * sigma)
    np.testing.assert_allclose(scaled, c * base, rtol=1e-9, atol=1e-9 * c)


@PROPERTY
@given(data=moderate_samples(), h_x=bandwidth, h_sigma=bandwidth, shift=st.floats(-100.0, 100.0))
def test_nest_translation_equivariance(data, h_x, h_sigma, shift):
    x, sigma = data
    method = Nest(Bandwidths(h_x, h_sigma))
    moved = fit(method, x + shift, sigma)
    # x + shift rounds at the ulp of |shift|, and the score magnifies it by
    # up to 1/(h_x sigma)^2
    np.testing.assert_allclose(moved, fit(method, x, sigma) + shift, rtol=0, atol=1e-11 * (1 + abs(shift)))


@PROPERTY
@given(data=moderate_samples(), h_x=bandwidth, h_sigma=bandwidth, seed=st.integers(0, 2**32 - 1))
def test_nest_permutation_equivariance(data, h_x, h_sigma, seed):
    x, sigma = data
    perm = np.random.default_rng(seed).permutation(x.size)
    method = Nest(Bandwidths(h_x, h_sigma))
    np.testing.assert_allclose(fit(method, x[perm], sigma[perm]), fit(method, x, sigma)[perm],
                               rtol=1e-12, atol=1e-12)


@st.composite
def hostile_samples(draw):
    """Up to 40 points drawn from a pool of at most 5 (x, sigma) pairs, so
    duplicates are common; sigma spans 1e-3..1e3 and |x| reaches 1e300."""
    pool = draw(st.lists(
        st.tuples(st.one_of(st.floats(-10.0, 10.0), st.floats(-1e300, 1e300)), st.floats(1e-3, 1e3)),
        min_size=1, max_size=5,
    ))
    picks = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=40))
    x, sigma = zip(*picks)
    return np.array(x), np.array(sigma)


hostile_methods = st.one_of(
    st.builds(lambda hx, hs, jk: Nest(Bandwidths(hx, hs), jackknife=jk),
              st.floats(0.1, 1.0), st.floats(1e-2, 10.0), st.booleans()),
    st.builds(TF, st.floats(1e-3, 1e3)),
    st.builds(Scaled, st.floats(1e-2, 10.0)),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=hostile_samples(), method=hostile_methods)
# E dx / sigma^3 is 0 * inf against the outlier: f1 is NaN, not only f2
@example(data=(np.array([1.0, 1e300, 2.0]), np.array([1.0, 1e-3, 1.0])), method=Nest(Bandwidths(0.5, 0.5)))
def test_hostile_inputs_give_finite_estimates_or_refuse(data, method):
    # a NumPy RuntimeWarning fails this test too (pyproject filterwarnings)
    x, sigma = data
    try:
        mu = fit(method, x, sigma)
    except NestError:
        return
    assert np.isfinite(mu).all()


# Under (2^k x, 2^k sigma) every kernel step scales exactly, barring
# subnormals: np.std does, so both grids' data-relative axes do, and
# u = dx / (h_x sigma_j) is unchanged. So f, f1 and f2 scale by 2^-k, 4^-k
# and 8^-k, every SURE value by 4^k, and the Tweedie estimates by 2^k. The
# one exception is the absolute density floor FLOOR: a point can sit under
# it at one scale and not at the other. Surfaces are therefore compared on
# the cells with no floored point at either scale, and the tuners' picks
# wherever their degenerate masks agree.
TUNED = settings(max_examples=40, deadline=None, derandomize=True, database=None)
powers = st.integers(-8, 8)
FOLDS = 5


@st.composite
def tuning_samples(draw):
    """20 to 60 points: x = 2 N(0, 1), then sigma ~ U[0.3, 2] or sigma = 3
    with probability 0.3, else 1 (criterion 6's two-value design)."""
    n = draw(st.integers(20, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = 2.0 * rng.normal(size=n)
    sigma = rng.uniform(0.3, 2.0, n) if draw(st.booleans()) else np.where(rng.random(n) < 0.3, 3.0, 1.0)
    return x, sigma


def floored_cells(xd, sd, hx, hs):
    """Cells of the SURE grid with a fold-complement density under FLOOR."""
    fold_of = kfold_split(xd.size, FOLDS, 0)
    return (density_grid(xd, sd, xd, sd, hx, hs, fold_of, fold_of)[0] < FLOOR).any(axis=-1)


def assert_scaled(got, want, c):
    """got is c * want, bitwise."""
    assert np.asarray(got).tobytes() == (c * np.asarray(want)).tobytes()


@TUNED
@given(data=tuning_samples(), k=powers, selection=st.sampled_from(["penalized", "argmin"]))
def test_tune_is_scale_invariant(data, k, selection):
    x, sigma = data
    c = 2.0**k
    reports, floored = [], []
    for s in (validate_sample(x, sigma), validate_sample(c * x, c * sigma)):
        grid = default_grid(s, k=FOLDS)
        reports.append(tune(s, grid, selection))
        floored.append(floored_cells(s.x, s.sigma, grid.h_x_values, grid.h_sigma_values))
    a, b = reports
    assert (b.h_x_values, b.h_sigma_values) == (a.h_x_values, tuple(c * h for h in a.h_sigma_values))
    clean = ~(floored[0] | floored[1])
    assert_scaled(b.surface[clean], a.surface[clean], 4.0**k)
    if np.array_equal(a.degenerate, b.degenerate):
        assert b.argmin == Bandwidths(a.argmin.h_x, c * a.argmin.h_sigma)
        for jackknife in (False, True):
            assert_scaled(fit(Nest(b.argmin, jackknife), c * x, c * sigma),
                          fit(Nest(a.argmin, jackknife), x, sigma), c)


@pytest.mark.parametrize("name", ["tf", "scaled"])
@TUNED
@given(data=tuning_samples(), k=powers)
def test_tune_pooled_is_scale_invariant(name, data, k):
    # TF tunes on x with bracket power 4; Scaled on z = x / sigma, which the
    # scaling leaves unchanged, with bracket power 2
    x, sigma = data
    c = 2.0**k
    cx = c if name == "tf" else 1.0
    fold_of = kfold_split(x.size, FOLDS, 0)
    reports, floored = [], []
    for xs, ss in ((x, sigma), (c * x, c * sigma)):
        xd = xs if name == "tf" else xs / ss
        hv = pooled_grid_for(xd)
        reports.append(tune_pooled(xd, ss, hv, fold_of, 4 if name == "tf" else 2))
        floored.append(floored_cells(xd, np.ones_like(xd), hv, (1.0,))[:, 0])
    a, b = reports
    assert b.h_values == tuple(cx * h for h in a.h_values)
    clean = ~(floored[0] | floored[1])
    assert_scaled(b.surface[clean], a.surface[clean], 4.0**k)
    if np.array_equal(a.degenerate, b.degenerate):
        assert b.best_h == cx * a.best_h
        method = TF if name == "tf" else Scaled
        assert_scaled(fit(method(b.best_h), c * x, c * sigma), fit(method(a.best_h), x, sigma), c)


def kgroups_tuned(x, sigma, folds_k):
    """tune_kgroups's bandwidths and each group's degenerate mask."""
    reports = []

    def spy(*args, **kwargs):
        reports.append(tune_pooled(*args, **kwargs))
        return reports[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nesteb.sure, "tune_pooled", spy)
        h = tune_kgroups(validate_sample(x, sigma), 2, folds_k, 0)
    return h, [r.degenerate for r in reports]


@TUNED
@given(data=tuning_samples(), k=powers)
def test_tune_kgroups_is_scale_invariant(data, k):
    x, sigma = data
    c = 2.0**k
    (ha, da), (hb, db) = kgroups_tuned(x, sigma, FOLDS), kgroups_tuned(c * x, c * sigma, FOLDS)
    if all(np.array_equal(p, q) for p, q in zip(da, db)):
        assert hb == tuple(c * h for h in ha)
        assert_scaled(fit(KGroups(2, hb), c * x, c * sigma), fit(KGroups(2, ha), x, sigma), c)


@pytest.mark.xfail(strict=True, reason="the absolute FLOOR: at 2^8 scale more than 1% of group 0's "
                                       "points sit under it in the smallest-h cell, which turns degenerate")
def test_tune_kgroups_scale_invariant_where_the_floor_moves():
    rng = np.random.default_rng(2)
    x = 2.0 * rng.normal(size=60)
    sigma = rng.uniform(0.3, 2.0, 60)
    (ha, da), (hb, db) = kgroups_tuned(x, sigma, 10), kgroups_tuned(256 * x, 256 * sigma, 10)
    assert da[0][0] != db[0][0]   # only the scaled run's cell 0 is degenerate
    # 55.90 expected; 111.80 picked
    assert hb == tuple(256 * h for h in ha)

import numpy as np
import pytest

from nesteb.data import H_MIN, Bandwidths, HeteroSample, derive_seed, kfold_split, validate_sample
from nesteb.errors import BadFoldCount, LengthMismatch, NonFiniteValue, NonPositiveSigma


class TestValidateSample:
    def test_minimal_valid_input(self):
        s = validate_sample([0.0], [1.0])
        assert s.n == 1
        assert s.x[0] == 0.0 and s.sigma[0] == 1.0
        assert s.mu_true is None

    def test_zero_sigma_rejected_with_index(self):
        with pytest.raises(NonPositiveSigma) as err:
            validate_sample([0.0], [0.0])
        assert err.value.index == 0

    def test_negative_sigma_rejected(self):
        with pytest.raises(NonPositiveSigma) as err:
            validate_sample([1.0, 2.0, 3.0], [1.0, -0.5, 1.0])
        assert err.value.index == 1

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            validate_sample([1.0, 2.0], [1.0])

    def test_mu_true_length_checked(self):
        with pytest.raises(LengthMismatch):
            validate_sample([1.0, 2.0], [1.0, 1.0], mu_true=[0.0])

    def test_non_finite_rejected_with_column_and_index(self):
        with pytest.raises(NonFiniteValue) as err:
            validate_sample([1.0, np.nan], [1.0, 1.0])
        assert err.value.column == "x" and err.value.index == 1
        with pytest.raises(NonFiniteValue) as err:
            validate_sample([1.0, 2.0], [1.0, np.inf])
        assert err.value.column == "sigma"

    def test_empty_rejected(self):
        with pytest.raises(LengthMismatch):
            validate_sample([], [])

    def test_pure_function(self):
        a = validate_sample([1.0, 2.0], [0.5, 0.7], [0.9, 1.8])
        b = validate_sample([1.0, 2.0], [0.5, 0.7], [0.9, 1.8])
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.sigma, b.sigma)
        np.testing.assert_array_equal(a.mu_true, b.mu_true)

    def test_arrays_immutable_and_decoupled_from_input(self):
        src = np.array([1.0, 2.0])
        s = validate_sample(src, [1.0, 1.0])
        with pytest.raises(ValueError):
            s.x[0] = 99.0
        src[0] = 99.0
        assert s.x[0] == 1.0


class TestHeteroSampleValidates:
    # the constructor holds the rules, so no way of building a sample skips them
    @pytest.mark.parametrize("args,error", [
        (([1.0, 2.0], [1.0]), LengthMismatch),
        (([1.0, 2.0], [1.0, 1.0], [0.0]), LengthMismatch),
        (([], []), LengthMismatch),
        (([1.0, np.nan], [1.0, 1.0]), NonFiniteValue),
        (([1.0, 2.0], [1.0, 1.0], [0.0, np.inf]), NonFiniteValue),
        (([1.0, 2.0, 3.0], [1.0, -0.5, 0.0]), NonPositiveSigma),
        (([1.0, 2.0], [1.0, 0.0]), NonPositiveSigma),
    ], ids=["short-sigma", "short-mu", "empty", "nan-x", "inf-mu", "negative-sigma", "zero-sigma"])
    def test_direct_construction_refuses_like_validate_sample(self, args, error):
        with pytest.raises(error) as direct:
            HeteroSample(*args)
        with pytest.raises(error) as validated:
            validate_sample(*args)
        assert str(direct.value) == str(validated.value)

    def test_columns_are_read_only_copies(self):
        x, sigma, mu = np.array([1.0, 2.0]), np.array([0.5, 0.7]), np.array([0.9, 1.8])
        s = HeteroSample(x, sigma, mu)
        sub = s.subset(np.array([1]))
        for col, src in ((s.x, x), (s.sigma, sigma), (s.mu_true, mu)):
            with pytest.raises(ValueError):
                col[0] = 99.0
            src[0] = 99.0
            assert col[0] != 99.0
        assert not any(c.flags.writeable for c in (sub.x, sub.sigma, sub.mu_true))


BELOW_H_MIN = float(np.nextafter(H_MIN, 0.0))


def test_bandwidths_accept_h_min_and_refuse_below():
    assert Bandwidths(H_MIN, H_MIN).h_sigma == H_MIN
    for pair in ((BELOW_H_MIN, 1.0), (1.0, BELOW_H_MIN)):
        with pytest.raises(ValueError, match="finite"):
            Bandwidths(*pair)


class TestKfoldSplit:
    def test_exact_division(self):
        f = kfold_split(10, 5, seed=3)
        assert sorted(np.bincount(f, minlength=5)) == [2, 2, 2, 2, 2]

    def test_near_equal_split(self):
        f = kfold_split(10, 3, seed=11)
        assert sorted(np.bincount(f, minlength=3), reverse=True) == [4, 3, 3]

    def test_deterministic_for_fixed_seed(self):
        a = kfold_split(10, 5, seed=7)
        b = kfold_split(10, 5, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_assignment(self):
        a = kfold_split(50, 5, seed=1)
        b = kfold_split(50, 5, seed=2)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("k", [0, 1, 11])
    def test_bad_fold_count(self, k):
        with pytest.raises(BadFoldCount):
            kfold_split(10, k, seed=0)

    def test_partition_properties_random(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            n = int(rng.integers(2, 200))
            k = int(rng.integers(2, n + 1))
            f = kfold_split(n, k, seed=int(rng.integers(0, 2**63)))
            sizes = np.bincount(f, minlength=k)
            assert sizes.sum() == n
            assert sizes.max() - sizes.min() <= 1
            seen = np.concatenate([np.flatnonzero(f == g) for g in range(k)])
            assert sorted(seen) == list(range(n))

    def test_returns_read_only_integer_array(self):
        f = kfold_split(12, 4, seed=2)
        assert f.shape == (12,) and np.issubdtype(f.dtype, np.integer)
        assert not f.flags.writeable
        with pytest.raises(ValueError):
            f[0] = 1

    def test_complement_is_exact(self):
        f = kfold_split(9, 3, seed=5)
        for g in range(3):
            inside = set(np.flatnonzero(f == g))
            outside = set(np.flatnonzero(f != g))
            assert inside | outside == set(range(9))
            assert inside & outside == set()


def test_derive_seed_stable_and_sensitive():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) != derive_seed(1, 2, 4)

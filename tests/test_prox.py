from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
import numpy as np
import pytest

from tvadmm import prox
from tvadmm.exceptions import NumericalFailureError


def random_spd(rng, n, shift=1.0):
    m = rng.normal(size=(n, n))
    return m.T @ m + shift * np.eye(n)


RHO_MAPS = {
    "gaussian_prox_cache": lambda rho: prox.gaussian_prox_cache(
        np.eye(2), np.zeros((1, 2)), rho),
    "prox_neg_logdet_gram": lambda rho: prox.prox_neg_logdet_gram(
        np.eye(2), np.eye(2), rho),
}
THRESHOLDS = {"group": prox.soft_threshold_group,
              "scalar": prox.soft_threshold_scalar}


@pytest.mark.parametrize("entry", sorted(RHO_MAPS))
@pytest.mark.parametrize("rho", [np.nan, np.inf, 0.0, -1.0])
def test_rho_positive_and_finite_naming_it(entry, rho):
    with pytest.raises(ValueError, match="^rho must be positive and finite"):
        RHO_MAPS[entry](rho)


@pytest.mark.parametrize("kind", sorted(THRESHOLDS))
def test_nan_kappa_rejected_naming_it(kind):
    with pytest.raises(ValueError, match="^kappa must be nonnegative"):
        THRESHOLDS[kind](np.ones((3, 2)), np.nan)


class TestProxGaussian:
    def test_scalar_example(self):
        cache = prox.gaussian_prox_cache(np.array([[1.0]]), np.array([[2.0]]), 1.0)
        x = prox.prox_gaussian(cache, np.array([[0.0]]))
        assert np.allclose(x, [[1.0]], atol=1e-14)

    def test_fixed_point_at_sample(self):
        rng = np.random.default_rng(0)
        sigma = random_spd(rng, 3)
        y = rng.normal(size=(1, 3))
        cache = prox.gaussian_prox_cache(sigma, y, 2.5)
        x = prox.prox_gaussian(cache, y)
        assert np.abs(x - y).max() < 1e-12

    def test_identity_sigma_example(self):
        cache = prox.gaussian_prox_cache(np.eye(2), np.array([[4.0, 0.0]]), 3.0)
        x = prox.prox_gaussian(cache, np.array([[0.0, 4.0]]))
        assert np.allclose(x, [[1.0, 3.0]], atol=1e-14)

    def test_dimension_mismatch(self):
        cache = prox.gaussian_prox_cache(np.eye(2), np.zeros((1, 2)), 1.0)
        with pytest.raises(ValueError):
            prox.prox_gaussian(cache, np.zeros((1, 3)))
        with pytest.raises(ValueError):
            prox.prox_gaussian(cache, np.zeros((2, 2)))

    def test_rejects_nonpositive_rho(self):
        with pytest.raises(ValueError):
            prox.gaussian_prox_cache(np.eye(2), np.zeros((1, 2)), 0.0)

    def test_matches_dense_solve_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            n = int(rng.integers(1, 7))
            sigma = random_spd(rng, n)
            rho = float(rng.uniform(0.1, 5.0))
            y = rng.normal(size=(3, n))
            targets = rng.normal(size=(3, n))
            cache = prox.gaussian_prox_cache(sigma, y, rho)
            x = prox.prox_gaussian(cache, targets)
            sigma_inv = np.linalg.inv(sigma)
            for i in range(3):
                ref = np.linalg.solve(sigma_inv + rho * np.eye(n),
                                      sigma_inv @ y[i] + rho * targets[i])
                assert np.abs(x[i] - ref).max() < 1e-9


    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
    @pytest.mark.parametrize("n_samples", [1, 7, 10000])
    @pytest.mark.parametrize("kind", ["identity", "diagonal", "correlated"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_cache_matches_dense_formula(self, n, kind, n_samples, scale):
        # Samples at the given scale, sigma at its square and rho at its
        # inverse, as the mean filter's default rho = lam would be.
        rng = np.random.default_rng(10 * n + n_samples)
        sigma = scale ** 2 * {
            "identity": np.eye(n),
            "diagonal": np.diag(rng.uniform(0.5, 2.0, size=n)),
            "correlated": random_spd(rng, n, shift=0.5),
        }[kind]
        y = scale * rng.normal(size=(n_samples, n))
        rho = 0.7 / scale
        cache = prox.gaussian_prox_cache(sigma, y, rho)
        sigma_inv = np.linalg.inv(sigma)
        system_inv = np.linalg.inv(sigma_inv + rho * np.eye(n))
        expected = {"sigma_inv": sigma_inv, "gain": rho * system_inv,
                    "offset": (system_inv @ sigma_inv @ y.T).T}
        for name, want in expected.items():
            got = getattr(cache, name)
            assert got.shape == want.shape, name
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name
        assert cache.offset.flags.c_contiguous
        assert np.array_equal(cache.sigma, sigma)


class TestSoftThresholdGroup:
    def test_shrink_example(self):
        out = prox.soft_threshold_group(np.array([3.0, 4.0]), 1.0)
        assert np.allclose(out, [2.4, 3.2], atol=1e-14)

    def test_zero_input(self):
        out = prox.soft_threshold_group(np.zeros(3), 2.0)
        assert np.array_equal(out, np.zeros(3))

    def test_kill_example(self):
        out = prox.soft_threshold_group(np.array([1.0, 0.0]), 2.0)
        assert np.array_equal(out, np.zeros(2))

    def test_negative_kappa(self):
        with pytest.raises(ValueError):
            prox.soft_threshold_group(np.ones(2), -0.5)

    def test_norm_identity(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            a = rng.normal(size=int(rng.integers(1, 6)))
            kappa = float(rng.uniform(0.0, 2.0))
            out_norm = np.linalg.norm(prox.soft_threshold_group(a, kappa))
            expect = max(np.linalg.norm(a) - kappa, 0.0)
            assert abs(out_norm - expect) <= 1e-12 * max(1.0, expect)

    def test_nonexpansive(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            d = int(rng.integers(1, 6))
            a, b = rng.normal(size=d), rng.normal(size=d)
            kappa = float(rng.uniform(0.0, 2.0))
            lhs = np.linalg.norm(
                prox.soft_threshold_group(a, kappa) - prox.soft_threshold_group(b, kappa)
            )
            assert lhs <= np.linalg.norm(a - b) + 1e-12

    def test_subgradient_optimality(self):
        rng = np.random.default_rng(33)
        for _ in range(200):
            a = rng.normal(size=int(rng.integers(1, 6))) * rng.uniform(0.1, 3.0)
            kappa = float(rng.uniform(0.0, 2.0))
            r = prox.soft_threshold_group(a, kappa)
            if np.linalg.norm(r) > 0.0:
                assert np.abs((a - r) - kappa * r / np.linalg.norm(r)).max() < 1e-10
            else:
                assert np.linalg.norm(a) <= kappa + 1e-12

    def test_rows_matches_vector(self):
        rng = np.random.default_rng(34)
        a = rng.normal(size=(7, 3))
        a[3] = 0.0
        for kappa in (0.9, 0.0):
            out = prox.soft_threshold_group(a, kappa)
            assert np.array_equal(out[3], np.zeros(3))
            for i in range(7):
                assert np.allclose(out[i], prox.soft_threshold_group(a[i], kappa),
                                   atol=1e-15)


def soft_threshold_group_reference(a, kappa):
    # The earlier np.where formula, kept to pin the current one's bits.
    # kappa / norms may overflow in rows that np.where then discards.
    norms = np.sqrt((a * a).sum(axis=-1, keepdims=True))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        factor = np.where(norms > kappa, 1.0 - kappa / norms, 0.0)
    return factor * a


def same_bits(x, y):
    return x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))


@st.composite
def group_threshold_instances(draw):
    m = draw(st.integers(1, 30))
    d = draw(st.integers(1, 4))
    # Subnormals included: rows whose squared norm underflows to zero.
    a = draw(arrays(float, (m, d),
                    elements=st.floats(-1e150, 1e150, allow_nan=False)))
    zero_rows = draw(arrays(bool, m))
    a[zero_rows] = 0.0
    kind = draw(st.sampled_from(["free", "zero", "row norm"]))
    if kind == "zero":
        kappa = 0.0
    elif kind == "row norm":
        # A row whose norm is exactly kappa.
        row = a[draw(st.integers(0, m - 1))]
        kappa = float(np.sqrt((row * row).sum()))
    else:
        kappa = draw(st.floats(0.0, 1e150))
    return a, kappa


class TestSoftThresholdGroupBits:
    @settings(max_examples=400, deadline=None)
    @given(group_threshold_instances())
    def test_matches_reference_bits(self, instance):
        a, kappa = instance
        assert same_bits(prox.soft_threshold_group(a, kappa),
                         soft_threshold_group_reference(a, kappa))

    @pytest.mark.parametrize("kappa", [0.0, 1e-300, 1.0])
    def test_nonfinite_rows_match_reference_bits(self, kappa):
        a = np.array([[np.nan, 1.0], [np.inf, 2.0], [-np.inf, np.nan],
                      [1e-170, -1e-170], [0.0, -0.0], [3.0, 4.0]])
        with np.errstate(invalid="ignore"):  # 0 * inf, in both
            assert same_bits(prox.soft_threshold_group(a, kappa),
                             soft_threshold_group_reference(a, kappa))


class TestSoftThresholdScalar:
    def test_componentwise_example(self):
        out = prox.soft_threshold_scalar(np.array([2.0, -0.5, 0.0]), 1.0)
        assert np.array_equal(out, [1.0, 0.0, 0.0])

    def test_zero_kappa(self):
        a = np.array([1.5, -2.5])
        assert np.array_equal(prox.soft_threshold_scalar(a, 0.0), a)

    def test_negative_entry(self):
        assert np.array_equal(prox.soft_threshold_scalar(np.array([-3.0]), 1.0),
                              [-2.0])

    def test_negative_kappa(self):
        with pytest.raises(ValueError):
            prox.soft_threshold_scalar(np.ones(2), -1.0)

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_matches_clip_formula_bits(self, data):
        a = data.draw(arrays(float, data.draw(st.tuples(st.integers(1, 30),
                                                        st.integers(1, 3)))))
        flat = a.ravel()
        kind = data.draw(st.sampled_from(["free", "zero", "entry"]))
        if kind == "zero":
            kappa = 0.0
        elif kind == "entry":
            # |a_j| = kappa exactly, for some entry j.
            kappa = abs(float(flat[data.draw(st.integers(0, flat.size - 1))]))
            if np.isnan(kappa):
                kappa = 1.0
        else:
            kappa = data.draw(st.floats(0.0, allow_nan=False))
        with np.errstate(invalid="ignore"):  # inf - inf, in both
            assert same_bits(prox.soft_threshold_scalar(a, kappa),
                             a - np.clip(a, -kappa, kappa))

    def test_edge_entries_match_clip_formula_bits(self):
        a = np.array([np.nan, -0.0, 0.0, 1.0, -1.0, 5e-324, -np.inf, 2.0])
        for kappa in (0.0, 1.0, 5e-324):
            with np.errstate(invalid="ignore"):
                assert same_bits(prox.soft_threshold_scalar(a, kappa),
                                 a - np.clip(a, -kappa, kappa))


class TestProxNegLogdet:
    def test_scalar_zero_target(self):
        x = prox.prox_neg_logdet(np.array([[0.0]]), np.array([0.0]), 1.0)
        assert np.allclose(x, [[1.0]], atol=1e-14)

    def test_scalar_example(self):
        x = prox.prox_neg_logdet(np.array([[2.0]]), np.array([0.0]), 1.0)
        assert np.allclose(x, [[(2.0 + np.sqrt(8.0)) / 2.0]], atol=1e-12)

    def test_identity_target(self):
        x = prox.prox_neg_logdet(np.eye(2), np.zeros(2), 1.0)
        golden = (1.0 + np.sqrt(5.0)) / 2.0
        assert np.allclose(x, golden * np.eye(2), atol=1e-12)

    def test_rejects_nonpositive_rho(self):
        with pytest.raises(ValueError):
            prox.prox_neg_logdet(np.eye(2), np.zeros(2), 0.0)

    def test_stationarity_and_spd(self):
        rng = np.random.default_rng(41)
        for _ in range(120):
            n = int(rng.integers(1, 6))
            v = rng.normal(size=(n, n)) * rng.uniform(0.2, 3.0)
            v = 0.5 * (v + v.T)
            y = rng.normal(size=n)
            rho = float(rng.uniform(0.1, 5.0))
            x = prox.prox_neg_logdet(v, y, rho)
            evals = np.linalg.eigvalsh(x)
            assert evals.min() > 0.0
            resid = np.outer(y, y) - np.linalg.inv(x) + rho * (x - v)
            bound = 1e-7 * (1.0 + rho * np.linalg.norm(v))
            assert np.linalg.norm(resid) <= bound

    def test_eigenvalue_lower_bound(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            rho = float(rng.uniform(0.1, 5.0))
            lam = rng.normal(size=n) * 10.0
            mu = prox._mu_from_eigenvalues(lam, rho)
            lower = (-np.abs(lam) + np.sqrt(lam * lam + 4.0 * rho)) / (2.0 * rho)
            assert (mu >= lower - 1e-15).all()
            assert (mu > 0.0).all()

    def test_gram_generalizes_outer_product(self):
        rng = np.random.default_rng(43)
        v = np.array([[1.0, 0.2], [0.2, 2.0]])
        y = rng.normal(size=2)
        a = prox.prox_neg_logdet(v, y, 0.7)
        b = prox.prox_neg_logdet_gram(v, np.outer(y, y), 0.7)
        assert np.array_equal(a, b)

    def test_gram_stationarity(self):
        rng = np.random.default_rng(44)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            v = rng.normal(size=(n, n))
            v = 0.5 * (v + v.T)
            ys = rng.normal(size=(4, n))
            gram = (ys[:, :, None] * ys[:, None, :]).mean(axis=0)
            rho = float(rng.uniform(0.2, 3.0))
            x = prox.prox_neg_logdet_gram(v, gram, rho)
            resid = gram - np.linalg.inv(x) + rho * (x - v)
            assert np.linalg.norm(resid) <= 1e-7 * (1.0 + rho * np.linalg.norm(v))


def random_stack(rng, count, n):
    v = rng.normal(size=(count, n, n))
    ys = rng.normal(size=(count, 3, n))
    gram = np.einsum("kmi,kmj->kij", ys, ys) / 3.0
    return 0.5 * (v + np.swapaxes(v, 1, 2)), gram


@st.composite
def stacked_prox_instances(draw):
    n = draw(st.integers(1, 4))
    count = draw(st.integers(1, 4))
    entries = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
    v = draw(arrays(float, (count, n, n), elements=entries))
    ys = draw(arrays(float, (count, n + 1, n), elements=entries))
    rho = draw(st.floats(0.1, 10.0))
    gram = np.einsum("kmi,kmj->kij", ys, ys) / (n + 1)
    return 0.5 * (v + np.swapaxes(v, 1, 2)), gram, rho


class TestProxNegLogdetStack:
    def test_stack_matches_per_matrix(self):
        rng = np.random.default_rng(45)
        for n in range(1, 5):
            for _ in range(10):
                v, gram = random_stack(rng, 6, n)
                rho = float(rng.uniform(0.1, 5.0))
                stacked = prox.prox_neg_logdet_gram(v, gram, rho)
                assert stacked.shape == (6, n, n)
                for k in range(6):
                    single = prox.prox_neg_logdet_gram(v[k], gram[k], rho)
                    assert np.allclose(stacked[k], single, rtol=1e-13, atol=1e-13)

    @settings(max_examples=300, deadline=None)
    @given(stacked_prox_instances())
    def test_spd_and_stationary(self, instance):
        # Stationarity of the prox objective: G - X^{-1} + rho (X - V) = 0,
        # relative to the size of its terms.
        v, gram, rho = instance
        x = prox.prox_neg_logdet_gram(v, gram, rho)
        assert (np.linalg.eigvalsh(x) > 0.0).all()
        x_inv = np.linalg.inv(x)
        resid = gram - x_inv + rho * (x - v)

        def norm(a):
            return np.linalg.norm(a, axis=(1, 2))

        scale = norm(gram) + norm(x_inv) + rho * (norm(x) + norm(v))
        assert (norm(resid) <= 1e-10 * scale).all()

    @pytest.mark.parametrize("which, entry", [("v", 1e-6), ("v", np.nan),
                                              ("gram", 1e-6), ("gram", np.inf)])
    def test_rejects_one_bad_member(self, which, entry):
        rng = np.random.default_rng(46)
        v, gram = random_stack(rng, 5, 3)
        bad = v if which == "v" else gram
        if np.isfinite(entry):
            bad[2, 0, 1] += entry
        else:
            bad[2, 1, 1] = entry
        with pytest.raises(ValueError):
            prox.prox_neg_logdet_gram(v, gram, 1.0)

    def test_lapack_failure_is_numerical_failure(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        v, gram = random_stack(np.random.default_rng(47), 2, 2)
        with pytest.raises(NumericalFailureError):
            prox.prox_neg_logdet_gram(v, gram, 1.0)

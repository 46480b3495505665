import json
import math
import os
from pathlib import Path
import subprocess
import sys

import numpy as np
import pytest

import tvadmm
from tvadmm import linalg
from tvadmm.exceptions import NotPositiveDefiniteError, NumericalFailureError


def det_by_hand(a):
    # Cofactor expansion for n <= 3, kept independent of any library call.
    n = a.shape[0]
    if n == 1:
        return a[0, 0]
    if n == 2:
        return a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    return (
        a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
        - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
        + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0])
    )


class TestSymEig:
    def test_identity(self):
        dec = linalg.sym_eig(np.eye(2))
        assert np.allclose(dec.eigenvalues, [1.0, 1.0])
        q = dec.eigenvectors
        assert np.abs(q @ q.T - np.eye(2)).max() < 1e-10
        recon = (q * dec.eigenvalues) @ q.T
        assert np.abs(recon - np.eye(2)).max() < 1e-10

    def test_two_by_two(self):
        dec = linalg.sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(dec.eigenvalues, [1.0, 3.0], atol=1e-12)
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        assert np.allclose(np.abs(dec.eigenvectors[:, 0]), [inv_sqrt2, inv_sqrt2],
                           atol=1e-12)
        assert np.allclose(np.abs(dec.eigenvectors[:, 1]), [inv_sqrt2, inv_sqrt2],
                           atol=1e-12)
        # Sign convention: first nonzero component nonnegative.
        assert dec.eigenvectors[0, 0] >= 0.0
        assert dec.eigenvectors[0, 1] >= 0.0

    def test_diagonal(self):
        dec = linalg.sym_eig(np.diag([5.0, -3.0, 0.0]))
        assert np.allclose(dec.eigenvalues, [-3.0, 0.0, 5.0], atol=1e-12)
        assert np.abs(np.abs(dec.eigenvectors) - np.eye(3)[:, [1, 2, 0]]).max() < 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            linalg.sym_eig(np.array([[1.0, np.nan], [np.nan, 1.0]]))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            linalg.sym_eig(np.array([[1.0, 2.0], [0.5, 1.0]]))

    def test_random_reconstruction_and_orthogonality(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            a = rng.uniform(-1.0, 1.0, size=(n, n))
            a = 0.5 * (a + a.T)
            dec = linalg.sym_eig(a)
            q = dec.eigenvectors
            assert np.abs(q.T @ q - np.eye(n)).max() < 1e-10
            recon = (q * dec.eigenvalues) @ q.T
            denom = max(np.linalg.norm(a), 1e-30)
            assert np.linalg.norm(recon - a) / denom < 1e-10
            assert (np.diff(dec.eigenvalues) >= -1e-14).all()

    def test_trace_and_determinant(self):
        rng = np.random.default_rng(33)
        for _ in range(30):
            n = int(rng.integers(1, 4))
            a = rng.uniform(-1.0, 1.0, size=(n, n))
            a = 0.5 * (a + a.T)
            dec = linalg.sym_eig(a)
            tr = np.trace(a)
            assert abs(dec.eigenvalues.sum() - tr) <= 1e-9 * max(1.0, abs(tr))
            det = det_by_hand(a)
            assert abs(np.prod(dec.eigenvalues) - det) <= 1e-9 * max(1.0, abs(det))

    def test_stack_matches_single_calls(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(6, 3, 3))
        a = a + np.swapaxes(a, 1, 2)
        stacked = linalg.sym_eig(a)
        for k in range(6):
            single = linalg.sym_eig(a[k])
            assert np.allclose(stacked.eigenvalues[k], single.eigenvalues,
                               rtol=0.0, atol=1e-13)
            assert np.allclose(stacked.eigenvectors[k], single.eigenvectors,
                               rtol=0.0, atol=1e-13)

    def test_lapack_failure_is_numerical_failure(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NumericalFailureError):
            linalg.sym_eig(np.eye(2))


class TestSpdFactor:
    def test_identity(self):
        assert np.array_equal(linalg.spd_factor(np.eye(3)), np.eye(3))

    def test_hand_example(self):
        lower = linalg.spd_factor(np.array([[4.0, 2.0], [2.0, 5.0]]))
        assert np.allclose(lower, [[2.0, 0.0], [1.0, 2.0]], atol=1e-14)

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefiniteError) as err:
            linalg.spd_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert err.value.pivot_index == 1
        assert err.value.pivot_value == -3.0

    def test_rejects_stack(self):
        with pytest.raises(ValueError):
            linalg.spd_factor(np.tile(np.eye(2), (3, 1, 1)))

    def test_random_factorization(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(1, 9))
            m = rng.normal(size=(n, n))
            a = m.T @ m + np.eye(n)
            lower = linalg.spd_factor(a)
            denom = np.linalg.norm(a)
            assert np.linalg.norm(lower @ lower.T - a) / denom < 1e-12


class TestSpdSolve:
    def test_identity(self):
        x = linalg.spd_solve(np.eye(2), np.array([3.0, -1.0]))
        assert np.array_equal(x, [3.0, -1.0])

    def test_hand_example(self):
        a = np.array([[4.0, 2.0], [2.0, 5.0]])
        x = linalg.spd_solve(linalg.spd_factor(a), np.array([6.0, 7.0]))
        assert np.allclose(x, [1.0, 1.0], atol=1e-14)

    def test_scalar(self):
        x = linalg.spd_solve(linalg.spd_factor(np.array([[2.0]])), np.array([10.0]))
        assert np.allclose(x, [5.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            linalg.spd_solve(np.eye(2), np.ones(3))

    def test_random_residuals(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(1, 9))
            m = rng.normal(size=(n, n))
            a = m.T @ m + np.eye(n)
            b = rng.normal(size=n)
            x = linalg.spd_solve(linalg.spd_factor(a), b)
            assert np.linalg.norm(a @ x - b) <= 1e-10 * (1.0 + np.linalg.norm(b))

    def test_matrix_rhs_matches_columnwise(self):
        rng = np.random.default_rng(12)
        m = rng.normal(size=(4, 4))
        a = m.T @ m + np.eye(4)
        b = rng.normal(size=(4, 6))
        factor = linalg.spd_factor(a)
        block = linalg.spd_solve(factor, b)
        for j in range(6):
            assert np.allclose(block[:, j], linalg.spd_solve(factor, b[:, j]),
                               atol=1e-14, rtol=1e-13)


def test_spd_inverse_and_logdet():
    rng = np.random.default_rng(2)
    m = rng.normal(size=(5, 5))
    a = m.T @ m + np.eye(5)
    inv = linalg.spd_inverse(a)
    assert np.abs(a @ inv - np.eye(5)).max() < 1e-10
    factor = linalg.spd_factor(a)
    sign, ref = np.linalg.slogdet(a)
    assert sign > 0
    assert abs(linalg.spd_logdet(factor) - ref) < 1e-10
    # A stack of factors gives the sum of the log-determinants.
    stack = np.stack([factor, 2.0 * np.eye(5)])
    assert abs(linalg.spd_logdet(stack) - (ref + 5.0 * np.log(4.0))) < 1e-10


# Run in a fresh interpreter: prints where tvadmm._lapack took its
# routines from and a digest of one projection, one Cholesky factor and
# solve and two mean filters, computed before and after scipy.linalg is
# imported: a scalar series, and the correlated-sigma series whose start
# factors and solves with dpbtrf and dpbtrs. With an argument, scipy's
# folder is taken to be that directory, which holds no _flapack.
_LAPACK_PROBE = """
import hashlib, json, os, sys
import numpy as np
import scipy
if len(sys.argv) > 1:
    scipy.__file__ = os.path.join(sys.argv[1], "__init__.py")
import tvadmm
from tvadmm import _lapack, linalg
from tvadmm.cli import generate_piecewise_data
from tvadmm.projection import chain_factor, project

def sha(*parts):
    return hashlib.sha256(b"".join(
        p if isinstance(p, bytes) else np.ascontiguousarray(p).tobytes()
        for p in parts)).hexdigest()

def digests():
    rng = np.random.default_rng(3)
    chol = chain_factor(9)
    z, s = project(chol, rng.normal(size=(9, 2)), rng.normal(size=(8, 2)))
    m = rng.normal(size=(3, 3))
    factor = linalg.spd_factor(m @ m.T + np.eye(3))
    x = linalg.spd_solve(factor, rng.normal(size=(3, 2)))
    data, _, _ = generate_piecewise_data(63)
    spec = tvadmm.MeanFilterSpec(lam=0.1 * tvadmm.lambda_max_mean(data))
    data2, _, _ = generate_piecewise_data(63, n_samples=400, dim=2)
    sigma = np.array([[1.0, 0.5], [0.5, 2.0]])
    lam = 0.1 * tvadmm.lambda_max_mean(data2, sigma, "elementwise")
    spec2 = tvadmm.MeanFilterSpec(lam=lam, penalty="elementwise", sigma=sigma)
    means = {}
    for name, series, sp in (("mean", data, spec), ("banded", data2, spec2)):
        est, rep = tvadmm.mean_filter(series, sp)
        fields = repr((rep.iterations, rep.converged, rep.polished,
                       rep.certificate_gap)).encode()
        means[name] = sha(est, rep.history, rep.objective_trace, fields)
    return {"project": sha(chol.band, z, s), "spd": sha(factor, x), **means}

loaded = sorted(m for m in sys.modules if m.startswith("scipy.linalg"))
before = digests()
from scipy.linalg import lapack
print(json.dumps({
    "source": _lapack._source.__name__,
    "scipy_linalg_at_import": loaded,
    "shared": [getattr(_lapack, n) is getattr(lapack, n) for n in _lapack._ROUTINES],
    "before": before, "after": digests()}))
"""


def _probe_lapack(*args):
    env = dict(os.environ,
               PYTHONPATH=str(Path(tvadmm.__file__).resolve().parents[1]))
    result = subprocess.run([sys.executable, "-c", _LAPACK_PROBE, *map(str, args)],
                            env=env, check=True, capture_output=True, text=True,
                            timeout=120)
    return json.loads(result.stdout)


def test_lapack_fallback_gives_identical_results(tmp_path):
    direct = _probe_lapack()
    assert direct["source"] == "tvadmm._flapack"
    assert direct["scipy_linalg_at_import"] == []
    assert not any(direct["shared"])
    # The direct load fails, so the routines are scipy.linalg.lapack's own.
    fallback = _probe_lapack(tmp_path)
    assert fallback["source"] == "scipy.linalg.lapack"
    assert all(fallback["shared"])
    for run in (direct, fallback):
        assert run["after"] == run["before"]
    assert fallback["before"] == direct["before"]

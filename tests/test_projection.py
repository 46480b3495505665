import math

from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
import numpy as np
import pytest

from oracles import dense_project, difference_operator
from tvadmm.projection import chain_factor, project


def chain_matrix(n):
    """Dense I + D^T D for block dimension 1."""
    d = difference_operator(n, 1)
    return np.eye(n) + d.T @ d


class TestChainFactor:
    def test_two_blocks(self):
        chol = chain_factor(2)
        assert chol.diag[0] == math.sqrt(2.0)
        assert np.allclose(chol.diag, [1.41421356, 1.22474487], atol=1e-8)
        assert np.allclose(chol.subdiag, [-0.70710678], atol=1e-8)

    def test_three_blocks(self):
        chol = chain_factor(3)
        assert np.allclose(chol.diag, [1.41421356, 1.58113883, 1.26491106],
                           atol=1e-8)
        assert np.allclose(chol.subdiag, [-0.70710678, -0.63245553], atol=1e-8)

    def test_matches_dense_cholesky(self):
        for n in (2, 3, 4, 10, 37, 200):
            chol = chain_factor(n)
            dense = np.linalg.cholesky(chain_matrix(n))
            assert np.abs(np.diag(dense) - chol.diag).max() < 1e-12
            assert np.abs(np.diag(dense, -1) - chol.subdiag).max() < 1e-12

    def test_reassembles_chain_matrix(self):
        for n in (2, 5, 64, 200):
            chol = chain_factor(n)
            lower = np.diag(chol.diag) + np.diag(chol.subdiag, -1)
            assert np.abs(lower @ lower.T - chain_matrix(n)).max() < 1e-12

    def test_kron_structure(self):
        # The scalar coefficients apply unchanged to any block dimension.
        n, d = 6, 3
        chol = chain_factor(n)
        lower = np.kron(np.diag(chol.diag) + np.diag(chol.subdiag, -1), np.eye(d))
        dop = difference_operator(n, d)
        dense = np.eye(n * d) + dop.T @ dop
        assert np.abs(lower @ lower.T - dense).max() < 1e-12

    def test_rejects_zero_blocks(self):
        with pytest.raises(ValueError):
            chain_factor(0)

    @pytest.mark.parametrize("n_blocks", [np.nan, np.inf, 0, -1, 2.5])
    def test_rejects_non_whole_counts_naming_them(self, n_blocks):
        with pytest.raises(ValueError, match="^n_blocks must be a whole number >= 1"):
            chain_factor(n_blocks)

    def test_single_block_factor_is_identity(self):
        assert np.array_equal(chain_factor(1).band, [[1.0], [0.0]])

    def test_single_block_projects_to_itself(self):
        # No differences to couple: the projection is the identity.
        w = np.array([[1.5, -2.0, 3.25]])
        z, s = project(chain_factor(1), w, np.zeros((0, 3)))
        assert np.array_equal(z, w)
        assert s.shape == (0, 3)


class TestProject:
    def test_zero_input(self):
        chol = chain_factor(2)
        z, s = project(chol, np.zeros((2, 1)), np.zeros((1, 1)))
        assert np.array_equal(z, np.zeros((2, 1)))
        assert np.array_equal(s, np.zeros((1, 1)))

    def test_feasible_point_fixed(self):
        chol = chain_factor(2)
        z, s = project(chol, np.ones((2, 1)), np.zeros((1, 1)))
        assert np.allclose(z, 1.0, atol=1e-14)
        assert np.allclose(s, 0.0, atol=1e-14)

    def test_hand_solve(self):
        chol = chain_factor(2)
        z, s = project(chol, np.zeros((2, 1)), np.ones((1, 1)))
        assert np.allclose(z.ravel(), [-1.0 / 3.0, 1.0 / 3.0], atol=1e-12)
        assert np.allclose(s.ravel(), [2.0 / 3.0], atol=1e-12)

    def test_difference_consistency(self):
        rng = np.random.default_rng(3)
        chol = chain_factor(9)
        z, s = project(chol, rng.normal(size=(9, 4)), rng.normal(size=(8, 4)))
        assert np.array_equal(s, z[1:] - z[:-1])

    def test_normal_equation_residual(self):
        rng = np.random.default_rng(4)
        for n, d in ((2, 1), (5, 3), (40, 2)):
            w = rng.normal(size=(n, d))
            v = rng.normal(size=(n - 1, d))
            chol = chain_factor(n)
            z, _ = project(chol, w, v)
            m = chain_matrix(n)
            rhs = np.empty_like(w)
            rhs[0] = w[0] - v[0]
            rhs[-1] = w[-1] + v[-1]
            if n > 2:
                rhs[1:-1] = w[1:-1] + v[:-1] - v[1:]
            resid = np.abs(m @ z - rhs).max()
            scale = 1.0 + np.abs(w).max() + np.abs(v).max()
            assert resid <= 1e-10 * scale

    def test_oracle_equivalence(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(2, 61))
            d = int(rng.integers(1, 6))
            w = rng.standard_normal((n, d))
            v = rng.standard_normal((n - 1, d))
            z, s = project(chain_factor(n), w, v)
            z_ref, s_ref = dense_project(w, v)
            assert np.abs(z - z_ref).max() <= 1e-9
            assert np.abs(s - s_ref).max() <= 1e-9

    def test_idempotence(self):
        rng = np.random.default_rng(8)
        chol = chain_factor(25)
        w = rng.normal(size=(25, 2))
        v = rng.normal(size=(24, 2))
        z1, s1 = project(chol, w, v)
        z2, s2 = project(chol, z1, s1)
        assert np.abs(z2 - z1).max() < 1e-12
        assert np.abs(s2 - s1).max() < 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(9)
        chol = chain_factor(12)
        wa, va = rng.normal(size=(12, 3)), rng.normal(size=(11, 3))
        wb, vb = rng.normal(size=(12, 3)), rng.normal(size=(11, 3))
        alpha, beta = 0.37, -1.42
        z_mix, s_mix = project(chol, alpha * wa + beta * wb, alpha * va + beta * vb)
        za, sa = project(chol, wa, va)
        zb, sb = project(chol, wb, vb)
        assert np.abs(z_mix - (alpha * za + beta * zb)).max() < 1e-10
        assert np.abs(s_mix - (alpha * sa + beta * sb)).max() < 1e-10

    def test_optimality_against_feasible_points(self):
        rng = np.random.default_rng(10)
        n, d = 14, 2
        chol = chain_factor(n)
        w = rng.normal(size=(n, d))
        v = rng.normal(size=(n - 1, d))
        z, s = project(chol, w, v)
        best = ((z - w) ** 2).sum() + ((s - v) ** 2).sum()
        for _ in range(100):
            z_alt = z + rng.normal(scale=rng.uniform(1e-3, 1.0), size=(n, d))
            s_alt = z_alt[1:] - z_alt[:-1]
            alt = ((z_alt - w) ** 2).sum() + ((s_alt - v) ** 2).sum()
            assert alt >= best - 1e-9

    def test_shape_errors(self):
        chol = chain_factor(3)
        with pytest.raises(ValueError):
            project(chol, np.zeros((2, 1)), np.zeros((2, 1)))
        with pytest.raises(ValueError):
            project(chol, np.zeros((3, 1)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            project(chol, np.zeros(3), np.zeros(2))
        w, v = np.zeros((3, 2)), np.zeros((2, 2))
        for bad in (np.empty((5, 1)), np.empty((5, 2), dtype=np.float32),
                    np.empty((5, 2)).tolist()):
            with pytest.raises(ValueError):
                project(chol, w, v, out=bad)


@st.composite
def projection_inputs(draw):
    n = draw(st.integers(2, 300))
    d = draw(st.integers(1, 4))
    entries = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
    return (draw(arrays(float, (n, d), elements=entries)),
            draw(arrays(float, (n - 1, d), elements=entries)))


def difference_adjoint(a):
    """D^T a for an (N-1, d) array: -a_0, a_{i-1} - a_i, ..., a_{N-2}."""
    return -np.diff(np.pad(a, ((1, 1), (0, 0))), axis=0)


class TestProjectProperties:
    @settings(max_examples=60, deadline=None)
    @given(projection_inputs())
    def test_feasible_orthogonal_and_matches_dense(self, inputs):
        w, v = inputs
        z, s = project(chain_factor(w.shape[0]), w, v)
        assert np.array_equal(s, z[1:] - z[:-1])
        # (w - z, v - s) is orthogonal to the subspace {(y, Dy)} exactly
        # when (w - z) + D^T (v - s) = 0.
        scale = 1.0 + np.abs(w).max() + np.abs(v).max()
        resid = (w - z) + difference_adjoint(v - s)
        assert np.abs(resid).max() <= 1e-10 * scale
        z_ref, s_ref = dense_project(w, v)
        assert np.abs(z - z_ref).max() <= 1e-10 * scale
        assert np.abs(s - s_ref).max() <= 1e-10 * scale

        # Into a caller's buffer: the same bits, as views of that buffer.
        n, d = w.shape
        buf = np.full((2 * n - 1, d), np.nan)
        z_out, s_out = project(chain_factor(n), w, v, out=buf)
        assert np.shares_memory(z_out, buf[:n]) and np.shares_memory(s_out, buf[n:])
        assert z_out.tobytes() == z.tobytes()
        assert s_out.tobytes() == s.tobytes()
        with pytest.raises(ValueError):
            project(chain_factor(n), w, v, out=np.empty((2 * n, d)))

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve

from gppca import gaussian_geometry as gg
from gppca.gaussian_geometry import (
    DecompositionError,
    MomentGaussian,
    NaturalCoord,
    chol_pd,
    chol_solve,
    moment_to_natural,
    natural_to_moment,
)
from helpers import (
    gaussians,
    gaussian_pairs,
    inverse_floor,
    random_gaussian,
    spd_matrix,
    transposed_inverse,
)
from oracles import (
    ExpectationCoord,
    dual_potential,
    expectation_to_moment,
    expectation_to_natural,
    inner_product,
    kl_divergence,
    log_partition,
    moment_to_expectation,
    natural_to_expectation,
    pack_expectation,
    unpack_coords,
    unpack_expectation,
    unpack_natural,
)


def _potential_route_kl(p: MomentGaussian, q: MomentGaussian) -> float:
    """KL(p||q) assembled from the Legendre potentials and the pairing."""
    xi_q = moment_to_natural(q)
    zeta_p = moment_to_expectation(p)
    return log_partition(xi_q) + dual_potential(zeta_p) - inner_product(xi_q, zeta_p)


class TestMomentToNatural:
    def test_standard_normal(self):
        c = moment_to_natural(MomentGaussian([0.0], [[1.0]]))
        np.testing.assert_allclose(c.theta, [0.0])
        np.testing.assert_allclose(c.big_theta, [[-0.5]])

    def test_univariate(self):
        # theta = Sigma^-1 mu = 0.5, Theta = -1/2 Sigma^-1 = -0.25
        c = moment_to_natural(MomentGaussian([1.0], [[2.0]]))
        np.testing.assert_allclose(c.theta, [0.5])
        np.testing.assert_allclose(c.big_theta, [[-0.25]])

    def test_identity_2d(self):
        c = moment_to_natural(MomentGaussian([0.0, 0.0], np.eye(2)))
        np.testing.assert_allclose(c.theta, [0.0, 0.0])
        np.testing.assert_allclose(c.big_theta, -0.5 * np.eye(2))

    def test_non_pd_sigma_raises(self):
        with pytest.raises(DecompositionError, match="sigma"):
            moment_to_natural(MomentGaussian([0.0, 0.0], [[1.0, 0.0], [0.0, -1.0]]))


class TestNaturalToMoment:
    def test_inverse_of_standard(self):
        g = natural_to_moment(NaturalCoord([0.0], [[-0.5]]))
        np.testing.assert_allclose(g.mu, [0.0])
        np.testing.assert_allclose(g.sigma, [[1.0]])

    def test_univariate(self):
        g = natural_to_moment(NaturalCoord([0.5], [[-0.25]]))
        np.testing.assert_allclose(g.mu, [1.0])
        np.testing.assert_allclose(g.sigma, [[2.0]])

    def test_positive_theta_raises(self):
        with pytest.raises(DecompositionError):
            natural_to_moment(NaturalCoord([0.0], [[0.5]]))

    def test_round_trip_d5(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            g = random_gaussian(rng, 5)
            g2 = natural_to_moment(moment_to_natural(g))
            np.testing.assert_allclose(g2.mu, g.mu, rtol=1e-8, atol=1e-10)
            np.testing.assert_allclose(g2.sigma, g.sigma, rtol=1e-8, atol=1e-10)


class TestFlatNaturalToMoment:
    """`flat_natural_to_moment` is the chain `natural_to_moment(unpack_natural(...))`
    from one strict factorization: mu to the bit, Sigma to the rounding of an inverse."""

    @staticmethod
    def _flat(rng, d, cond_max, asymmetry=0.0):
        a = spd_matrix(rng, d, cond_max)  # -2 Theta
        big_theta = -0.5 * a + asymmetry * rng.normal(size=(d, d))
        return np.concatenate([rng.normal(size=d) * 10.0, big_theta.reshape(-1)])

    @pytest.mark.parametrize("d", [1, 12, 60])
    @pytest.mark.parametrize("cond_max", [1e2, 1e12])
    @pytest.mark.parametrize("asymmetry", [0.0, 1e-17])
    def test_matches_the_chain_bit_for_bit(self, d, cond_max, asymmetry):
        # mu to the bit. Sigma equals its transpose to the bit and lies within
        # `inverse_floor` of the chain's, a floor that R R^T in place of R^T R exceeds.
        rng = np.random.default_rng(d)
        for _ in range(10):
            flat = self._flat(rng, d, cond_max, asymmetry)
            got = gg.flat_natural_to_moment(flat, d)
            want = natural_to_moment(unpack_natural(flat, d))
            a = -2.0 * unpack_coords(flat, d)[1]
            floor = inverse_floor(a)
            assert np.array_equal(got.mu, want.mu)
            assert np.array_equal(got.sigma, got.sigma.T)
            assert np.all(np.abs(got.sigma - want.sigma) <= floor)
            if d > 1:  # at d = 1 the swapped product is the same number
                assert np.any(np.abs(transposed_inverse(a) - want.sigma) > floor)

    def test_refuses_what_jitter_would_repair(self):
        # min eig(-2 Theta) = -1e-12: chol_pd's first jitter (1e-10 trace/d) factors it.
        a = np.diag([1.0, 2.0, -1e-12])
        flat = np.concatenate([np.ones(3), (-0.5 * a).reshape(-1)])
        natural_to_moment(unpack_natural(flat, 3))
        with pytest.raises(DecompositionError, match=r"-2\*big_theta"):
            gg.flat_natural_to_moment(flat, 3)

    @pytest.mark.parametrize("valid", [True, False])
    def test_factors_once(self, valid, monkeypatch):
        a = np.diag([1.0, 2.0, 1.0 if valid else -1e-12])
        flat = np.concatenate([np.ones(3), (-0.5 * a).reshape(-1)])
        calls = []

        def counting(m):
            calls.append(m)
            return cholesky(m)

        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", counting)
        try:
            gg.flat_natural_to_moment(flat, 3)
        except DecompositionError:
            assert not valid
        assert len(calls) == 1


class TestExpectationMaps:
    def test_standard(self):
        c = moment_to_expectation(MomentGaussian([0.0], [[1.0]]))
        np.testing.assert_allclose(c.eta, [0.0])
        np.testing.assert_allclose(c.big_h, [[1.0]])

    def test_univariate(self):
        # H = mu mu^T + Sigma = 1 + 2 = 3
        c = moment_to_expectation(MomentGaussian([1.0], [[2.0]]))
        np.testing.assert_allclose(c.eta, [1.0])
        np.testing.assert_allclose(c.big_h, [[3.0]])

    def test_2d(self):
        c = moment_to_expectation(MomentGaussian([1.0, -1.0], np.eye(2)))
        np.testing.assert_allclose(c.eta, [1.0, -1.0])
        np.testing.assert_allclose(c.big_h, [[2.0, -1.0], [-1.0, 2.0]])

    def test_inverse(self):
        g = expectation_to_moment(ExpectationCoord([1.0], [[3.0]]))
        np.testing.assert_allclose(g.mu, [1.0])
        np.testing.assert_allclose(g.sigma, [[2.0]])

    def test_non_pd_h_raises(self):
        with pytest.raises(DecompositionError):
            expectation_to_moment(ExpectationCoord([2.0], [[1.0]]))  # H - eta^2 = -3

    def test_round_trip_d5(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            g = random_gaussian(rng, 5)
            g2 = expectation_to_moment(moment_to_expectation(g))
            np.testing.assert_allclose(g2.mu, g.mu, rtol=1e-8, atol=1e-10)
            np.testing.assert_allclose(g2.sigma, g.sigma, rtol=1e-8, atol=1e-10)


class TestNaturalExpectationBridge:
    def test_standard(self):
        c = natural_to_expectation(NaturalCoord([0.0], [[-0.5]]))
        np.testing.assert_allclose(c.eta, [0.0])
        np.testing.assert_allclose(c.big_h, [[1.0]])

    def test_univariate(self):
        c = natural_to_expectation(NaturalCoord([0.5], [[-0.25]]))
        np.testing.assert_allclose(c.eta, [1.0])
        np.testing.assert_allclose(c.big_h, [[3.0]])

    def test_matches_direct_formula(self):
        # composition against H = 1/4 Th^-1 th th^T Th^-1 - 1/2 Th^-1
        rng = np.random.default_rng(3)
        for _ in range(10):
            c = moment_to_natural(random_gaussian(rng, 4))
            z = natural_to_expectation(c)
            inv = np.linalg.inv(c.big_theta)
            eta = -0.5 * inv @ c.theta
            big_h = 0.25 * inv @ np.outer(c.theta, c.theta) @ inv - 0.5 * inv
            np.testing.assert_allclose(z.eta, eta, rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(z.big_h, big_h, rtol=1e-10, atol=1e-12)

    def test_mutual_inverse(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            c = moment_to_natural(random_gaussian(rng, 3))
            c2 = expectation_to_natural(natural_to_expectation(c))
            np.testing.assert_allclose(c2.theta, c.theta, rtol=1e-8, atol=1e-10)
            np.testing.assert_allclose(c2.big_theta, c.big_theta, rtol=1e-8, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(gaussians(max_dim=8))
def test_round_trips_property(g):
    g_n = natural_to_moment(moment_to_natural(g))
    g_e = expectation_to_moment(moment_to_expectation(g))
    scale = max(float(np.max(np.abs(g.sigma))), 1.0)
    assert np.max(np.abs(g_n.sigma - g.sigma)) < 1e-8 * scale
    assert np.max(np.abs(g_e.sigma - g.sigma)) < 1e-8 * scale
    assert np.max(np.abs(g_n.mu - g.mu)) < 1e-8 * max(1.0, np.max(np.abs(g.mu)))


class TestPotentials:
    def test_log_partition_standard_normal(self):
        # psi = 1/2 ln(2 pi) for the univariate standard normal
        c = NaturalCoord([0.0], [[-0.5]])
        assert log_partition(c) == pytest.approx(0.5 * math.log(2 * math.pi), abs=1e-12)

    def test_log_partition_univariate(self):
        # mu = 1, sigma^2 = 2: psi = mu^2/(2 sigma^2) + 1/2 ln(2 pi sigma^2)
        c = NaturalCoord([0.5], [[-0.25]])
        expected = 0.5 * (1.0 / 2.0) + 0.5 * math.log(2 * math.pi * 2.0)
        assert log_partition(c) == pytest.approx(expected, abs=1e-12)

    def test_gradient_is_expectation_coordinate(self):
        # central finite differences of psi against (eta, H)
        rng = np.random.default_rng(11)
        c = moment_to_natural(random_gaussian(rng, 3, cond_max=10))
        z = natural_to_expectation(c)
        h = 1e-5
        d = c.dim
        grad_theta = np.zeros(d)
        for i in range(d):
            tp, tm = c.theta.copy(), c.theta.copy()
            tp[i] += h
            tm[i] -= h
            grad_theta[i] = (
                log_partition(NaturalCoord(tp, c.big_theta))
                - log_partition(NaturalCoord(tm, c.big_theta))
            ) / (2 * h)
        grad_mat = np.zeros((d, d))
        for i in range(d):
            for j in range(d):
                bp, bm = c.big_theta.copy(), c.big_theta.copy()
                bp[i, j] += h
                bp[j, i] += h if i != j else 0.0
                bm[i, j] -= h
                bm[j, i] -= h if i != j else 0.0
                # symmetric perturbation touches both entries; halve off-diagonal
                step = 2 * h if i == j else 4 * h
                grad_mat[i, j] = (
                    log_partition(NaturalCoord(c.theta, bp))
                    - log_partition(NaturalCoord(c.theta, bm))
                ) / step
        np.testing.assert_allclose(grad_theta, z.eta, rtol=1e-5, atol=1e-8)
        # symmetric-direction derivative spreads over (i,j) and (j,i)
        np.testing.assert_allclose(grad_mat, z.big_h, rtol=1e-4, atol=1e-7)

    def test_dual_potential_standard_normal(self):
        c = ExpectationCoord([0.0], [[1.0]])
        assert dual_potential(c) == pytest.approx(-0.5 - 0.5 * math.log(2 * math.pi), abs=1e-12)

    def test_dual_gradient_is_natural_coordinate(self):
        rng = np.random.default_rng(12)
        g = random_gaussian(rng, 2, cond_max=10)
        z = moment_to_expectation(g)
        xi = moment_to_natural(g)
        h = 1e-6
        grad_eta = np.zeros(2)
        for i in range(2):
            ep, em = z.eta.copy(), z.eta.copy()
            ep[i] += h
            em[i] -= h
            grad_eta[i] = (
                dual_potential(ExpectationCoord(ep, z.big_h))
                - dual_potential(ExpectationCoord(em, z.big_h))
            ) / (2 * h)
        np.testing.assert_allclose(grad_eta, xi.theta, rtol=1e-4, atol=1e-7)

    def test_legendre_duality_residual(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            g = random_gaussian(rng, int(rng.integers(1, 7)))
            xi = moment_to_natural(g)
            zeta = moment_to_expectation(g)
            resid = log_partition(xi) + dual_potential(zeta) - inner_product(xi, zeta)
            assert abs(resid) < 1e-10

    def test_forced_by_duality(self):
        # phi at (eta=1, H=3) must close the Legendre identity
        g = MomentGaussian([1.0], [[2.0]])
        xi, zeta = moment_to_natural(g), moment_to_expectation(g)
        phi = dual_potential(zeta)
        assert log_partition(xi) + phi - inner_product(xi, zeta) == pytest.approx(0.0, abs=1e-12)


class TestInnerProduct:
    def test_direct_arithmetic(self):
        xi = NaturalCoord([1.0], [[-0.5]])
        zeta = ExpectationCoord([2.0], [[5.0]])
        assert inner_product(xi, zeta) == pytest.approx(2.0 - 2.5)

    @settings(max_examples=25, deadline=None)
    @given(gaussians(max_dim=5), st.floats(-3, 3))
    def test_bilinear(self, g, a):
        xi = moment_to_natural(g)
        zeta = moment_to_expectation(g)
        scaled = NaturalCoord(a * xi.theta, a * xi.big_theta) if a < 0 else NaturalCoord(
            a * xi.theta, a * xi.big_theta
        )
        # construct without validity concerns: inner_product is pure algebra
        assert inner_product(scaled, zeta) == pytest.approx(a * inner_product(xi, zeta), rel=1e-9, abs=1e-9)

    def test_trace_term_symmetric(self):
        rng = np.random.default_rng(5)
        g = random_gaussian(rng, 3)
        xi, zeta = moment_to_natural(g), moment_to_expectation(g)
        flipped = ExpectationCoord(zeta.eta, zeta.big_h.T)
        assert inner_product(xi, zeta) == pytest.approx(inner_product(xi, flipped))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            inner_product(NaturalCoord([0.0], [[-0.5]]), ExpectationCoord([0.0, 0.0], np.eye(2)))


class TestKlDivergence:
    def test_identical_is_zero(self):
        g = MomentGaussian([0.3, -0.2], [[1.0, 0.2], [0.2, 0.8]])
        assert kl_divergence(g, g) == pytest.approx(0.0, abs=1e-13)

    def test_mean_shift(self):
        p = MomentGaussian([0.0], [[1.0]])
        q = MomentGaussian([1.0], [[1.0]])
        assert kl_divergence(p, q) == pytest.approx(0.5, abs=1e-12)

    def test_variance_ratio(self):
        p = MomentGaussian([0.0], [[2.0]])
        q = MomentGaussian([0.0], [[1.0]])
        assert kl_divergence(p, q) == pytest.approx(0.5 * (2 - 1 - math.log(2)), abs=1e-12)

    def test_orientation_matches_integral_kl(self):
        # Monte Carlo check of E_p[log p/q] for an asymmetric pair
        rng = np.random.default_rng(100)
        p = MomentGaussian([0.5], [[1.5]])
        q = MomentGaussian([-0.3], [[0.7]])
        x = rng.normal(p.mu[0], math.sqrt(p.sigma[0, 0]), size=400_000)
        logp = -0.5 * (x - p.mu[0]) ** 2 / p.sigma[0, 0] - 0.5 * math.log(2 * math.pi * p.sigma[0, 0])
        logq = -0.5 * (x - q.mu[0]) ** 2 / q.sigma[0, 0] - 0.5 * math.log(2 * math.pi * q.sigma[0, 0])
        mc = float(np.mean(logp - logq))
        assert kl_divergence(p, q) == pytest.approx(mc, abs=5e-3)

    def test_potentials_route_agrees(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            d = int(rng.integers(1, 6))
            p, q = random_gaussian(rng, d, 50), random_gaussian(rng, d, 50)
            assert abs(kl_divergence(p, q) - _potential_route_kl(p, q)) < 1e-10

    @settings(max_examples=40, deadline=None)
    @given(gaussian_pairs())
    def test_nonnegative(self, pair):
        p, q = pair
        assert kl_divergence(p, q) >= -1e-12

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(19)
        g = random_gaussian(rng, 3)
        near = MomentGaussian(g.mu + 1e-9, g.sigma)
        far = MomentGaussian(g.mu + 0.5, g.sigma)
        assert kl_divergence(g, near) < 1e-12
        assert kl_divergence(g, far) > 1e-6

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            kl_divergence(MomentGaussian([0.0], [[1.0]]), MomentGaussian([0.0, 0.0], np.eye(2)))


def test_pythagorean_relation():
    """Orthogonal e/m geodesic legs make the divergences additive.

    Build p_j, p_k freely, then choose p_i so that the m-chart leg
    (zeta_i - zeta_j) is orthogonal to the e-chart leg (xi_k - xi_j) under
    the flattened pairing; then KL(i||k) = KL(i||j) + KL(j||k).
    """
    rng = np.random.default_rng(23)
    for _ in range(10):
        d = int(rng.integers(1, 4))
        g_j = random_gaussian(rng, d, 10)
        g_k = random_gaussian(rng, d, 10)
        xi_j = gg.pack_natural(moment_to_natural(g_j))
        xi_k = gg.pack_natural(moment_to_natural(g_k))
        v_e = xi_k - xi_j
        # random symmetric m-direction, orthogonalized against v_e
        vec = rng.normal(size=d)
        mat = rng.normal(size=(d, d))
        u = gg.pack_coords(0.2 * vec, 0.1 * (mat + mat.T))
        u -= (u @ v_e) / (v_e @ v_e) * v_e
        zeta_j = pack_expectation(moment_to_expectation(g_j))
        for t in (0.2, 0.1, 0.05, 0.02, 0.01):
            try:
                g_i = expectation_to_moment(unpack_expectation(zeta_j + t * u, d))
                break
            except DecompositionError:
                continue
        else:
            continue
        lhs = kl_divergence(g_i, g_k)
        rhs = kl_divergence(g_i, g_j) + kl_divergence(g_j, g_k)
        assert abs(lhs - rhs) < 1e-8


class TestJitterPolicy:
    def test_small_deficit_repaired(self):
        # eigenvalue -1e-14 is inside the repair budget
        sigma = np.diag([1.0, 1.0, -1e-14])
        g = MomentGaussian([0.0, 0.0, 0.0], sigma)
        c = moment_to_natural(g)  # must not raise
        assert c.big_theta.shape == (3, 3)

    def test_large_deficit_rejected(self):
        sigma = np.diag([1.0, 1.0, -0.5])
        with pytest.raises(DecompositionError, match="sigma"):
            moment_to_natural(MomentGaussian([0.0, 0.0, 0.0], sigma))

    def test_asymmetric_rejected_at_construction(self):
        with pytest.raises(ValueError, match="symmetric"):
            MomentGaussian([0.0, 0.0], [[1.0, 0.5], [0.2, 1.0]])


class TestCholSolve:
    """`chol_solve` is `cho_solve((L, True), b)` to the bit, with its finiteness checks."""

    @staticmethod
    def _factor(d, seed=0):
        return chol_pd(spd_matrix(np.random.default_rng(seed), d), "A")

    @pytest.mark.parametrize("d", [1, 12, 60])
    @pytest.mark.parametrize("rhs_shape", [(), (7,), (1,)], ids=["vector", "matrix", "one-column"])
    def test_matches_cho_solve(self, d, rhs_shape):
        chol = self._factor(d)
        b = np.random.default_rng(1).normal(size=(d, *rhs_shape))
        x = chol_solve(chol, b)
        assert x.shape == b.shape
        assert np.array_equal(x, cho_solve((chol, True), b))

    @pytest.mark.parametrize("d", [1, 12, 60])
    def test_read_only_arguments(self, d):
        # as a PriorFactor holds its factor and K^-1 mu0
        chol = self._factor(d)
        b = np.random.default_rng(2).normal(size=d)
        chol.setflags(write=False)
        b.setflags(write=False)
        assert np.array_equal(chol_solve(chol, b), cho_solve((chol, True), b))

    @pytest.mark.parametrize("d", [1, 12, 60])
    def test_transposed_view_is_not_overwritten(self, d):
        # as exact_posterior passes k_cross.T
        chol = self._factor(d)
        k_cross = np.random.default_rng(3).normal(size=(5, d))
        kept = k_cross.copy()
        x = chol_solve(chol, k_cross.T)
        assert np.array_equal(x, cho_solve((chol, True), k_cross.T))
        assert np.array_equal(k_cross, kept)

    def test_empty_right_hand_side(self):
        chol = self._factor(4)
        assert chol_solve(chol, np.zeros((4, 0))).shape == (4, 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["factor", "rhs"])
    def test_non_finite_raises(self, bad, where):
        chol = self._factor(3)
        b = np.ones(3)
        (chol if where == "factor" else b)[1] = bad
        with pytest.raises(ValueError, match="finite"):
            chol_solve(chol, b)


class TestCheckSymmetry:
    """`_check_symmetry` returns 0.5 (A + A^T) as a new array; beyond 1e-12 relative it raises."""

    @staticmethod
    def _symmetric(d, seed=0):
        r = np.random.default_rng(seed).normal(size=(d, d))
        return r + r.T

    @pytest.mark.parametrize("d", [1, 12, 60])
    @pytest.mark.parametrize("layout", ["c", "fortran", "strided", "read-only"])
    def test_symmetric_input_comes_back_equal_in_a_new_array(self, d, layout):
        a = self._symmetric(d)
        if layout == "fortran":
            a = np.asfortranarray(a)
        elif layout == "strided":
            a = np.kron(a, np.ones((2, 2)))[::2, ::2]
        elif layout == "read-only":
            a.setflags(write=False)
        out = gg._check_symmetry(a, "A")
        assert np.array_equal(out, a) and np.array_equal(out, gg._sym(a))
        assert not np.shares_memory(out, a) and out.flags.writeable
        sigma = MomentGaussian(np.zeros(d), a).sigma
        assert np.array_equal(sigma, a) and not np.shares_memory(sigma, a)

    def test_facing_signed_zeros_are_averaged(self):
        # 0.0 == -0.0, but the averaged entries are +0.0 on both sides.
        a = np.array([[1.0, -0.0], [0.0, 1.0]])
        out = gg._check_symmetry(a, "A")
        assert not np.signbit(out).any()
        assert np.array_equal(np.signbit(out), np.signbit(gg._sym(a)))

    @pytest.mark.parametrize("d", [2, 12, 60])
    def test_asymmetry_within_tolerance_is_averaged(self, d):
        a = self._symmetric(d)
        a[0, -1] += 5e-13 * np.max(np.abs(a))
        out = gg._check_symmetry(a, "A")
        assert np.array_equal(out, 0.5 * (a + a.T)) and np.array_equal(out, out.T)
        assert not np.array_equal(out, a)

    @pytest.mark.parametrize("d", [2, 12, 60])
    def test_asymmetry_beyond_tolerance_raises(self, d):
        a = self._symmetric(d)
        a[0, -1] += 2e-12 * np.max(np.abs(a))
        with pytest.raises(ValueError, match="A is not symmetric"):
            gg._check_symmetry(a, "A")

    @pytest.mark.parametrize("where", [(1, 2), (2, 2)], ids=["off-diagonal", "diagonal"])
    @pytest.mark.parametrize("both", [False, True], ids=["one-side", "both-sides"])
    def test_nan_passes_through_to_the_average(self, where, both):
        a = self._symmetric(4)
        a[where] = np.nan
        if both:
            a[where[::-1]] = np.nan
        out = gg._check_symmetry(a, "A")
        np.testing.assert_array_equal(out, 0.5 * (a + a.T))
        assert np.isnan(out[where]) and np.isnan(out[where[::-1]])


class TestFlatHelpers:
    def test_pack_unpack_round_trip(self):
        rng = np.random.default_rng(2)
        g = random_gaussian(rng, 4)
        c = moment_to_natural(g)
        flat = gg.pack_natural(c)
        assert flat.shape == (4 + 16,)
        c2 = unpack_natural(flat, 4)
        np.testing.assert_array_equal(c2.theta, c.theta)
        np.testing.assert_allclose(c2.big_theta, c.big_theta)

    def test_dim_from_flat(self):
        for d in range(1, 9):
            assert gg.dim_from_flat(d + d * d) == d
        with pytest.raises(ValueError):
            gg.dim_from_flat(7)

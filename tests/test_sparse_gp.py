import numpy as np
import pytest

from gppca.gaussian_geometry import MomentGaussian, moment_to_natural
from gppca.kernels_gp import (
    GpPrior,
    KernelConfig,
    TaskData,
    exact_posterior,
    gp_predictive_batch,
    gram,
)
from gppca.sparse_gp import (
    InducingSet,
    grid_inducing,
    sparse_predictive_batch,
    variational_coords,
)
from oracles import kl_divergence, rho_prime_to_rho, rho_to_rho_prime, variational_posterior


def _prior(lengthscale=0.3, beta=20.0, mean=0.0):
    return GpPrior(kernel=KernelConfig(lengthscale=lengthscale), beta=beta, mean_fn=mean)


def _random_task(rng, n, lo=0.0, hi=1.0, task_id=0, spread=True):
    if spread:
        # keep points separated so gram matrices stay well conditioned
        x = np.sort(rng.uniform(lo, hi, n * 3))[::3][:n]
    else:
        x = rng.uniform(lo, hi, n)
    y = np.sin(2 * np.pi * x) + rng.normal(0, 0.2, n)
    return TaskData(x.reshape(-1, 1), y, task_id)


class TestInducingSet:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="coincide"):
            InducingSet([[0.1], [0.1]])
        with pytest.raises(ValueError, match="points 1 and 2 coincide"):
            InducingSet([[0.0], [0.5], [0.5 + 1e-13]])

    def test_grid_over_range(self):
        z = grid_inducing(np.array([[0.0], [2.0]]), 5)
        np.testing.assert_allclose(z.points[:, 0], [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_grid_over_two_columns_drops_repeated_rows(self):
        # Sorted, the rows are (0, 0) four times within 1e-12, then three distinct rows.
        rows = [[1.0, 1.0], [0.0, 0.0], [0.5, 0.5], [0.0, 0.0], [1e-13, 0.0], [0.25, 0.25], [0, 0]]
        z = grid_inducing(np.array(rows, dtype=float), 3)
        np.testing.assert_array_equal(z.points, [[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]])

    def test_grid_over_two_columns_returns_every_distinct_row_when_short(self):
        z = grid_inducing(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]), 5)
        np.testing.assert_array_equal(z.points, [[0.0, 1.0], [1.0, 0.0]])


class TestVariationalPosterior:
    def test_no_data_is_prior_in_rescaled_chart(self):
        prior = _prior()
        z = InducingSet([[0.0], [0.5], [1.0]])
        sp = variational_posterior(prior, TaskData(np.zeros((0, 1)), np.zeros(0), 0), z)
        k_mm = gram(prior.kernel, z.points, z.points)
        # Sigma' = K_mm^-1, so undoing the rescaling gives Sigma = K_mm
        back = rho_prime_to_rho(sp, z, prior.kernel)
        np.testing.assert_allclose(back.sigma, k_mm, atol=1e-8)
        np.testing.assert_allclose(back.mu, np.zeros(3), atol=1e-12)

    def test_single_datum_scalar(self):
        # A = 0.01 + 1 = 1.01: mu = 1/1.01, Sigma = 0.01/1.01
        prior = _prior(lengthscale=1.0, beta=100.0)
        z = InducingSet([[0.0]])
        sp = variational_posterior(prior, TaskData([[0.0]], [1.0], 0), z)
        back = rho_prime_to_rho(sp, z, prior.kernel)
        assert back.mu[0] == pytest.approx(1 / 1.01, abs=1e-10)
        assert back.sigma[0, 0] == pytest.approx(0.01 / 1.01, abs=1e-10)

    def test_exact_when_inducing_is_training(self):
        rng = np.random.default_rng(0)
        prior = _prior()
        for trial in range(5):
            task = _random_task(rng, 6, task_id=trial)
            z = InducingSet(task.inputs)
            sp = variational_posterior(prior, task, z)
            back = rho_prime_to_rho(sp, z, prior.kernel)
            ex = exact_posterior(prior, task, task.inputs)
            scale = max(np.max(np.abs(ex.sigma)), 1e-3)
            assert np.max(np.abs(back.mu - ex.mu)) < 1e-6 * max(np.max(np.abs(ex.mu)), 1.0)
            assert np.max(np.abs(back.sigma - ex.sigma)) < 1e-6 * scale

    def test_nonzero_prior_mean_exactness(self):
        rng = np.random.default_rng(8)
        prior = _prior(mean=1.7)
        task = _random_task(rng, 5)
        z = InducingSet(task.inputs)
        back = rho_prime_to_rho(variational_posterior(prior, task, z), z, prior.kernel)
        ex = exact_posterior(prior, task, task.inputs)
        np.testing.assert_allclose(back.mu, ex.mu, atol=1e-7)


class TestSparsePredictive:
    def test_prior_reproduction_at_inducing_point(self):
        prior = _prior(mean=0.8)
        z = InducingSet([[0.0], [0.5]])
        sp = variational_posterior(prior, TaskData(np.zeros((0, 1)), np.zeros(0), 0), z)
        means, variances = sparse_predictive_batch(prior, sp, z, [[0.5]])
        assert means[0] == pytest.approx(0.8, abs=1e-9)
        assert variances[0] == pytest.approx(1.0, abs=1e-7)

    def test_matches_exact_predictive(self):
        rng = np.random.default_rng(1)
        prior = _prior()
        task = _random_task(rng, 6)
        z = InducingSet(task.inputs)
        sp = variational_posterior(prior, task, z)
        test = rng.uniform(-0.2, 1.2, (25, 1))
        m1, v1 = sparse_predictive_batch(prior, sp, z, test)
        m2, v2 = gp_predictive_batch(prior, task, test)
        np.testing.assert_allclose(m1, m2, atol=1e-6)
        np.testing.assert_allclose(v1, v2, atol=1e-6)

    def test_far_field_returns_prior(self):
        rng = np.random.default_rng(2)
        prior = _prior(lengthscale=0.3, mean=-0.4)
        task = _random_task(rng, 5)
        z = InducingSet(np.linspace(0, 1, 6).reshape(-1, 1))
        sp = variational_posterior(prior, task, z)
        means, variances = sparse_predictive_batch(prior, sp, z, [[25.0]])
        assert means[0] == pytest.approx(-0.4, abs=1e-6)
        assert variances[0] == pytest.approx(1.0, abs=1e-6)


class TestRescalingChart:
    def test_identity_when_kmm_is_one(self):
        cfg = KernelConfig(lengthscale=1.0)
        z = InducingSet([[0.0]])
        sp = MomentGaussian([0.7], [[0.2]])
        back = rho_prime_to_rho(sp, z, cfg)
        assert back.mu[0] == pytest.approx(0.7)
        assert back.sigma[0, 0] == pytest.approx(0.2)

    def test_round_trip(self):
        # lengthscale matched to the grid spacing keeps K_mm well conditioned
        rng = np.random.default_rng(3)
        cfg = KernelConfig(lengthscale=0.15)
        z = InducingSet(np.linspace(0, 1, 6).reshape(-1, 1))
        a = rng.normal(size=(6, 6))
        g = MomentGaussian(rng.normal(size=6), a @ a.T + 6 * np.eye(6))
        sp = rho_to_rho_prime(g, z, cfg)
        back = rho_prime_to_rho(sp, z, cfg)
        np.testing.assert_allclose(back.mu, g.mu, rtol=1e-8, atol=1e-8)
        np.testing.assert_allclose(back.sigma, g.sigma, rtol=1e-8, atol=1e-8)

    def test_kl_invariance(self):
        # the rescaling is an invertible linear map of the variable, so KL
        # between any two posteriors is chart-independent
        rng = np.random.default_rng(4)
        prior = _prior()
        z = InducingSet(np.linspace(0.05, 0.95, 5).reshape(-1, 1))
        for _ in range(50):
            t1 = _random_task(rng, 4, task_id=1, spread=False)
            t2 = _random_task(rng, 4, task_id=2, spread=False)
            sp1 = variational_posterior(prior, t1, z)
            sp2 = variational_posterior(prior, t2, z)
            kl_prime = kl_divergence(sp1, sp2)
            kl_orig = kl_divergence(
                rho_prime_to_rho(sp1, z, prior.kernel),
                rho_prime_to_rho(sp2, z, prior.kernel),
            )
            assert abs(kl_prime - kl_orig) < 1e-8 * max(1.0, kl_orig)

    def test_natural_coordinate_transport(self):
        # theta = K_mm^-1 theta', Theta = K_mm^-1 Theta' K_mm^-1 at zero mean
        rng = np.random.default_rng(5)
        prior = _prior()
        z = InducingSet(np.linspace(0.05, 0.95, 5).reshape(-1, 1))
        task = _random_task(rng, 4)
        sp = variational_posterior(prior, task, z)
        nat_prime = moment_to_natural(sp)
        nat = moment_to_natural(rho_prime_to_rho(sp, z, prior.kernel))
        k_mm = gram(prior.kernel, z.points, z.points)
        k_inv = np.linalg.inv(k_mm)
        np.testing.assert_allclose(nat.theta, k_inv @ nat_prime.theta, rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(
            nat.big_theta, k_inv @ nat_prime.big_theta @ k_inv, rtol=1e-6, atol=1e-8
        )


class TestVariationalCoords:
    def test_empty_task_gives_the_prior(self):
        # No data: A = K / beta, so theta' = beta A K^-1 mu0 and Theta' = -K / 2.
        prior = _prior(mean=0.7)
        points = np.linspace(0.0, 1.0, 4)
        z = InducingSet(points.reshape(-1, 1))
        nat, _ = variational_coords(prior, TaskData(np.zeros((0, 1)), np.zeros(0), 3), z)
        k = np.exp(-np.subtract.outer(points, points) ** 2 / (2 * 0.3**2))
        a = k / prior.beta
        theta = prior.beta * a @ np.linalg.solve(k, np.full(4, 0.7))
        np.testing.assert_allclose(nat.theta, theta, rtol=1e-10, atol=0)
        np.testing.assert_allclose(nat.big_theta, -0.5 * k, rtol=1e-14, atol=0)

    def test_agrees_with_generic_conversion(self):
        rng = np.random.default_rng(6)
        prior = _prior()
        z = InducingSet(np.linspace(0.0, 1.0, 5).reshape(-1, 1))
        task = _random_task(rng, 5)
        nat, _ = variational_coords(prior, task, z)
        sp = variational_posterior(prior, task, z)
        nat2 = moment_to_natural(sp)
        scale = max(np.max(np.abs(nat2.big_theta)), 1.0)
        assert np.max(np.abs(nat.big_theta - nat2.big_theta)) < 1e-7 * scale
        assert np.max(np.abs(nat.theta - nat2.theta)) < 1e-7 * max(np.max(np.abs(nat2.theta)), 1.0)

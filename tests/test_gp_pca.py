import copy
import dataclasses
import functools
import math
import pickle

import numpy as np
import pytest
from scipy.linalg import lapack

from gppca import epca, evaluation, gp_pca, kernels_gp, sparse_gp
from gppca import gaussian_geometry as gg
from gppca.datasets import ArtificialConfig, gen_artificial
from gppca.epca import ConvergenceError, FitOptions, ValidityError
from gppca.gaussian_geometry import moment_to_natural, natural_to_moment
from gppca.kernels_gp import (
    GpPrior,
    KernelConfig,
    TaskData,
    exact_posterior,
    gp_predictive_batch,
    gram,
    union_inputs,
)
from gppca.sparse_gp import InducingSet, grid_inducing
import oracles
from oracles import (
    expectation_to_moment,
    joint_posterior_coords,
    kl_divergence,
    moment_to_expectation,
    pack_expectation,
    unpack_expectation,
)
from helpers import (
    inverse_floor, kl_objective, solve_backward_error, solve_mean_floor, transposed_inverse,
)

EPS = np.finfo(float).eps


def _prior(lengthscale=0.4, beta=20.0, mean=0.0):
    return GpPrior(kernel=KernelConfig(lengthscale=lengthscale), beta=beta, mean_fn=mean)


def _toy_tasks():
    return [
        TaskData([[0.1], [0.4]], [0.8, 0.3], 0),
        TaskData([[0.4], [0.7]], [0.1, -0.5], 1),
        TaskData([[0.1], [0.9]], [1.0, 0.4], 2),
    ]


TIGHT = FitOptions(max_iters=20_000, rel_tol=1e-13)


class TestTrain:
    def test_two_identical_tasks_offset_only(self):
        prior = _prior()
        t = TaskData([[0.2], [0.6]], [0.5, -0.2], 0)
        t2 = TaskData([[0.2], [0.6]], [0.5, -0.2], 1)
        model = gp_pca.train([t, t2], prior, 0, mode="exact", opts=TIGHT)
        assert model.fit_result.objective < 1e-10
        rho = exact_posterior(prior, t, model.anchor)
        np.testing.assert_allclose(
            model.subspace.u0, gg.pack_natural(moment_to_natural(rho)), rtol=1e-5, atol=1e-6
        )

    def test_validation(self):
        prior = _prior()
        with pytest.raises(ValueError, match="two tasks"):
            gp_pca.train(_toy_tasks()[:1], prior, 0)
        with pytest.raises(ValueError, match="latent dimension"):
            gp_pca.train(_toy_tasks(), prior, 3)
        for latent_dim in (1.5, True):
            with pytest.raises(ValueError, match=f"^latent_dim must be an integer .* got {latent_dim}$"):
                gp_pca.train(_toy_tasks(), prior, latent_dim)
        with pytest.raises(ValueError, match="inducing"):
            gp_pca.train(_toy_tasks(), prior, 1, mode="sparse")

    def test_exact_mode_refuses_an_inducing_set(self):
        # Exact mode anchors on the input union; an inducing set was once left unused.
        prior, tasks = _prior(), _toy_tasks()
        inducing = InducingSet(np.linspace(0.0, 1.0, 4).reshape(-1, 1))
        with pytest.raises(ValueError, match="mode='exact'.*inducing=None"):
            gp_pca.task_coordinates(tasks, prior, "exact", inducing)
        with pytest.raises(ValueError, match="mode='exact'.*inducing=None"):
            gp_pca.train(tasks, prior, 1, mode="exact", inducing=inducing)

    def test_exact_vs_sparse_full_union(self):
        # inducing = full union makes the sparse chart an isometric copy
        prior = _prior()
        tasks = _toy_tasks()
        anchor = union_inputs(tasks)
        exact = gp_pca.train(tasks, prior, 1, mode="exact", opts=TIGHT)
        sparse = gp_pca.train(
            tasks, prior, 1, mode="sparse", opts=TIGHT, inducing=InducingSet(anchor)
        )
        e1, e2 = exact.fit_result.objective, sparse.fit_result.objective
        assert abs(e1 - e2) / max(e1, 1e-12) < 1e-4

    def test_stored_objective_matches_recompute(self):
        prior = _prior()
        tasks = _toy_tasks()
        model = gp_pca.train(tasks, prior, 1, mode="exact", opts=TIGHT)
        coords, _ = gp_pca.task_coordinates(tasks, prior, "exact")
        assert kl_objective(model.weights, model.subspace, coords) == model.fit_result.objective

    def test_deterministic(self):
        prior = _prior()
        m1 = gp_pca.train(_toy_tasks(), prior, 1, mode="exact", opts=TIGHT)
        m2 = gp_pca.train(_toy_tasks(), prior, 1, mode="exact", opts=TIGHT)
        np.testing.assert_array_equal(m1.weights, m2.weights)
        np.testing.assert_array_equal(m1.subspace.u0, m2.subspace.u0)


class TestPredict:
    def test_lossless_span_matches_own_posterior(self):
        # latent_dim = I - 1 reproduces each task's own predictive
        rng = np.random.default_rng(0)
        prior = _prior()
        tasks = _toy_tasks()
        model = gp_pca.train(tasks, prior, 2, mode="exact", opts=TIGHT)
        test = rng.uniform(0, 1, (20, 1))
        for i, task in enumerate(tasks):
            rho = exact_posterior(prior, task, model.anchor)
            from gppca.kernels_gp import predictive_batch

            m_ref, v_ref = predictive_batch(prior, rho, model.anchor, test)
            m_hat, v_hat = gp_pca.predict_batch(model, i, test)
            np.testing.assert_allclose(m_hat, m_ref, atol=1e-6)
            np.testing.assert_allclose(v_hat, v_ref, atol=1e-6)

    def test_exactly_on_subspace_matches_plain_gp(self):
        # subspace through the task's own coordinates: prediction == plain GP
        prior = _prior()
        task = TaskData([[0.2], [0.5], [0.8]], [0.4, -0.1, 0.3], 0)
        anchor = task.inputs
        rho = exact_posterior(prior, task, anchor)
        u0 = gg.pack_natural(moment_to_natural(rho))
        model = gp_pca.GpPcaModel(
            prior=prior,
            anchor=anchor,
            subspace=epca.Subspace(u0=u0, basis=np.zeros((0, u0.shape[0]))),
            weights=np.zeros((1, 0)),
            mode="exact",
        )
        grid = np.linspace(-0.1, 1.1, 15).reshape(-1, 1)
        m_hat, v_hat = gp_pca.predict_batch(model, 0, grid)
        m_ref, v_ref = gp_predictive_batch(prior, task, grid)
        np.testing.assert_allclose(m_hat, m_ref, atol=1e-8)
        np.testing.assert_allclose(v_hat, v_ref, atol=1e-8)

    def test_zero_weights_is_offset_prediction(self):
        prior = _prior()
        model = gp_pca.train(_toy_tasks(), prior, 1, mode="exact", opts=TIGHT)
        rho0 = natural_to_moment(oracles.unpack_natural(model.subspace.u0, model.anchor.shape[0]))
        from gppca.kernels_gp import predictive_batch

        m_ref, v_ref = predictive_batch(prior, rho0, model.anchor, [[0.33]])
        means, variances = gp_pca.predict_batch(model, np.zeros(1), [[0.33]])
        assert means[0] == pytest.approx(m_ref[0], abs=1e-10)
        assert variances[0] == pytest.approx(v_ref[0], abs=1e-10)

    def test_far_field_mean_reverts_to_prior(self):
        prior = _prior(mean=0.7)
        model = gp_pca.train(_toy_tasks(), prior, 1, mode="exact", opts=TIGHT)
        means, _ = gp_pca.predict_batch(model, 0, [[40.0]])
        assert means[0] == pytest.approx(0.7, abs=1e-6)

    def test_prediction_at_anchor_matches_reconstruction(self):
        prior = _prior()
        model = gp_pca.train(_toy_tasks(), prior, 1, mode="exact", opts=TIGHT)
        flat = epca.reconstruct(model.weights[1], model.subspace)
        rho_hat = natural_to_moment(oracles.unpack_natural(flat, model.anchor.shape[0]))
        means, variances = gp_pca.predict_batch(model, 1, model.anchor)
        np.testing.assert_allclose(means, rho_hat.mu, atol=1e-8)
        np.testing.assert_allclose(variances, np.diag(rho_hat.sigma), atol=1e-8)

    def test_reconstruction_off_the_cone_names_the_weights(self):
        # The basis direction lowers -2 Theta by 2 I per unit weight, so w = 1000
        # takes it far below zero.
        prior = _prior()
        task = _toy_tasks()[0]
        u0 = gg.pack_natural(moment_to_natural(exact_posterior(prior, task, task.inputs)))
        d = len(task)
        direction = gg.pack_natural(gg.NaturalCoord(theta=np.zeros(d), big_theta=np.eye(d)))
        model = gp_pca.GpPcaModel(
            prior=prior,
            anchor=task.inputs,
            subspace=epca.Subspace(u0=u0, basis=direction[None, :]),
            weights=np.array([[1000.0]]),
            mode="exact",
        )
        with pytest.raises(ValidityError, match=r"reconstruction at weights \[1000\.\] violates"):
            gp_pca.predict_batch(model, 0, [[0.5]])
        with pytest.raises(ValidityError, match=r"weights \[2000\.\]"):
            gp_pca.predict_batch(model, np.array([2000.0]), [[0.5]])

    def test_bad_weight_length(self):
        prior = _prior()
        model = gp_pca.train(_toy_tasks(), prior, 1, mode="exact", opts=TIGHT)
        with pytest.raises(ValueError, match="weight length 2 != latent dim 1"):
            gp_pca.predict_batch(model, np.zeros(2), [[0.1]])
        with pytest.raises(IndexError):
            gp_pca.predict_batch(model, 7, [[0.1]])
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=r"weights must be finite, got \[(nan|-?inf)\]"):
                gp_pca.predict_batch(model, [bad], [[0.1]])

    @pytest.mark.parametrize("mode", ["exact", "sparse"])
    def test_calls_its_predictive_function_through_gp_pca(self, mode, monkeypatch):
        # The benchmark's tracer times predictions by wrapping these two attributes of gp_pca.
        model, data = _artificial_model(mode)
        calls = {"predictive_batch": 0, "sparse_predictive_batch": 0}
        for name in calls:

            def counting(*args, name=name, original=getattr(gp_pca, name)):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(gp_pca, name, counting)
        for i, ev in enumerate(data.train_eval):
            gp_pca.predict_batch(model, i, ev.inputs)
        used = "predictive_batch" if mode == "exact" else "sparse_predictive_batch"
        assert calls == {name: model.num_tasks if name == used else 0 for name in calls}

    def test_booleans_are_refused(self):
        # True would predict task 1 as an index, np.True_ at w = 1.0 as a weight.
        model = gp_pca.train(_toy_tasks(), _prior(), 1, mode="exact", opts=TIGHT)
        for bad in (True, False, np.True_, np.False_, [True], np.array([False])):
            with pytest.raises(TypeError, match="boolean"):
                gp_pca.predict_batch(model, bad, [[0.1]])


class TestModelShape:
    """The subspace alone fixes the model's latent and flat dimensions."""

    @staticmethod
    def _subspace(prior, task, latent_dim):
        u0 = gg.pack_natural(moment_to_natural(exact_posterior(prior, task, task.inputs)))
        return epca.Subspace(u0=u0, basis=np.zeros((latent_dim, u0.shape[0])))

    def test_latent_dim_is_read_from_the_subspace(self):
        prior, task = _prior(), _toy_tasks()[0]
        model = gp_pca.GpPcaModel(
            prior=prior, anchor=task.inputs, subspace=self._subspace(prior, task, 2),
            weights=np.zeros((1, 2)), mode="exact",
        )
        assert model.latent_dim == 2
        assert "latent_dim" not in {f.name for f in dataclasses.fields(model)}

    def test_weights_of_another_width_are_rejected(self):
        prior, task = _prior(), _toy_tasks()[0]
        with pytest.raises(ValueError, match=r"weights shape \(1, 1\) does not match latent dim 2"):
            gp_pca.GpPcaModel(
                prior=prior, anchor=task.inputs, subspace=self._subspace(prior, task, 2),
                weights=np.zeros((1, 1)), mode="exact",
            )

    def test_anchor_of_another_size_is_rejected(self):
        prior, task = _prior(), _toy_tasks()[0]
        extra = np.vstack([task.inputs, [[0.95]]])
        with pytest.raises(
            ValueError, match=r"subspace flat dim 6 does not match 3 anchor points \(flat dim 12\)"
        ):
            gp_pca.GpPcaModel(
                prior=prior, anchor=extra, subspace=self._subspace(prior, task, 1),
                weights=np.zeros((1, 1)), mode="exact",
            )

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    @pytest.mark.parametrize("name", ["weights", "u0", "basis"])
    def test_non_finite_entries_are_rejected(self, name, value):
        prior, task = _prior(), _toy_tasks()[0]
        subspace = self._subspace(prior, task, 1)
        fields = {"weights": np.zeros((2, 1)), "u0": subspace.u0.copy(), "basis": subspace.basis.copy()}
        fields[name][-1, ...] = value
        with pytest.raises(ValueError, match=rf"^model field '{name}' must be finite, got {value} at \["):
            gp_pca.GpPcaModel(
                prior=prior, anchor=task.inputs, subspace=epca.Subspace(fields["u0"], fields["basis"]),
                weights=fields["weights"], mode="exact",
            )

    def test_adapted_task_with_a_non_finite_weight_is_rejected(self, tmp_path):
        prior, task = _prior(), _toy_tasks()[0]
        model = gp_pca.GpPcaModel(
            prior=prior, anchor=task.inputs, subspace=self._subspace(prior, task, 1),
            weights=np.zeros((1, 1)), mode="exact",
        )
        with pytest.raises(ValueError, match=r"^model field 'weights' must be finite, got nan at \[1, 0\]$"):
            gp_pca.with_extra_task(model, [np.nan])
        # A file is strict JSON: a value that got past the constructor is not written as NaN.
        model.weights[0, 0] = np.nan
        with pytest.raises(ValueError, match="not JSON compliant"):
            gp_pca.save_model(model, tmp_path / "model.json")


class TestAdapt:
    def test_full_data_recovers_trained_weight(self):
        prior = _prior()
        tasks = _toy_tasks()
        model = gp_pca.train(tasks, prior, 1, mode="exact", opts=TIGHT)
        for i, task in enumerate(tasks):
            w = gp_pca.adapt_new_task(model, task, FitOptions(rel_tol=1e-12, max_iters=40_000))
            assert np.max(np.abs(w - model.weights[i])) < 1e-3

    def test_empty_subspace_returns_empty(self):
        prior = _prior()
        model = gp_pca.train(_toy_tasks(), prior, 0, mode="exact", opts=TIGHT)
        w = gp_pca.adapt_new_task(model, _toy_tasks()[0], FitOptions())
        assert w.shape == (0,)

    def test_empty_fewshot_rejected(self):
        prior = _prior()
        model = gp_pca.train(_toy_tasks(), prior, 1, mode="exact", opts=TIGHT)
        with pytest.raises(ValueError):
            gp_pca.adapt_new_task(model, TaskData(np.zeros((0, 1)), np.zeros(0), 9))

    def test_sparse_mode_adaptation(self):
        prior = _prior()
        tasks = _toy_tasks()
        anchor = union_inputs(tasks)
        model = gp_pca.train(
            tasks, prior, 1, mode="sparse", opts=TIGHT, inducing=InducingSet(anchor)
        )
        w = gp_pca.adapt_new_task(model, tasks[2], FitOptions(rel_tol=1e-12, max_iters=40_000))
        assert np.max(np.abs(w - model.weights[2])) < 1e-3

    def test_sparse_point_off_the_cone_is_refused_as_input(self):
        # At beta = 1e12, A = K_mm / beta + K_mn K_mn^T is singular to working precision.
        # The point is factored strictly where the projection first reads it.
        z = InducingSet(np.linspace(0.0, 1.0, 8).reshape(-1, 1))
        d = len(z)
        model = gp_pca.GpPcaModel(
            prior=_prior(lengthscale=0.5, beta=1e12),
            anchor=z,
            subspace=epca.Subspace(
                u0=gg.pack_coords(np.zeros(d), -0.5 * np.eye(d)), basis=np.eye(1, d + d * d)
            ),
            weights=np.zeros((1, 1)),
            mode="sparse",
        )
        with pytest.raises(ValidityError, match="^input point 0 is not a valid Gaussian") as err:
            gp_pca.adapt_new_task(model, TaskData([[0.3]], [1.0]))
        assert err.value.data

    def test_sparse_task_point_is_the_per_call_point_unfactored(self, monkeypatch):
        # The flat point is built directly, without a NaturalCoord round trip, and
        # nothing is factored: epca checks the point when it fits or projects it.
        model, data = _artificial_model("sparse")
        toy = _toy_tasks()
        cases = [(model.prior, model.anchor_set, data.new_tasks),
                 (_prior(), InducingSet(union_inputs(toy)), toy)]
        cholesky, factorizations = np.linalg.cholesky, []

        def counting(a):
            factorizations.append(a)
            return cholesky(a)

        for prior, anchor, tasks in cases:
            anchor.factor(prior)
            for task in tasks:
                monkeypatch.setattr(np.linalg, "cholesky", counting)
                point = gp_pca._task_point(prior, task, anchor, "sparse")
                nat, flat = sparse_gp.variational_coords(prior, task, anchor)
                monkeypatch.setattr(np.linalg, "cholesky", cholesky)
                assert not factorizations
                want = gg.pack_natural(oracles.variational_coords_per_call(prior, task, anchor))
                assert np.array_equal(point, want) and np.array_equal(flat, want)
                assert np.shares_memory(nat.theta, flat) and np.shares_memory(nat.big_theta, flat)
                assert np.array_equal(gg.pack_natural(nat), want)


def _artificial_model(mode, latent_dim=1):
    """A small artificial problem at the evaluation protocol's prior, with its held-out tasks."""
    data = gen_artificial(
        ArtificialConfig(num_tasks=6, samples_per_task=5, num_new_tasks=4, eval_points_per_task=30, seed=2)
    )
    prior = _prior(lengthscale=0.2, beta=25.0)
    inducing = None
    if mode == "sparse":
        inducing = grid_inducing(np.vstack([t.inputs for t in data.train_tasks]), 12)
    model = gp_pca.train(
        data.train_tasks, prior, latent_dim, mode=mode, opts=FitOptions(max_iters=200), inducing=inducing
    )
    return model, data


def _cond(flat, d):
    return np.linalg.cond(-2.0 * oracles.unpack_natural(flat, d).big_theta)


def _assert_at_line_minimum(model, point, w, opts):
    """KL(point || u0 + w u1) is within the float64 floor plus 1e-3 rel_tol of its line minimum.

    The minimum comes from the bounded search over the exact cone interval
    with per-call KL (`oracles.line_minimum`); the floor is EPS kappa
    max(1, KL), kappa the worst cond(-2 Theta) of the point, the
    reconstruction at w and that at the minimum, as in the benchmark's
    adaptation check. A projection stops once its Newton decrement is at
    most 1e-3 rel_tol nats.
    """
    w_star, kl_star = oracles.line_minimum(point, model.subspace, float(w[0]))
    _assert_within_the_floor(model, point, w, [w_star], kl_star, opts)


def _assert_at_subspace_minimum(model, point, w, opts):
    """As `_assert_at_line_minimum` for any latent dimension, against `oracles.subspace_minimum`."""
    w_star, kl_star = oracles.subspace_minimum(point, model.subspace, w)
    _assert_within_the_floor(model, point, w, w_star, kl_star, opts)


def _assert_within_the_floor(model, point, w, w_star, kl_star, opts):
    d = len(model.anchor)
    kl = oracles.kl_over_subspace(point, model.subspace)(w)
    kappa = max(_cond(point, d), *(_cond(epca.reconstruct(v, model.subspace), d) for v in (w, w_star)))
    gap = kl - kl_star
    assert gap <= (EPS * kappa + 1e-3 * opts.rel_tol) * max(1.0, kl), (w, w_star, gap)


def _variance_floor(model, w, x):
    """Bound per test point on |`predict_batch` - a route from the chain's Sigma| variances.

    `predict_batch` takes Sigma from the triangular inverse of -2 Theta's
    factor; `oracles.reconstructed_moments` takes it from the chain's solve
    against I. The two differ entrywise by at most `inverse_floor`, which
    moves v^T Sigma v by at most |v|^T `inverse_floor` |v|, with v = K^-1 k
    (exact) or k_m (sparse). On top of that, a route may round differently.
    Exact: the order of the sums of w^T (Sigma - K) w adds at most
    2 n EPS (1 + |w|^T |Sigma - K| |w|), and the routes take w = K^-1 k apart:
    `predict_batch` as L^-T (L^-1 k) from the triangular inverse of K's
    Cholesky factor L, the per-call route by solves against L. Each w is,
    to first order, the exact (K + dK)^-1 k, which moves the variance by
    -2 w^T dK z, z = K^-1 (Sigma - K) w. A solve has |dK| <= gamma_{3n+1}
    |L| |L^T| (`solve_backward_error`). The computed inverse X of L has a
    residual F = X L - I within n u |X| |L| (Higham 2002, sec. 14.2; u = EPS / 2),
    so X^T X is the exact inverse of L (I + F)^-1 (I + F)^-T L^T = K + dK with
    |dK| <= |L| (|F| + |F|^T) |L^T| <= n u |L| (G + G^T) |L^T|, G = |X| |L|.
    Its two products add at most
    n EPS (|k|^T |X|^T |X (Sigma - K) w| + |X k|^T |X| |(Sigma - K) w|).
    Sparse: the routes differ only in K^-1 k_m (K^-1 formed once against a
    solve per call), bounded by EPS * cond(K) * (1 + sum |k_m * K^-1 k_m|),
    and in the order of the sums of k_m^T Sigma' k_m, bounded by
    2 m EPS |k_m|^T |Sigma'| |k_m|.
    """
    k = gram(model.prior.kernel, model.anchor, model.anchor)
    k_cross = gram(model.prior.kernel, model.anchor, x)
    nat = oracles.unpack_natural(epca.reconstruct(w, model.subspace), model.anchor.shape[0])
    sigma = natural_to_moment(nat).sigma
    sigma_floor = inverse_floor(-2.0 * nat.big_theta)
    if model.mode == "sparse":
        kinv_k = np.linalg.solve(k, k_cross)
        quad = np.sum(np.abs(k_cross) * (np.abs(sigma) @ np.abs(k_cross)), axis=0)
        solve = 1.0 + np.sum(np.abs(k_cross * kinv_k), axis=0)
        inverse = np.sum(np.abs(k_cross) * (sigma_floor @ np.abs(k_cross)), axis=0)
        return EPS * (np.linalg.cond(k) * solve + 2 * len(k) * quad) + inverse
    chol = model.anchor_set.factor(model.prior).chol
    kinv_k = gg.chol_solve(chol, k_cross)
    abs_w = np.abs(kinv_k)
    scale = 1.0 + np.sum(abs_w * (np.abs(sigma - k) @ abs_w), axis=0)
    inverse = np.sum(abs_w * (sigma_floor @ abs_w), axis=0)
    mw = (sigma - k) @ kinv_k
    x_inv = np.linalg.inv(chol)
    abs_l, abs_x = np.abs(chol), np.abs(x_inv)
    g = abs_x @ abs_l
    d_k = solve_backward_error(chol) + len(k) * EPS / 2 * (abs_l @ (g + g.T) @ abs_l.T)
    moved = 2 * np.sum(abs_w * (d_k @ np.abs(gg.chol_solve(chol, mw))), axis=0)
    products = np.sum(np.abs(k_cross) * (abs_x.T @ np.abs(x_inv @ mw)), axis=0) + np.sum(
        np.abs(x_inv @ k_cross) * (abs_x @ np.abs(mw)), axis=0
    )
    return 2 * len(k) * EPS * scale + inverse + moved + len(k) * EPS * products


def _swapped_variances(model, w, x):
    """Variances from the chain's moments at `w` with Sigma = R R^T (`transposed_inverse`),
    a wrong Sigma that `_variance_floor` must reject."""
    rho = oracles.reconstructed_moments(model, w)
    _, big_theta = oracles.unpack_coords(epca.reconstruct(w, model.subspace), len(model.anchor))
    swapped = gg.MomentGaussian(rho.mu, transposed_inverse(-2.0 * big_theta))
    predictive = gp_pca.predictive_batch if model.mode == "exact" else gp_pca.sparse_predictive_batch
    return predictive(model.prior, swapped, model.anchor_set, x)[1]


class TestAnchorFactor:
    @pytest.mark.parametrize("mode", ["exact", "sparse"])
    def test_matches_per_call_route(self, mode):
        model, data = _artificial_model(mode)
        adapt_opts = FitOptions(rel_tol=1e-6, max_iters=20_000)
        adapted = [gp_pca.adapt_new_task(model, task, adapt_opts) for task in data.new_tasks]
        factor = model.anchor_set.factor(model.prior)
        for task in [*data.train_tasks, *data.new_tasks]:
            point = gp_pca._task_point(model.prior, task, model.anchor_set, model.mode)
            assert np.array_equal(point, oracles.task_point_per_call(model, task))
        for task, w in zip(data.new_tasks, adapted):
            _assert_at_line_minimum(model, oracles.task_point_per_call(model, task), w, adapt_opts)
        weights = [*model.weights, *adapted]
        dense = np.linspace(-0.1, 1.1, 1_200).reshape(-1, 1)  # as many points as a vdp call
        for w, ev in zip(weights, [*data.train_eval, *data.new_eval]):
            for x in (ev.inputs, dense):
                means, variances = gp_pca.predict_batch(model, w, x)
                ref_means, ref_variances = oracles.predict_batch_per_call(model, w, x)
                floor = _variance_floor(model, w, x)
                assert np.all(np.abs(variances - ref_variances) <= floor)
                assert np.any(np.abs(_swapped_variances(model, w, x) - ref_variances) > floor)
                if mode == "sparse":
                    assert np.array_equal(means, ref_means)
                    continue
                # Exact means take k^T K^-1 r from a vector solve, the per-call route
                # (K^-1 k)^T r from a matrix solve; the prior mean is 0, so both add nothing.
                # The chain's mu is bit for bit the one `predict_batch` reconstructs.
                k = gram(model.prior.kernel, model.anchor, x)
                r = oracles.reconstructed_moments(model, w).mu - factor.mean
                mean_floor = solve_mean_floor(factor.chol, k, r)
                assert np.all(np.abs(means - ref_means) <= mean_floor)
                kinv_means = (factor.kinv @ k).T @ r
                assert np.any(np.abs(kinv_means - ref_means) > mean_floor)

    @pytest.mark.parametrize("mode", ["exact", "sparse"])
    def test_anchor_factored_once_per_model(self, mode, monkeypatch):
        data = gen_artificial(
            ArtificialConfig(num_tasks=4, samples_per_task=4, num_new_tasks=5, eval_points_per_task=20)
        )
        prior = _prior(lengthscale=0.2, beta=25.0)
        inducing = grid_inducing(np.vstack([t.inputs for t in data.train_tasks]), 8)
        anchor = union_inputs(data.train_tasks) if mode == "exact" else inducing.points
        k_anchor = gram(prior.kernel, anchor, anchor)
        calls = {"gram": 0, "chol_pd": 0}

        def counting_gram(cfg, a, b):
            if np.array_equal(a, anchor) and np.array_equal(b, anchor):
                calls["gram"] += 1
            return gram(cfg, a, b)

        def counting_chol_pd(a, name):
            if np.array_equal(a, k_anchor):
                calls["chol_pd"] += 1
            return gg.chol_pd(a, name)

        for module in (kernels_gp, sparse_gp, gp_pca):  # every module that calls them
            for name, counting in (("gram", counting_gram), ("chol_pd", counting_chol_pd)):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting)
        model = gp_pca.train(
            data.train_tasks, prior, 1, mode=mode, opts=FitOptions(max_iters=50),
            inducing=inducing if mode == "sparse" else None,
        )
        for _ in range(5):
            for i, ev in enumerate(data.train_eval):
                gp_pca.predict_batch(model, i, ev.inputs)
        for task, ev in zip(data.new_tasks, data.new_eval):
            w = gp_pca.adapt_new_task(model, task, FitOptions(rel_tol=1e-6, max_iters=20_000))
            gp_pca.predict_batch(model, w, ev.inputs)
        assert calls == {"gram": 1, "chol_pd": 1}

    @pytest.mark.parametrize("mode", ["exact", "sparse"])
    def test_kinv_is_computed_once_and_only_for_sparse_predictions(self, mode, monkeypatch):
        model, data = _artificial_model(mode)
        factor = model.anchor_set.factor(model.prior)
        inversions = []

        def counting_chol_solve(chol, b):
            if chol is factor.chol and np.array_equal(b, np.eye(len(factor.mean))):
                inversions.append(b)
            return gg.chol_solve(chol, b)

        monkeypatch.setattr(kernels_gp, "chol_solve", counting_chol_solve)
        for _ in range(3):
            for i, ev in enumerate(data.train_eval):
                gp_pca.predict_batch(model, i, ev.inputs)
            gp_pca.predict_batch(model, np.zeros(model.latent_dim), data.new_eval[0].inputs)
        if mode == "exact":
            assert inversions == [] and "kinv" not in vars(factor)
            return
        kinv = factor.kinv
        assert len(inversions) == 1  # the read above inverted nothing more
        assert np.array_equal(kinv, kinv.T) and not kinv.flags.writeable
        np.testing.assert_allclose(
            kinv, np.linalg.inv(factor.gram), rtol=1e-6, atol=1e-6 * np.abs(kinv).max()
        )

    def test_exact_prediction_solves_one_vector_and_inverts_the_factor_once(self, monkeypatch):
        model, data = _artificial_model("exact")
        factor = model.anchor_set.factor(model.prior)
        solves, inversions = [], []

        def counting_chol_solve(chol, b):
            solves.append(np.shape(b))
            return gg.chol_solve(chol, b)

        def counting_dtrtri(c, *args, **kwargs):
            if np.array_equal(c, factor.chol):
                inversions.append(c)
            return dtrtri(c, *args, **kwargs)

        def no_kinv(_):
            raise AssertionError("an exact prediction read PriorFactor.kinv")

        dtrtri = lapack.dtrtri
        monkeypatch.setattr(kernels_gp, "chol_solve", counting_chol_solve)
        monkeypatch.setattr(lapack, "dtrtri", counting_dtrtri)
        monkeypatch.setattr(kernels_gp.PriorFactor, "kinv", property(no_kinv))
        gp_pca.predict_batch(model, 0, data.train_eval[0].inputs)
        assert solves == [(len(model.anchor),)]  # the means' one vector solve
        chol_inv = factor.chol_inv
        for _ in range(3):
            for i, ev in enumerate(data.train_eval):
                gp_pca.predict_batch(model, i, ev.inputs)
        assert len(inversions) == 1 and factor.chol_inv is chol_inv
        assert not chol_inv.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            chol_inv[0, 0] = 1.0
        assert np.array_equal(np.tril(chol_inv), chol_inv)
        np.testing.assert_allclose(chol_inv @ factor.chol, np.eye(len(model.anchor)), atol=1e-8)

    @pytest.mark.parametrize("mode", ["exact", "sparse"])
    def test_loaded_and_augmented_models_predict_identically(self, mode, tmp_path):
        model, data = _artificial_model(mode)
        opts = FitOptions(rel_tol=1e-8)  # the sparse projections move
        adapted = [gp_pca.adapt_new_task(model, task, opts) for task in data.new_tasks]
        w = adapted[0]
        path = tmp_path / "model.json"
        gp_pca.save_model(model, path)
        loaded = gp_pca.load_model(path)
        assert not {"line_pencil", "basis_blocks"} & set(vars(loaded.subspace))  # built again, not persisted
        for task, want in zip(data.new_tasks, adapted):
            assert np.array_equal(gp_pca.adapt_new_task(loaded, task, opts), want)
        for got, want in zip(loaded.subspace.basis_blocks, model.subspace.basis_blocks):
            assert np.array_equal(got, want)
        assert np.array_equal(loaded.subspace.line_pencil.chol, model.subspace.line_pencil.chol)
        augmented = gp_pca.with_extra_task(model, w)
        assert augmented.anchor_set is model.anchor_set
        x = data.new_eval[0].inputs
        for i in range(model.num_tasks):
            want = gp_pca.predict_batch(model, i, x)
            for other in (loaded, augmented):
                got = gp_pca.predict_batch(other, i, x)
                assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        want = gp_pca.predict_batch(model, w, x)
        got = gp_pca.predict_batch(augmented, model.num_tasks, x)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_factor_is_kept_per_kernel_and_read_only(self):
        anchor = InducingSet(np.linspace(0.0, 1.0, 5).reshape(-1, 1))
        prior = _prior()
        factor = anchor.factor(prior)
        assert anchor.factor(_prior(beta=3.0)) is factor  # beta does not enter the factor
        assert anchor.factor(_prior(lengthscale=0.3)) is not factor
        assert anchor.factor(_prior(mean=0.5)) is not factor
        np.testing.assert_array_equal(factor.gram, gram(prior.kernel, anchor.points, anchor.points))
        np.testing.assert_allclose(factor.chol @ factor.chol.T, factor.gram, atol=1e-14)
        for a in (factor.gram, factor.chol, factor.mean, factor.kinv_mean):
            with pytest.raises(ValueError):
                a[0] = 1.0


class TestOffsetFactor:
    @pytest.mark.parametrize("mode", ["exact", "sparse"])
    def test_offset_factored_once_per_model(self, mode, monkeypatch):
        # The first adaptation builds the subspace's line pencil, the offset's one
        # factorization; later ones, through the model or a copy that shares its
        # subspace, read it. No adaptation factors the offset through `_natural_to_dual`.
        model, data = _artificial_model(mode)
        offset = model.subspace.u0[None, :]
        pencils, calls = [], []

        def counting(points, d):
            if np.array_equal(points, offset):
                calls.append(points)
            return natural_to_dual(points, d)

        def counting_init(pencil, *args):
            pencils.append(pencil)
            init(pencil, *args)

        natural_to_dual, init = epca._natural_to_dual, epca._LinePencil.__init__
        monkeypatch.setattr(epca, "_natural_to_dual", counting)
        monkeypatch.setattr(epca._LinePencil, "__init__", counting_init)
        opts = FitOptions(rel_tol=1e-8)
        adapted = [gp_pca.adapt_new_task(model, task, opts) for task in data.new_tasks]
        augmented = gp_pca.with_extra_task(model, adapted[0])
        assert augmented.subspace is model.subspace
        for task in data.train_tasks:
            gp_pca.adapt_new_task(augmented, task, opts)
        assert len(pencils) == 1 and calls == []
        pencil = model.subspace.line_pencil
        assert pencil is pencils[0]
        for a in (pencil.chol, pencil.lam, pencil.vecs, pencil.a, pencil.b):
            assert not a.flags.writeable
        m0 = offset[0, len(model.anchor):].reshape(len(model.anchor), -1)
        assert np.array_equal(pencil.chol, np.linalg.cholesky(-(m0 + m0.T)))

    @pytest.mark.parametrize("mode", ["exact", "sparse"])
    def test_adapted_weights_match_per_call_route(self, mode):
        # Every adaptation moves, on the toy models and the artificial one alike, and
        # lands at the line minimum that a per-call bounded search finds.
        artificial, data = _artificial_model(mode)
        tasks = _toy_tasks()
        inducing = InducingSet(union_inputs(tasks)) if mode == "sparse" else None
        toy = gp_pca.train(tasks, _prior(), 1, mode=mode, opts=TIGHT, inducing=inducing)
        cases = [
            (artificial, data.new_tasks, FitOptions(rel_tol=1e-8)),
            (toy, tasks, FitOptions(rel_tol=1e-12, max_iters=40_000)),
        ]
        for model, fewshot, opts in cases:
            for task in fewshot:
                w = gp_pca.adapt_new_task(model, task, opts)
                assert w[0] != 0.0
                _assert_at_line_minimum(model, oracles.task_point_per_call(model, task), w, opts)

    @pytest.mark.parametrize("mode", ["exact", "sparse"])
    def test_adaptation_lands_at_the_line_minimum(self, mode):
        # The toy models move every projection: the sparse one at cond(-2 Theta) about
        # 3e3, the exact one at about 20.
        tasks = _toy_tasks()
        inducing = InducingSet(union_inputs(tasks)) if mode == "sparse" else None
        model = gp_pca.train(tasks, _prior(), 1, mode=mode, opts=TIGHT, inducing=inducing)
        opts = FitOptions()
        for task in tasks:
            w = gp_pca.adapt_new_task(model, task, opts)
            assert w[0] != 0.0
            point = gp_pca._task_point(model.prior, task, model.anchor_set, model.mode)
            _assert_at_line_minimum(model, point, w, opts)

    @pytest.mark.parametrize(
        "mode, opts", [("exact", FitOptions()), ("sparse", evaluation.ADAPT_OPTIONS)],
        ids=["exact", "sparse"],
    )
    def test_adaptation_at_the_offset_computes_no_kl(self, mode, opts, monkeypatch):
        # An adaptation starts from the slopes the pencil keeps at the offset and stops
        # on its Newton decrement, so it computes no KL and factors no candidate
        # through `_natural_to_dual`. It factors the task point once, and the
        # reconstruction at its landing once.
        model, data = _artificial_model(mode)
        model.subspace.line_pencil
        evaluations, factorizations, points, landings = [], [], [], []

        def spy(store, fn):
            def wrapped(*args):
                store.append(args)
                return fn(*args)
            return wrapped

        monkeypatch.setattr(epca._PointBatch, "evaluate", spy(evaluations, epca._PointBatch.evaluate))
        monkeypatch.setattr(epca, "_natural_to_dual", spy(factorizations, epca._natural_to_dual))
        monkeypatch.setattr(epca, "_point_moments", spy(points, epca._point_moments))
        monkeypatch.setattr(epca._LinePencil, "off_cone", spy(landings, epca._LinePencil.off_cone))
        for task in data.new_tasks:
            for store in (evaluations, factorizations, points, landings):
                store.clear()
            w = gp_pca.adapt_new_task(model, task, opts)
            assert w[0] != 0.0
            assert not evaluations and not factorizations
            assert len(points) == 1 and [weights for _, weights in landings] == [[w[0]]]

    def test_offset_off_the_cone_raises_and_keeps_nothing(self):
        prior = _prior()
        task = _toy_tasks()[0]
        nat = moment_to_natural(exact_posterior(prior, task, task.inputs))
        u0 = gg.pack_natural(gg.NaturalCoord(theta=nat.theta, big_theta=-nat.big_theta))
        model = gp_pca.GpPcaModel(
            prior=prior,
            anchor=task.inputs,
            subspace=epca.Subspace(u0=u0, basis=np.ones((1, u0.shape[0]))),
            weights=np.zeros((1, 1)),
            mode="exact",
        )
        message = r"^reconstruction for point 0 violates negative definite Theta$"
        point = gp_pca._task_point(model.prior, task, model.anchor_set, model.mode)
        for _ in range(2):
            with pytest.raises(ValidityError, match=message):
                epca.project_point(point, model.subspace)
            with pytest.raises(ValidityError, match=message):
                gp_pca.adapt_new_task(model, task)
            assert "line_pencil" not in vars(model.subspace)

    def test_subspace_arrays_are_read_only_copies(self):
        u0, basis = np.array([0.0, -0.5]), np.array([[0.0, 1.0]])
        subspace = epca.Subspace(u0=u0, basis=basis)
        u0[1], basis[0, 1] = -2.0, 3.0
        assert subspace.u0[1] == -0.5 and subspace.basis[0, 1] == 1.0
        for a in (subspace.u0, subspace.basis):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0
        for a in (*subspace.basis_blocks, subspace.line_pencil.chol):
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 1.0


LINE_MODELS = ["sparse toy", "exact toy", "small exact", "artificial sparse", "artificial exact"]


@functools.lru_cache(maxsize=None)
def _line_model(name):
    """A fitted model of latent dimension 1, its training tasks and its held-out tasks.

    cond(-2 Theta) at the offset is about 3e3, 20, 3e11, 5e7 and 3e12 in the
    order of LINE_MODELS. "small exact" is the benchmark tests' exact toy:
    four artificial tasks of three samples.
    """
    if name.endswith("toy"):
        tasks = _toy_tasks()
        mode = name.split()[0]
        inducing = InducingSet(union_inputs(tasks)) if mode == "sparse" else None
        return gp_pca.train(tasks, _prior(), 1, mode=mode, opts=TIGHT, inducing=inducing), tasks, tasks
    if name == "small exact":
        data = gen_artificial(
            ArtificialConfig(num_tasks=4, samples_per_task=3, num_new_tasks=3, eval_points_per_task=20, seed=0)
        )
        model = gp_pca.train(data.train_tasks, _prior(lengthscale=0.2, beta=25.0), 1, mode="exact")
        return model, data.train_tasks, data.new_tasks
    model, data = _artificial_model(name.split()[1])
    return model, data.train_tasks, data.new_tasks


class TestLinePencil:
    """The line's precision pencil and the moment-matching solve on it (latent dimension 1)."""

    @staticmethod
    def _weights(pencil):
        lo, hi = pencil.cone
        return [0.0, 0.3 * lo if math.isfinite(lo) else -1.0, 0.5 * hi if math.isfinite(hi) else 1.0,
                0.9 * hi if math.isfinite(hi) else 3.0]

    @pytest.mark.parametrize("name", LINE_MODELS)
    def test_slopes_equal_the_factored_gradient_and_fisher(self, name):
        # Both routes are good to the float64 floor d EPS kappa, kappa = cond(-2 Theta)
        # at w, of their scale: g = u1 . eta is a sum whose terms cancel, so its scale
        # is the sum of their magnitudes; H is a positive quadratic form, its own scale.
        model, *_ = _line_model(name)
        s, d = model.subspace, len(model.anchor)
        pencil = s.line_pencil
        assert pencil.at_zero == pencil.slopes([0.0])[0]
        for w in self._weights(pencil):
            recon = epca._natural_to_dual(epca.reconstruct([w], s)[None, :], d)
            terms = recon[4][0] * s.basis[0]
            h_ref = epca._fisher(recon[2][0], recon[3][0], *s.basis_blocks[:2])[0, 0]
            g, h = pencil.slopes([w])[0]
            floor = d * EPS * _cond(epca.reconstruct([w], s), d)
            assert abs(g - terms.sum()) <= floor * np.abs(terms).sum()
            assert abs(h - h_ref) <= floor * h_ref

    @pytest.mark.parametrize("name", LINE_MODELS)
    def test_cone_interval_ends(self, name):
        # The pencil's ends are exact up to rounding at cond(-2 Theta) of the offset.
        model, *_ = _line_model(name)
        s, d = model.subspace, len(model.anchor)
        pencil = s.line_pencil
        margin = max(1e-12, EPS * _cond(s.u0, d))
        ends = [end for end in pencil.cone if math.isfinite(end)]
        assert ends
        for end in ends:
            assert epca._factors(epca.reconstruct([end * (1.0 - margin)], s), d)
            assert not epca._factors(epca.reconstruct([end * (1.0 + margin)], s), d)
        np.testing.assert_allclose(pencil.cone, oracles.line_interval(s), rtol=margin)

    @pytest.mark.parametrize("name", LINE_MODELS)
    def test_polish_rows_land_where_project_point_does(self, name):
        # The fit's polish (from the fitted weights), a batch from w = 0 and
        # `project_point` take t from different routes, so at cond(-2 Theta) of 1e12
        # their weights differ by the float64 floor over H; all reach the line minimum.
        model, tasks, _ = _line_model(name)
        points = np.array([gp_pca._task_point(model.prior, t, model.anchor_set, model.mode) for t in tasks])
        opts = FitOptions()
        batch, errors = epca._project_batch(
            epca._PointBatch(points), model.subspace, opts, np.zeros((len(points), 1))
        )
        assert errors == [None] * len(points)
        for point, fitted, row in zip(points, model.weights, batch):
            single = epca.project_point(point, model.subspace, opts)
            for w in (fitted, row, single):
                _assert_at_line_minimum(model, point, w, opts)

    def test_landing_off_the_cone_backs_off_toward_the_offset(self, monkeypatch):
        # At cond(-2 Theta) of 3e12, rounding leaves weights just inside the pencil's
        # ends whose reconstruction does not factor. The landing check finds exactly
        # those, and backing off moves each toward the offset onto the cone.
        model, *_ = _line_model("artificial exact")
        s, d = model.subspace, len(model.anchor)
        pencil = s.line_pencil
        ends = [end for end in pencil.cone if math.isfinite(end)]
        near = [end * (1.0 - 2.0**-k) for end in ends for k in range(52, 0, -1)]
        bad = [w for w in near if not epca._factors(epca.reconstruct([w], s), d)]
        good = [0.5 * end for end in ends]
        assert bad and all(epca._factors(epca.reconstruct([w], s), d) for w in good)
        assert pencil.off_cone(good + bad) == list(range(len(good), len(good) + len(bad)))
        for w in bad:
            backed = pencil.back_off(w)
            assert 0.0 < backed / w < 1.0 and epca._factors(epca.reconstruct([backed], s), d)
        # The solve backs off a landing that the check refuses.
        landings = []

        def refusing(self, w):
            landings.append(list(w))
            return list(range(len(w)))

        monkeypatch.setattr(epca._LinePencil, "off_cone", refusing)
        target = pencil.slopes([good[-1]])[0][0]
        weights, errors = epca._project_line(pencil, [target], FitOptions(), [0.0])
        assert errors == [None] and len(landings) == 1
        assert weights[0, 0] == pencil.back_off(landings[0][0])

    @pytest.mark.parametrize("opts", [FitOptions(), evaluation.ADAPT_OPTIONS], ids=["default", "protocol"])
    def test_small_exact_adaptations_land_at_the_line_minimum(self, opts):
        model, _, new_tasks = _line_model("small exact")
        for task in new_tasks:
            w = gp_pca.adapt_new_task(model, task, opts)
            assert w[0] != 0.0
            _assert_at_line_minimum(model, oracles.task_point_per_call(model, task), w, opts)

    def test_iteration_cap_raises_and_keeps_the_last_iterate(self):
        model, tasks, _ = _line_model("sparse toy")
        point = gp_pca._task_point(model.prior, tasks[0], model.anchor_set, model.mode)
        opts = FitOptions(max_iters=1, rel_tol=1e-14)
        with pytest.raises(ConvergenceError) as err:
            epca.project_point(point, model.subspace, opts)
        assert err.value.iters == 1 and err.value.decrement > err.value.tol
        weights, errors = epca._project_batch(
            epca._PointBatch(point[None, :]), model.subspace, opts, np.zeros((1, 1))
        )
        assert isinstance(errors[0], ConvergenceError) and weights[0, 0] != 0.0  # its one step


PLANE_MODELS = ["sparse toy", "exact toy", "artificial sparse", "artificial exact"]


@functools.lru_cache(maxsize=None)
def _plane_model(name):
    """A fitted model of latent dimension 2, its fit options, its training tasks and its few-shot tasks.

    cond(-2 Theta) at the offset is about 6e2, 8, 5e7 and 3e12 in the order
    of PLANE_MODELS.
    """
    if name.endswith("toy"):
        tasks = _toy_tasks()
        mode = name.split()[0]
        inducing = InducingSet(union_inputs(tasks)) if mode == "sparse" else None
        return gp_pca.train(tasks, _prior(), 2, mode=mode, opts=TIGHT, inducing=inducing), TIGHT, tasks, tasks
    model, data = _artificial_model(name.split()[1], latent_dim=2)
    return model, FitOptions(max_iters=200), data.train_tasks, data.new_tasks


class TestSubspaceProjection:
    """Moment matching onto two basis rows: Newton steps in the Fisher metric, with the decrement stop."""

    @pytest.mark.parametrize("name", PLANE_MODELS)
    def test_adaptations_land_at_the_kl_minimum(self, name):
        model, _, _, fewshot = _plane_model(name)
        toy = name.endswith("toy")
        opts = FitOptions(rel_tol=1e-12, max_iters=40_000) if toy else FitOptions(rel_tol=1e-8)
        for task in fewshot:
            w = gp_pca.adapt_new_task(model, task, opts)
            assert np.all(w != 0.0)
            _assert_at_subspace_minimum(model, oracles.task_point_per_call(model, task), w, opts)

    def test_projections_keep_only_the_basis_blocks(self):
        # Every projection factors its start w = 0 like any other trial, so the
        # subspace keeps no moments of its offset, only the blocks of its basis rows.
        model, _, tasks, _ = _plane_model("sparse toy")
        subspace = epca.Subspace(u0=model.subspace.u0, basis=model.subspace.basis)
        for task in tasks:
            point = gp_pca._task_point(model.prior, task, model.anchor_set, model.mode)
            assert np.all(epca.project_point(point, subspace) != 0.0)
        assert set(vars(subspace)) == {"u0", "basis", "basis_blocks"}

    @pytest.mark.parametrize("name", PLANE_MODELS)
    def test_polish_rows_land_at_the_kl_minimum(self, name):
        # The fit's polish reads its targets from the batch's duals; each row stops
        # on its decrement at the fit's rel_tol.
        model, opts, tasks, _ = _plane_model(name)
        for task, w in zip(tasks, model.weights):
            _assert_at_subspace_minimum(model, oracles.task_point_per_call(model, task), w, opts)


def _cone_boundary_weights(model):
    """The weights on the model's line (L = 1) where min eig(-2 Theta) reaches 0, each side of w = 0."""
    d = len(model.anchor)
    _, offset = oracles.unpack_coords(model.subspace.u0, d)
    _, direction = oracles.unpack_coords(model.subspace.basis[0], d)
    # -2 Theta(w) = A0 + w M is singular where w = -1/lambda, lambda an eigenvalue of A0^-1 M.
    lam = np.linalg.eigvals(np.linalg.solve(-2.0 * offset, -2.0 * direction)).real
    return -1.0 / lam[lam < 0].min(), -1.0 / lam[lam > 0].max()


class TestStrictReconstruction:
    @pytest.mark.parametrize("mode", ["exact", "sparse"])
    def test_predictions_equal_the_public_chain(self, mode):
        model, data = _artificial_model(mode)
        adapted = [gp_pca.adapt_new_task(model, task, FitOptions(rel_tol=1e-8)) for task in data.new_tasks]
        predictive = gp_pca.predictive_batch if mode == "exact" else gp_pca.sparse_predictive_batch
        dense = np.linspace(-0.1, 1.1, 1_200).reshape(-1, 1)
        for w, ev in zip([*model.weights, *adapted], [*data.train_eval, *data.new_eval]):
            rho = oracles.reconstructed_moments(model, w)
            for x in (ev.inputs, dense):
                got = gp_pca.predict_batch(model, w, x)
                want = predictive(model.prior, rho, model.anchor_set, x)
                floor = _variance_floor(model, w, x)
                assert np.array_equal(got[0], want[0])
                assert np.all(np.abs(got[1] - want[1]) <= floor)
                assert np.any(np.abs(_swapped_variances(model, w, x) - want[1]) > floor)

    @pytest.mark.parametrize("mode", ["exact", "sparse"])
    def test_one_call_factors_its_reconstruction_once(self, mode, monkeypatch):
        model, data = _artificial_model(mode)
        gp_pca.predict_batch(model, 0, data.train_eval[0].inputs)  # the anchor's factors, once
        calls = []

        def counting(a):
            calls.append(a.shape)
            return cholesky(a)

        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", counting)
        for i, ev in enumerate(data.train_eval):
            gp_pca.predict_batch(model, i, ev.inputs)
        d = len(model.anchor)
        assert calls == [(d, d)] * model.num_tasks

    @pytest.mark.parametrize("mode", ["exact", "sparse"])
    def test_one_call_checks_no_symmetry(self, mode, monkeypatch):
        # The reconstruction's Sigma is symmetric by construction; nothing checks or copies it again.
        model, data = _artificial_model(mode)
        x = data.train_eval[0].inputs
        gp_pca.predict_batch(model, 0, x)  # the anchor's factors, once
        calls = {"_check_symmetry": 0, "cholesky": 0}
        check_symmetry, cholesky = gg._check_symmetry, np.linalg.cholesky

        def counting_check(a, what):
            calls["_check_symmetry"] += 1
            return check_symmetry(a, what)

        def counting_cholesky(a):
            calls["cholesky"] += 1
            return cholesky(a)

        monkeypatch.setattr(gg, "_check_symmetry", counting_check)
        monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
        gp_pca.predict_batch(model, 0, x)
        assert calls == {"_check_symmetry": 0, "cholesky": 1}

    def test_reconstruction_just_past_the_cone_raises(self, monkeypatch):
        # chol_pd's jitter repair used to factor these and predict means of order 1e7.
        data = gen_artificial(
            ArtificialConfig(num_tasks=5, samples_per_task=5, num_new_tasks=1, eval_points_per_task=10, seed=3)
        )
        inducing = grid_inducing(np.vstack([t.inputs for t in data.train_tasks]), 8)
        prior = _prior(lengthscale=0.2, beta=25.0)
        model = gp_pca.train(
            data.train_tasks, prior, 1, mode="sparse", opts=FitOptions(max_iters=200), inducing=inducing
        )
        x = data.train_eval[0].inputs
        for boundary in _cone_boundary_weights(model):
            w = np.array([boundary * (1 + 1e-7)])
            _, big_theta = oracles.unpack_coords(epca.reconstruct(w, model.subspace), len(inducing))
            assert -1e-7 < np.linalg.eigvalsh(-2.0 * big_theta).min() < 0.0
            with pytest.raises(epca._InvalidBatch):  # the fit and projection refuse it too
                epca._natural_to_dual(epca.reconstruct(w, model.subspace)[None, :], len(inducing))
            with pytest.raises(ValidityError, match="reconstruction at weights"):
                gp_pca.predict_batch(model, w, x)
            inside = np.array([boundary * (1 - 1e-3)])
            means, variances = gp_pca.predict_batch(model, inside, x)
            assert np.isfinite(means).all() and np.isfinite(variances).all()


class TestCopies:
    """Pickled and deep-copied objects are rebuilt read-only, their kept factors computed afresh."""

    COPIERS = {"pickle": lambda obj: pickle.loads(pickle.dumps(obj)), "deepcopy": copy.deepcopy}

    @staticmethod
    def _assert_read_only(*arrays):
        for a in arrays:
            assert not a.flags.writeable

    @pytest.mark.parametrize("how", COPIERS)
    def test_subspace_rebuilds_its_offset_factor(self, how):
        model, _ = _artificial_model("sparse")
        subspace = model.subspace
        want = subspace.basis_blocks
        pencil = subspace.line_pencil
        got = self.COPIERS[how](subspace)
        assert "basis_blocks" not in vars(got) and "line_pencil" not in vars(got)
        self._assert_read_only(got.u0, got.basis, *got.basis_blocks)
        assert np.array_equal(got.u0, subspace.u0) and np.array_equal(got.basis, subspace.basis)
        for a, b in zip(got.basis_blocks, want):
            assert np.array_equal(a, b)
        for name in ("chol", "lam", "vecs", "a", "b"):
            self._assert_read_only(getattr(got.line_pencil, name))
            assert np.array_equal(getattr(got.line_pencil, name), getattr(pencil, name))
        assert got.line_pencil.cone == pencil.cone and got.line_pencil.at_zero == pencil.at_zero

    @pytest.mark.parametrize("how", COPIERS)
    def test_inducing_set_and_prior_factor(self, how):
        anchor = InducingSet(np.linspace(0.0, 1.0, 6).reshape(-1, 1))
        prior = _prior(mean=0.3)
        factor = anchor.factor(prior)
        factor.kinv, factor.chol_inv
        got_anchor = self.COPIERS[how](anchor)
        assert got_anchor._factors == {}
        self._assert_read_only(got_anchor.points)
        got = self.COPIERS[how](factor)
        assert "kinv" not in vars(got) and "chol_inv" not in vars(got)
        names = ("gram", "chol", "mean", "kinv_mean", "kinv", "chol_inv")
        self._assert_read_only(*(getattr(got, n) for n in names))
        for n in names:
            assert np.array_equal(getattr(got, n), getattr(factor, n))
        assert np.array_equal(got_anchor.factor(prior).chol, factor.chol)

    @pytest.mark.parametrize("how", COPIERS)
    @pytest.mark.parametrize("mode", ["exact", "sparse"])
    def test_model_predicts_and_adapts_identically(self, mode, how):
        model, data = _artificial_model(mode)
        task, x = data.new_tasks[0], data.new_eval[0].inputs
        opts = FitOptions(rel_tol=1e-8)
        w = gp_pca.adapt_new_task(model, task, opts)
        got = self.COPIERS[how](model)
        assert got.anchor is got.anchor_set.points
        assert "basis_blocks" not in vars(got.subspace) and "line_pencil" not in vars(got.subspace)
        factor = got.anchor_set.factor(got.prior)
        self._assert_read_only(got.anchor, got.subspace.u0, got.subspace.basis)
        self._assert_read_only(factor.gram, factor.chol, factor.mean, factor.kinv_mean)
        assert np.array_equal(gp_pca.adapt_new_task(got, task, opts), w)
        self._assert_read_only(got.subspace.line_pencil.chol)
        for i in range(model.num_tasks):
            want = gp_pca.predict_batch(model, i, x)
            mine = gp_pca.predict_batch(got, i, x)
            assert np.array_equal(mine[0], want[0]) and np.array_equal(mine[1], want[1])


@pytest.mark.parametrize("mode", ["exact", "sparse"])
def test_zero_latent_dimensions_fit_and_predict_the_moment_matched_posterior(mode):
    # With L = 0 the KL-optimal offset matches the mean of the tasks' expectation
    # coordinates (E[f], E[f f^T]), and every task is predicted from it.
    prior = _prior()
    tasks = _toy_tasks()
    inducing = InducingSet(np.linspace(0.0, 1.0, 4).reshape(-1, 1)) if mode == "sparse" else None
    model = gp_pca.train(tasks, prior, 0, mode=mode, opts=TIGHT, inducing=inducing)
    if mode == "exact":
        posteriors = [oracles.exact_posterior_per_call(prior, t, model.anchor) for t in tasks]
    else:
        posteriors = [oracles.variational_posterior(prior, t, inducing) for t in tasks]
    duals = [moment_to_expectation(p) for p in posteriors]
    matched = expectation_to_moment(oracles.ExpectationCoord(
        eta=np.mean([c.eta for c in duals], axis=0), big_h=np.mean([c.big_h for c in duals], axis=0)
    ))
    offset = natural_to_moment(oracles.unpack_natural(model.subspace.u0, len(model.anchor)))
    scale = np.max(np.abs(matched.sigma))
    np.testing.assert_allclose(offset.mu, matched.mu, rtol=1e-9, atol=1e-9 * scale)
    np.testing.assert_allclose(offset.sigma, matched.sigma, rtol=1e-9, atol=1e-9 * scale)
    kl = sum(kl_divergence(p, matched) for p in posteriors)
    assert model.fit_result.objective == pytest.approx(kl, rel=1e-9)

    w = gp_pca.adapt_new_task(model, tasks[0], FitOptions())
    assert w.shape == (0,)
    grid = np.linspace(-0.1, 1.1, 9).reshape(-1, 1)
    if mode == "exact":
        want = oracles.predictive_batch_per_call(prior, matched, model.anchor, grid)
    else:
        want = oracles.sparse_predictive_batch_per_call(prior, matched, inducing, grid)
    for weights in (w, 1):
        for got, ref in zip(gp_pca.predict_batch(model, weights, grid), want):
            np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("mode", ["exact", "sparse"])
@pytest.mark.parametrize(
    "inputs, outputs",
    [([[0.2], [0.6]], [0.4, np.nan]), ([[0.2], [np.nan]], [0.4, 0.1]), ([[0.2], [0.6]], [np.inf, 0.1])],
    ids=["nan-output", "nan-input", "inf-output"],
)
def test_few_shot_task_with_non_finite_data_is_refused(mode, inputs, outputs):
    # Unchecked, the sparse route adapts such a task to w = 0 without an error.
    tasks = _toy_tasks()
    inducing = InducingSet(union_inputs(tasks)) if mode == "sparse" else None
    model = gp_pca.train(tasks, _prior(), 1, mode=mode, opts=FitOptions(max_iters=50), inducing=inducing)
    with pytest.raises(ValueError, match="task 7: inputs and outputs must be finite"):
        gp_pca.adapt_new_task(model, TaskData(inputs, outputs, 7))


class TestJointCoords:
    def test_empty_test_set_is_identity(self):
        prior = _prior()
        task = _toy_tasks()[0]
        anchor = union_inputs([task])
        rho = exact_posterior(prior, task, anchor)
        joint = joint_posterior_coords(prior, rho, anchor, np.zeros((0, 1)))
        direct = moment_to_natural(rho)
        np.testing.assert_allclose(joint.theta, direct.theta)
        np.testing.assert_allclose(joint.big_theta, direct.big_theta)

    def test_prior_extends_to_prior(self):
        prior = _prior()
        anchor = np.array([[0.1], [0.6]])
        test = np.array([[0.3]])
        k = gram(prior.kernel, anchor, anchor)
        rho = gg.MomentGaussian(np.zeros(2), k)
        joint = natural_to_moment(joint_posterior_coords(prior, rho, anchor, test))
        union = np.vstack([anchor, test])
        np.testing.assert_allclose(joint.mu, np.zeros(3), atol=1e-9)
        np.testing.assert_allclose(joint.sigma, gram(prior.kernel, union, union), atol=1e-8)

    def test_test_points_on_the_anchor_are_dropped(self):
        prior = _prior()
        task = _toy_tasks()[1]
        anchor = np.array([[0.1], [0.6]])
        rho = exact_posterior(prior, task, anchor)
        near = joint_posterior_coords(prior, rho, anchor, np.array([[0.6 + 1e-13], [0.3]]))
        plain = joint_posterior_coords(prior, rho, anchor, np.array([[0.3]]))
        assert np.array_equal(gg.pack_natural(near), gg.pack_natural(plain))

    def test_marginal_block_preserved(self):
        prior = _prior()
        task = _toy_tasks()[1]
        anchor = np.array([[0.1], [0.4], [0.9]])
        rho = exact_posterior(prior, task, anchor)
        joint = natural_to_moment(
            joint_posterior_coords(prior, rho, anchor, np.array([[0.25], [0.6]]))
        )
        np.testing.assert_allclose(joint.mu[:3], rho.mu, atol=1e-8)
        np.testing.assert_allclose(joint.sigma[:3, :3], rho.sigma, atol=1e-8)

    def test_against_block_composition_oracle(self):
        # 2 anchor + 1 test point instance vs the brute-force joint
        prior = _prior()
        task = TaskData([[0.2], [0.7]], [0.6, -0.2], 0)
        anchor = task.inputs
        rho = exact_posterior(prior, task, anchor)
        test = np.array([[0.45]])
        mine = natural_to_moment(joint_posterior_coords(prior, rho, anchor, test))
        ref = oracles.joint_moments_bruteforce(prior, rho, anchor, test)
        np.testing.assert_allclose(mine.mu, ref.mu, atol=1e-10)
        np.testing.assert_allclose(mine.sigma, ref.sigma, atol=1e-10)

    def test_kl_preserved_under_extension(self):
        # Extending two posteriors by the same conditional prior keeps their KL,
        # up to the float64 forward error eps * cond(Sigma**) of working through
        # the extended covariances: random inputs can fall close together, where
        # cond(Sigma**) reaches 4e10 and even the exact natural coordinates,
        # rounded once to float64, miss the KL by 6e-6.
        rng = np.random.default_rng(1)
        eps = np.finfo(float).eps
        prior = _prior()
        anchor = np.array([[0.1], [0.45], [0.8]])
        for _ in range(20):
            t1 = TaskData(rng.uniform(0, 1, (3, 1)), rng.normal(size=3), 1)
            t2 = TaskData(rng.uniform(0, 1, (3, 1)), rng.normal(size=3), 2)
            r1 = exact_posterior(prior, t1, anchor)
            r2 = exact_posterior(prior, t2, anchor)
            test = rng.uniform(0, 1, (int(rng.integers(1, 5)), 1))
            j1 = natural_to_moment(joint_posterior_coords(prior, r1, anchor, test))
            j2 = natural_to_moment(joint_posterior_coords(prior, r2, anchor, test))
            kl = kl_divergence(r1, r2)
            kappa = max(np.linalg.cond(j1.sigma), np.linalg.cond(j2.sigma))
            assert abs(kl_divergence(j1, j2) - kl) <= eps * kappa * max(1.0, kl)

    def test_affine_in_natural_coordinates(self):
        # convex combinations commute with the extension map (e-chart)
        rng = np.random.default_rng(2)
        prior = _prior()
        anchor = np.array([[0.15], [0.5], [0.85]])
        test = np.array([[0.3], [0.7]])
        t1 = TaskData(rng.uniform(0, 1, (3, 1)), rng.normal(size=3), 1)
        t2 = TaskData(rng.uniform(0, 1, (3, 1)), rng.normal(size=3), 2)
        r1 = exact_posterior(prior, t1, anchor)
        r2 = exact_posterior(prior, t2, anchor)
        j1 = gg.pack_natural(joint_posterior_coords(prior, r1, anchor, test))
        j2 = gg.pack_natural(joint_posterior_coords(prior, r2, anchor, test))
        for a in (0.0, 0.25, 0.5, 0.9, 1.0):
            mix = a * gg.pack_natural(moment_to_natural(r1)) + (1 - a) * gg.pack_natural(
                moment_to_natural(r2)
            )
            rho_mix = natural_to_moment(oracles.unpack_natural(mix, 3))
            j_mix = gg.pack_natural(joint_posterior_coords(prior, rho_mix, anchor, test))
            np.testing.assert_allclose(j_mix, a * j1 + (1 - a) * j2, rtol=1e-8, atol=1e-8)

    def test_affine_in_expectation_coordinates(self):
        # same commutation in the m-chart
        rng = np.random.default_rng(3)
        prior = _prior()
        anchor = np.array([[0.15], [0.5], [0.85]])
        test = np.array([[0.4]])
        t1 = TaskData(rng.uniform(0, 1, (3, 1)), rng.normal(size=3), 1)
        t2 = TaskData(rng.uniform(0, 1, (3, 1)), rng.normal(size=3), 2)
        r1 = exact_posterior(prior, t1, anchor)
        r2 = exact_posterior(prior, t2, anchor)

        def extend_m(rho):
            joint = natural_to_moment(joint_posterior_coords(prior, rho, anchor, test))
            return pack_expectation(moment_to_expectation(joint))

        z1, z2 = extend_m(r1), extend_m(r2)
        for a in (0.2, 0.5, 0.8):
            mix = a * pack_expectation(moment_to_expectation(r1)) + (1 - a) * pack_expectation(
                moment_to_expectation(r2)
            )
            rho_mix = expectation_to_moment(unpack_expectation(mix, 3))
            np.testing.assert_allclose(extend_m(rho_mix), a * z1 + (1 - a) * z2, rtol=1e-8, atol=1e-8)


class TestPersistence:
    def test_round_trip_bitwise_predictions(self, tmp_path):
        prior = _prior()
        model = gp_pca.train(_toy_tasks(), prior, 1, mode="exact", opts=TIGHT)
        path = tmp_path / "model.json"
        gp_pca.save_model(model, path, config_hash="abc123")
        loaded = gp_pca.load_model(path)
        grid = np.linspace(0, 1, 17).reshape(-1, 1)
        for i in range(3):
            m1, v1 = gp_pca.predict_batch(model, i, grid)
            m2, v2 = gp_pca.predict_batch(loaded, i, grid)
            np.testing.assert_array_equal(m1, m2)
            np.testing.assert_array_equal(v1, v2)

    def test_round_trip_without_latent_dimensions(self, tmp_path):
        model = gp_pca.train(_toy_tasks(), _prior(), 0, mode="exact", opts=TIGHT)
        path = tmp_path / "model.json"
        gp_pca.save_model(model, path)
        loaded = gp_pca.load_model(path)
        assert loaded.weights.shape == (3, 0)
        grid = np.linspace(0, 1, 5).reshape(-1, 1)
        got, want = (gp_pca.predict_batch(m, 2, grid) for m in (loaded, model))
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)

    def test_missing_field_rejected(self, tmp_path):
        prior = _prior()
        model = gp_pca.train(_toy_tasks(), prior, 0, mode="exact", opts=TIGHT)
        doc = gp_pca.model_to_dict(model)
        doc.pop("beta")
        with pytest.raises(ValueError, match="beta"):
            gp_pca.model_from_dict(doc)

    def test_version_check(self):
        prior = _prior()
        model = gp_pca.train(_toy_tasks(), prior, 0, mode="exact", opts=TIGHT)
        doc = gp_pca.model_to_dict(model)
        doc["version"] = 99
        with pytest.raises(ValueError, match="version"):
            gp_pca.model_from_dict(doc)

    def test_augment_with_adapted_task(self):
        prior = _prior()
        model = gp_pca.train(_toy_tasks(), prior, 1, mode="exact", opts=TIGHT)
        w = gp_pca.adapt_new_task(model, _toy_tasks()[0], FitOptions(rel_tol=1e-8))
        bigger = gp_pca.with_extra_task(model, w)
        assert bigger.num_tasks == 4
        np.testing.assert_array_equal(bigger.weights[-1], w)


def test_theorem_equivalence_small_instance():
    """Fitting over the anchor set matches fitting over extended coordinates."""
    prior = _prior()
    tasks = _toy_tasks()
    opts = FitOptions(max_iters=20_000, rel_tol=1e-14)
    model = gp_pca.train(tasks, prior, 1, mode="exact", opts=opts)
    e_anchor = model.fit_result.objective
    e_joint = oracles.fit_joint_direct(tasks, prior, [[0.25], [0.55]], 1, opts)
    assert abs(e_anchor - e_joint) / e_anchor < 1e-4

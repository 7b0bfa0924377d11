import numpy as np
import pytest

from gppca import epca, gp_pca, kernels_gp, sparse_gp
from gppca import gaussian_geometry as gg
from gppca.datasets import ArtificialConfig, gen_artificial
from gppca.epca import FitOptions, ValidityError
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
        with pytest.raises(ValueError, match="inducing"):
            gp_pca.train(_toy_tasks(), prior, 1, mode="sparse")

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
        assert epca.objective(model.weights, model.subspace, coords) == model.fit_result.objective

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
            latent_dim=0,
        )
        grid = np.linspace(-0.1, 1.1, 15).reshape(-1, 1)
        m_hat, v_hat = gp_pca.predict_batch(model, 0, grid)
        m_ref, v_ref = gp_predictive_batch(prior, task, grid)
        np.testing.assert_allclose(m_hat, m_ref, atol=1e-8)
        np.testing.assert_allclose(v_hat, v_ref, atol=1e-8)

    def test_zero_weights_is_offset_prediction(self):
        prior = _prior()
        model = gp_pca.train(_toy_tasks(), prior, 1, mode="exact", opts=TIGHT)
        rho0 = natural_to_moment(gg.unpack_natural(model.subspace.u0, model.anchor.shape[0]))
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
        rho_hat = natural_to_moment(gg.unpack_natural(flat, model.anchor.shape[0]))
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
            latent_dim=1,
        )
        with pytest.raises(ValidityError, match=r"reconstruction at weights \[1000\.\] violates"):
            gp_pca.predict_batch(model, 0, [[0.5]])
        with pytest.raises(ValidityError, match=r"weights \[2000\.\]"):
            gp_pca.predict_batch(model, np.array([2000.0]), [[0.5]])

    def test_bad_weight_length(self):
        prior = _prior()
        model = gp_pca.train(_toy_tasks(), prior, 1, mode="exact", opts=TIGHT)
        with pytest.raises(ValueError):
            gp_pca.predict_batch(model, np.zeros(2), [[0.1]])
        with pytest.raises(IndexError):
            gp_pca.predict_batch(model, 7, [[0.1]])
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=r"weights must be finite, got \[(nan|-?inf)\]"):
                gp_pca.predict_batch(model, [bad], [[0.1]])


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


def _artificial_model(mode):
    """A small artificial problem at the evaluation protocol's prior, with its held-out tasks."""
    data = gen_artificial(
        ArtificialConfig(num_tasks=6, samples_per_task=5, num_new_tasks=4, eval_points_per_task=30, seed=2)
    )
    prior = _prior(lengthscale=0.2, beta=25.0)
    inducing = None
    if mode == "sparse":
        inducing = grid_inducing(np.vstack([t.inputs for t in data.train_tasks]), 12)
    model = gp_pca.train(
        data.train_tasks, prior, 1, mode=mode, opts=FitOptions(max_iters=200), inducing=inducing
    )
    return model, data


def _variance_floor(model, w, x):
    """Bound per test point on |`predict_batch` - `predict_batch_per_call`| variances.

    Both routes predict from the same reconstructed posterior (Sigma).
    Exact: both routes take w = K^-1 k from the same Cholesky factor of K
    and differ only in the order of the sums of w^T (Sigma - K) w, bounded by
    2 n EPS (1 + |w|^T |Sigma - K| |w|). Sparse: the routes differ only in
    K^-1 k_m (K^-1 formed once against a solve per call), bounded by
    EPS * cond(K) * (1 + sum |k_m * K^-1 k_m|), and in the order of the sums
    of k_m^T Sigma' k_m, bounded by 2 m EPS |k_m|^T |Sigma'| |k_m|.
    """
    k = gram(model.prior.kernel, model.anchor, model.anchor)
    k_cross = gram(model.prior.kernel, model.anchor, x)
    nat = gg.unpack_natural(epca.reconstruct(w, model.subspace), model.anchor.shape[0])
    sigma = natural_to_moment(nat).sigma
    if model.mode == "sparse":
        kinv_k = np.linalg.solve(k, k_cross)
        quad = np.sum(np.abs(k_cross) * (np.abs(sigma) @ np.abs(k_cross)), axis=0)
        solve = 1.0 + np.sum(np.abs(k_cross * kinv_k), axis=0)
        return EPS * (np.linalg.cond(k) * solve + 2 * len(k) * quad)
    kinv_k = gg.chol_solve(model.anchor_set.factor(model.prior).chol, k_cross)
    scale = 1.0 + np.sum(np.abs(kinv_k) * (np.abs(sigma - k) @ np.abs(kinv_k)), axis=0)
    return 2 * len(k) * EPS * scale


class TestAnchorFactor:
    @pytest.mark.parametrize("mode", ["exact", "sparse"])
    def test_matches_per_call_route(self, mode):
        model, data = _artificial_model(mode)
        adapt_opts = FitOptions(rel_tol=1e-6, max_iters=20_000)
        adapted = [gp_pca.adapt_new_task(model, task, adapt_opts) for task in data.new_tasks]
        for task in [*data.train_tasks, *data.new_tasks]:
            point = gp_pca._task_point(model.prior, task, model.anchor_set, model.mode)
            assert np.array_equal(point, oracles.task_point_per_call(model, task))
        for task, w in zip(data.new_tasks, adapted):
            assert np.array_equal(w, oracles.adapt_per_call(model, task, adapt_opts))
        weights = [*model.weights, *adapted]
        dense = np.linspace(-0.1, 1.1, 1_200).reshape(-1, 1)  # as many points as a vdp call
        for w, ev in zip(weights, [*data.train_eval, *data.new_eval]):
            for x in (ev.inputs, dense):
                means, variances = gp_pca.predict_batch(model, w, x)
                ref_means, ref_variances = oracles.predict_batch_per_call(model, w, x)
                assert np.array_equal(means, ref_means)
                assert np.all(np.abs(variances - ref_variances) <= _variance_floor(model, w, x))

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

    @pytest.mark.parametrize("mode", ["exact", "sparse"])
    def test_loaded_and_augmented_models_predict_identically(self, mode, tmp_path):
        model, data = _artificial_model(mode)
        opts = FitOptions(rel_tol=1e-8)  # the sparse projections move
        adapted = [gp_pca.adapt_new_task(model, task, opts) for task in data.new_tasks]
        w = adapted[0]
        path = tmp_path / "model.json"
        gp_pca.save_model(model, path)
        loaded = gp_pca.load_model(path)
        assert "offset_factor" not in vars(loaded.subspace)  # built again, not persisted
        for task, want in zip(data.new_tasks, adapted):
            assert np.array_equal(gp_pca.adapt_new_task(loaded, task, opts), want)
        for got, want in zip(loaded.subspace.offset_factor, model.subspace.offset_factor):
            assert np.array_equal(got, want)
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
        model, data = _artificial_model(mode)
        offset = model.subspace.u0[None, :]
        calls = []

        def counting(points, d):
            if np.array_equal(points, offset):
                calls.append(points)
            return natural_to_dual(points, d)

        natural_to_dual = epca._natural_to_dual
        monkeypatch.setattr(epca, "_natural_to_dual", counting)
        opts = FitOptions(rel_tol=1e-8)
        adapted = [gp_pca.adapt_new_task(model, task, opts) for task in data.new_tasks]
        augmented = gp_pca.with_extra_task(model, adapted[0])
        assert augmented.subspace is model.subspace
        for task in data.train_tasks:
            gp_pca.adapt_new_task(augmented, task, opts)
        assert len(calls) == 1
        factor = model.subspace.offset_factor
        assert all(not a.flags.writeable for a in factor)
        for got, want in zip(factor, natural_to_dual(offset, model.anchor.shape[0])):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("mode", ["exact", "sparse"])
    def test_adapted_weights_match_per_call_route(self, mode):
        # The toy models' projections move in both modes; the artificial one's in sparse mode.
        artificial, data = _artificial_model(mode)
        tasks = _toy_tasks()
        inducing = InducingSet(union_inputs(tasks)) if mode == "sparse" else None
        toy = gp_pca.train(tasks, _prior(), 1, mode=mode, opts=TIGHT, inducing=inducing)
        cases = [
            (artificial, data.new_tasks, FitOptions(rel_tol=1e-8)),
            (toy, tasks, FitOptions(rel_tol=1e-12, max_iters=40_000)),
        ]
        moved = 0
        for model, fewshot, opts in cases:
            for task in fewshot:
                w = gp_pca.adapt_new_task(model, task, opts)
                assert np.array_equal(w, oracles.adapt_per_call(model, task, opts))
                moved += bool(np.any(w != 0.0))
        assert moved >= len(tasks) + (len(data.new_tasks) if mode == "sparse" else 0)

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
            latent_dim=1,
        )
        message = r"^reconstruction for point 0 violates negative definite Theta$"
        point = gp_pca._task_point(model.prior, task, model.anchor_set, model.mode)
        for _ in range(2):
            with pytest.raises(ValidityError, match=message):
                epca.project_point(point, model.subspace)
            with pytest.raises(ValidityError, match=message):
                gp_pca.adapt_new_task(model, task)
            assert "offset_factor" not in vars(model.subspace)

    def test_subspace_arrays_are_read_only_copies(self):
        u0, basis = np.array([0.0, -0.5]), np.array([[0.0, 1.0]])
        subspace = epca.Subspace(u0=u0, basis=basis)
        u0[1], basis[0, 1] = -2.0, 3.0
        assert subspace.u0[1] == -0.5 and subspace.basis[0, 1] == 1.0
        for a in (subspace.u0, subspace.basis):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0
        for a in subspace.offset_factor:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 1.0


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
    offset = natural_to_moment(gg.unpack_natural(model.subspace.u0, len(model.anchor)))
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
            rho_mix = natural_to_moment(gg.unpack_natural(mix, 3))
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

"""Each check passes a correct input and rejects one deliberately wrong input.

Run from the repository root: python3 -m pytest -q perfbench
"""

from dataclasses import replace

import numpy as np
import pytest

import checks
import protocol
import workloads
from gppca import gp_pca, kernels_gp
from gppca.datasets import ArtificialConfig, VdpConfig, gen_artificial
from gppca.epca import FitOptions
from gppca.evaluation import ExperimentConfig
from gppca.kernels_gp import GpPrior, KernelConfig
from gppca.sparse_gp import grid_inducing

PRIOR = GpPrior(kernel=KernelConfig(kind="rbf", lengthscale=0.2), beta=25.0, mean_fn=0.0)
SMALL = dict(num_tasks=5, num_new_tasks=3, eval_points_per_task=20)
REL_TOL = ExperimentConfig(experiment="artificial").adapt_opts.rel_tol  # what adaptations run with


@pytest.fixture(scope="module")
def data():
    return gen_artificial(ArtificialConfig(samples_per_task=10, seed=3, **SMALL))


def _toy(mode):
    small = gen_artificial(
        ArtificialConfig(**{**SMALL, "num_tasks": 4, "samples_per_task": 3, "seed": 0})
    )
    inducing = None
    if mode == "sparse":
        inducing = grid_inducing(np.vstack([t.inputs for t in small.train_tasks]), 6)
    return gp_pca.train(small.train_tasks, PRIOR, 1, mode=mode, inducing=inducing), small, inducing


@pytest.fixture(scope="module")
def model():
    """A sparse model: its chart is conditioned well enough (cond(-2 Theta) about 2e3)
    that the float64 floors lie far below the deliberate errors of the tests."""
    return _toy("sparse")


def test_exact_outputs_pass_every_check():
    # The exact chart of the same toy has cond(-2 Theta) near 1e11, so its floors are
    # wide; the correct outputs still have to pass.
    fitted, small, _ = _toy("exact")
    points, _ = gp_pca.task_coordinates(small.train_tasks, PRIOR, "exact")
    v2, v3, _ = checks.check_fit(points, fitted.fit_result)
    assert v2.ok and v3.ok, (v2.detail, v3.detail)
    for task, ev in zip(small.new_tasks, small.new_eval):
        w = gp_pca.adapt_new_task(fitted, task)
        means, variances = gp_pca.predict_batch(fitted, w, ev.inputs)
        assert checks.check_prediction(fitted, w, ev.inputs, means, variances).ok


def test_baseline_passes_and_rejects_beta_off_by_one_percent(data):
    task, ev = data.train_tasks[0], data.train_eval[0]
    means, variances = kernels_gp.gp_predictive_batch(PRIOR, task, ev.inputs)
    assert checks.check_baseline(PRIOR, task, ev.inputs, means, variances).ok
    wrong = replace(PRIOR, beta=PRIOR.beta * 1.01)
    means, variances = kernels_gp.gp_predictive_batch(wrong, task, ev.inputs)
    assert not checks.check_baseline(PRIOR, task, ev.inputs, means, variances).ok


def test_objective_passes_and_rejects_one_in_a_million(model):
    fitted, small, inducing = model
    points, _ = gp_pca.task_coordinates(small.train_tasks, PRIOR, "sparse", inducing)
    result = fitted.fit_result
    v2, _, _ = checks.check_fit(points, result)
    assert v2.ok, v2.detail
    v2, _, _ = checks.check_fit(points, replace(result, objective=result.objective * (1 + 1e-6)))
    assert not v2.ok


def test_single_gaussian_bound_passes_and_rejects(model):
    fitted, small, inducing = model
    points, _ = gp_pca.task_coordinates(small.train_tasks, PRIOR, "sparse", inducing)
    _, v3, numbers = checks.check_fit(points, fitted.fit_result)
    assert v3.ok, v3.detail
    above = replace(fitted.fit_result, objective=numbers["single_gaussian"] * (1 + 1e-6))
    assert not checks.check_fit(points, above)[1].ok


def test_adaptation_passes_at_the_minimum_and_rejects_a_moved_weight(model):
    fitted, _, _ = model
    sub = fitted.subspace
    # A point on the line: its KL is 0 at w = 0.3 and positive elsewhere.
    point = sub.u0 + 0.3 * sub.basis[0]
    verdict, numbers = checks.check_adaptation(point, sub, [0.3], REL_TOL)
    assert verdict.ok, verdict.detail
    assert abs(numbers["w_star"] - 0.3) < 1e-6
    # Off by 1e-2 the gap is about 9e-6 nats, above rel_tol * max(1, KL) = 1e-6.
    for moved in (0.3 + 1e-2, 0.0):  # 0.0: the projection that never leaves its start
        verdict, _ = checks.check_adaptation(point, sub, [moved], REL_TOL)
        assert not verdict.ok


def test_adaptation_search_finds_an_interior_minimum(model):
    fitted, small, _ = model
    sub = fitted.subspace
    point = checks.task_point(fitted, small.new_tasks[0])
    w_star, kl_star = checks.line_minimum(point, sub.u0, sub.basis[0], 0.0)
    data = checks.from_natural(point)
    for dw in (-1e-3, 1e-3):
        assert checks.kl(data, checks.from_natural(sub.u0 + (w_star + dw) * sub.basis[0])) > kl_star


def test_prediction_passes_and_rejects_lengthscale_021(model):
    fitted, small, _ = model
    x = small.new_eval[0].inputs
    for w in (0, np.array([0.5])):
        weights = fitted.weights[0] if isinstance(w, int) else w
        means, variances = gp_pca.predict_batch(fitted, w, x)
        verdict = checks.check_prediction(fitted, weights, x, means, variances)
        assert verdict.ok, verdict.detail
        other = replace(fitted, prior=replace(fitted.prior, kernel=KernelConfig("rbf", 0.21)))
        means, variances = gp_pca.predict_batch(other, w, x)
        assert not checks.check_prediction(fitted, weights, x, means, variances).ok


def test_prediction_rejects_negative_and_non_finite(model):
    fitted, small, _ = model
    x = small.new_eval[0].inputs
    means, variances = gp_pca.predict_batch(fitted, 0, x)
    assert not checks.check_prediction(fitted, fitted.weights[0], x, means, -variances - 1.0).ok
    assert not checks.check_prediction(fitted, fitted.weights[0], x, means * np.nan, variances).ok


def test_report_cells_pass_and_reject_a_changed_cell():
    expected = {("gp", 3, 0, "test"): ([0.5, 0.7], 20)}
    assert checks.check_report_cells([("gp", "3", "0", "test", repr(0.6))], expected).ok
    assert not checks.check_report_cells([("gp", "3", "0", "test", repr(0.6 * (1 + 1e-9)))], expected).ok
    assert not checks.check_report_cells([], expected).ok


def test_line_interval_is_the_cone():
    # Precision 1 + w * (-1): valid for w < 1 only.
    u0 = np.array([0.0, -0.5])
    direction = np.array([0.0, 0.5])
    lo, hi = checks.line_interval(u0, direction)
    assert lo == -np.inf and hi == pytest.approx(1.0)


def test_a_cell_that_raises_is_counted_and_the_round_goes_on(tmp_path, monkeypatch):
    cfg = ExperimentConfig(
        experiment="artificial", n_sweep=(3, 5), repetitions=1, mode="sparse",
        data=dict(SMALL), inducing_count=6,
        fit_opts=FitOptions(max_iters=200), adapt_opts=FitOptions(rel_tol=1e-6, max_iters=200),
    )
    train = gp_pca.train

    def train_failing_at_n3(tasks, *args, **kwargs):
        if len(tasks[0]) == 3:
            raise ValueError("deliberate")
        return train(tasks, *args, **kwargs)

    monkeypatch.setattr(gp_pca, "train", train_failing_at_n3)
    inputs = workloads.cell_inputs(cfg, seed=1)
    result = protocol.run_round(cfg, inputs, tmp_path, keep_cells=True)
    failed, done = result.cells
    assert failed.error == "ValueError: deliberate" and done.error is None
    assert {c["n"] for c in result.report.cells} == {5}
    verdicts = checks.check_cell(failed, inputs[(0, 3)].operations, cfg.adapt_opts.rel_tol)
    assert verdicts.failed == {"cell raised ValueError": inputs[(0, 3)].operations}
    assert checks.check_report(result.cells, tmp_path).ok


def test_own_vdp_split_matches_the_integrator():
    from gppca.datasets import integrate_vdp

    gen_cfg = VdpConfig(**workloads.WORKLOADS["vdp-sparse"].config().data)
    alphas = [0.1, 0.55, 1.0]
    own = workloads._vdp_split(alphas, [4, 5, 6], gen_cfg, np.random.default_rng(7), 3)
    all_inits = np.random.default_rng(7).uniform(-2.5, 2.5, size=(3, 3, 2))
    stride = int(round(gen_cfg.dt / gen_cfg.substep))
    burn = int(round(gen_cfg.eval_burn_in / gen_cfg.substep))
    steps = (gen_cfg.points_per_sequence - 1) * stride
    for alpha, task, inits in zip(alphas, own, all_inits):
        xs, vs = [], []
        for init in inits:
            start = integrate_vdp(alpha, init, gen_cfg.substep, burn)[-1, 1:3]
            rec = integrate_vdp(alpha, start, gen_cfg.dt / stride, steps)[::stride]
            xs.append(rec[:-1, 1])
            vs.append(np.diff(rec[:, 1]) / np.diff(rec[:, 0]))
        np.testing.assert_allclose(task.inputs[:, 0], np.concatenate(xs), rtol=0, atol=1e-12)
        np.testing.assert_allclose(task.outputs, np.concatenate(vs), rtol=0, atol=1e-10)
    assert [t.task_id for t in own] == [4, 5, 6]

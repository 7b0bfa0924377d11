import csv
from collections import Counter

import pytest

from gppca import evaluation
from gppca.epca import FitOptions
from gppca.evaluation import ExperimentConfig, run_experiment
from gppca.kernels_gp import GpPrior, KernelConfig


def test_unset_hyperparameters_come_from_the_experiment():
    artificial, vdp = (ExperimentConfig(experiment=e) for e in ("artificial", "vdp"))
    assert (artificial.lengthscale, artificial.beta) == (0.2, 25.0)
    assert (vdp.lengthscale, vdp.beta) == (0.6, 50.0)
    given = ExperimentConfig(experiment="vdp", lengthscale=0.3, beta=10.0)
    assert (given.lengthscale, given.beta) == (0.3, 10.0)


def test_a_cell_hashes_its_splits_once_and_reports_train_then_held_out_tasks():
    cfg = ExperimentConfig(
        experiment="artificial", n_sweep=(4, 3), repetitions=2,
        data={"num_tasks": 3, "eval_points_per_task": 5, "num_new_tasks": 2},
        fit_opts=FitOptions(max_iters=50),
    )
    report = run_experiment(cfg)
    # Evaluation splits depend on the repetition's seed, not on N.
    hashes = report.split_hashes
    assert sorted(hashes) == ["0:3", "0:4", "1:3", "1:4"]
    assert all(isinstance(h, str) and len(h) == 64 for h in hashes.values())
    assert hashes["0:3"] == hashes["0:4"] != hashes["1:3"] == hashes["1:4"]
    assert Counter((r["method"], r["split"]) for r in report.per_task) == {
        ("gp", "train"): 12, ("gp", "test"): 8, ("gp_epca", "train"): 12, ("gp_epca", "test"): 8,
    }
    assert [(r["task_id"], r["kind"]) for r in report.latents[:5]] == [
        (0, "train"), (1, "train"), (2, "train"), (3, "new"), (4, "new"),
    ]
    assert [len(rows) for rows in (report.cells, report.summary())] == [16, 8]


def test_a_value_error_outside_the_generator_is_not_a_data_section_error(monkeypatch):
    def failing(*args):
        raise ValueError("not from the generator")

    monkeypatch.setattr(evaluation, "gp_predictive_batch", failing)
    cfg = ExperimentConfig(
        experiment="artificial", n_sweep=(3,), repetitions=1, methods=("gp",),
        data={"num_tasks": 3, "eval_points_per_task": 5, "num_new_tasks": 2},
    )
    with pytest.raises(ValueError, match="not from the generator") as raised:
        run_experiment(cfg)
    assert type(raised.value) is ValueError


@pytest.mark.parametrize(
    "given, named",
    [
        ({"beta": -1.0}, "beta"),
        ({"lengthscale": 0.0}, "lengthscale"),
        ({"prior_mean": float("nan")}, "mean"),
    ],
    ids=["beta-negative", "lengthscale-zero", "prior_mean-nan"],
)
def test_an_invalid_prior_is_rejected_at_construction(given, named):
    with pytest.raises(ValueError, match=named):
        ExperimentConfig(experiment="artificial", **given)


@pytest.mark.parametrize(
    "given, named",
    [
        ({"latent_dim": True}, "^latent_dim must be an integer in .* got True$"),
        ({"latent_dim": 1.5}, "^latent_dim must be an integer in .* got 1.5$"),
        ({"inducing_count": True}, "^inducing_count must be an integer >= 1, got True$"),
        ({"inducing_count": 1.5}, "^inducing_count must be an integer >= 1, got 1.5$"),
    ],
    ids=["latent_dim-bool", "latent_dim-fraction", "inducing_count-bool", "inducing_count-fraction"],
)
def test_a_model_setting_that_is_not_an_integer_is_rejected_at_construction(given, named):
    with pytest.raises(ValueError, match=named):
        ExperimentConfig(experiment="artificial", **given)


def test_the_prior_is_kept_as_an_attribute_not_a_recorded_field():
    cfg = ExperimentConfig(experiment="vdp", lengthscale=0.3, beta=10.0, prior_mean=0.5)
    kernel = KernelConfig(kind="rbf", lengthscale=0.3)
    assert cfg.prior == GpPrior(kernel=kernel, beta=10.0, mean_fn=0.5)
    assert "prior" not in cfg.to_dict()


def test_latents_csv_orders_the_weight_columns_numerically(tmp_path):
    # Written in reverse, so neither string order (w0, w1, w10, ...) nor insertion order passes.
    weights = {f"w{j}": float(j) for j in reversed(range(12))}
    row = {"repetition": 0, "n": 3, "task_id": 0, "kind": "train", "latent": 0.5, **weights}
    report = evaluation.ExperimentReport(
        config={}, config_hash="", cells=[], per_task=[], latents=[row], split_hashes={},
        total_seconds=0.0,
    )
    evaluation.write_report_files(report, tmp_path)
    with open(tmp_path / "latents.csv", newline="", encoding="utf-8") as fh:
        header, values = csv.reader(fh)
    assert header[5:] == [f"w{j}" for j in range(12)]
    assert values[5:] == [repr(float(j)) for j in range(12)]


@pytest.mark.parametrize("latent_dim", [1, 2])
def test_held_out_tasks_beat_independent_gps_at_small_n(latent_dim):
    # The paper's third claim, on one artificial sparse cell at N = 10.
    report = run_experiment(
        ExperimentConfig(
            experiment="artificial", n_sweep=(10,), repetitions=1, data={"num_new_tasks": 20},
            latent_dim=latent_dim,
        )
    )
    held_out = {c["method"]: c["rmse"] for c in report.cells if c["split"] == "test"}
    assert held_out["gp_epca"] <= held_out["gp"]

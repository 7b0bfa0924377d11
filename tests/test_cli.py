import csv
import json
import math
import shutil

import numpy as np
import pytest

from gppca import cli, gp_pca
from gppca.epca import FitOptions
from gppca.kernels_gp import GpPrior, TaskData

# One tiny artificial configuration shared by every command.
CONFIG = {
    "experiment": "artificial",
    "data": {
        "num_tasks": 5,
        "samples_per_task": 5,
        "eval_points_per_task": 10,
        "num_new_tasks": 3,
        "seed": 1,
    },
    "model": {"mode": "sparse", "latent_dim": 1, "inducing_count": 6},
    "fit": {"max_iters": 200},
    "evaluate": {"n_sweep": [3], "repetitions": 1},
}

REPORT_FILES = ("report.csv", "per_task.csv", "latents.csv", "summary.json")


def _write_config(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_generate_train_adapt_predict_export(tmp_path):
    config = _write_config(tmp_path / "config.json", CONFIG)
    data, model, adapted = tmp_path / "data", tmp_path / "model.json", tmp_path / "adapted.json"
    fewshot = tmp_path / "fewshot.csv"
    fewshot.write_text("x,y\n0.1,1.2\n0.5,0.4\n0.8,-0.3\n", encoding="utf-8")

    assert cli.main(["generate", "--config", config, "--out", str(data)]) == 0
    assert (data / "dataset.csv").is_file() and (data / "manifest.json").is_file()

    assert cli.main(["train", "--data", str(data), "--out", str(model)]) == 0
    trained = json.loads(model.read_text(encoding="utf-8"))
    assert len(trained["weights"]) == CONFIG["data"]["num_tasks"]

    assert cli.main(
        ["adapt", "--model", str(model), "--data", str(fewshot), "--out", str(adapted)]
    ) == 0
    assert len(json.loads(adapted.read_text(encoding="utf-8"))["weights"]) == 6

    pred = tmp_path / "pred.csv"
    assert cli.main(
        ["predict", "--model", str(adapted), "--task", "5", "--grid", "0:1:7", "--out", str(pred)]
    ) == 0
    rows = _rows(pred)
    assert rows[0] == ["x", "mean", "variance"] and len(rows) == 8

    curves = tmp_path / "curves.csv"
    assert cli.main(
        ["export-plot", "--kind", "curves", "--model", str(model), "--data", str(data),
         "--grid", "0:1:4", "--out", str(curves)]
    ) == 0
    rows = _rows(curves)
    assert rows[0] == ["task_id", "x", "mean", "variance", "latent"] and len(rows) == 1 + 5 * 4


def test_adapt_moves_on_an_exact_plane(tmp_path, capsys):
    # Latent dimension 2 in exact mode: the projection once stopped at w = 0 there.
    config = _write_config(tmp_path / "config.json", CONFIG)
    data, model = tmp_path / "data", tmp_path / "model.json"
    fewshot = tmp_path / "fewshot.csv"
    fewshot.write_text("x,y\n0.1,1.2\n0.5,0.4\n0.8,-0.3\n", encoding="utf-8")
    assert cli.main(["generate", "--config", config, "--out", str(data)]) == 0
    assert cli.main(
        ["train", "--data", str(data), "--mode", "exact", "--latent-dim", "2", "--out", str(model)]
    ) == 0
    capsys.readouterr()
    assert cli.main(["adapt", "--model", str(model), "--data", str(fewshot)]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith("adapted weights: ")
    weights = json.loads(line[len("adapted weights: "):])
    assert len(weights) == 2 and all(w != 0.0 for w in weights)


def test_evaluate_rewrites_identical_files(tmp_path):
    config = _write_config(tmp_path / "config.json", CONFIG)
    first, second = tmp_path / "first", tmp_path / "second"
    assert cli.main(["evaluate", "--config", config, "--out", str(first)]) == 0
    assert cli.main(["evaluate", "--config", config, "--out", str(second)]) == 0
    for name in REPORT_FILES:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name

    table = tmp_path / "rmse.csv"
    assert cli.main(
        ["export-plot", "--kind", "rmse", "--report", str(first), "--out", str(table)]
    ) == 0
    assert _rows(table)[0] == ["method", "N", "split", "mean_rmse", "std_rmse"]


def test_evaluate_in_worker_processes_writes_identical_files(tmp_path):
    # Two repetitions, so each of the two workers runs a cell.
    config = _write_config(
        tmp_path / "config.json", {**CONFIG, "evaluate": {**CONFIG["evaluate"], "repetitions": 2}}
    )
    serial, pooled = tmp_path / "serial", tmp_path / "pooled"
    assert cli.main(["evaluate", "--config", config, "--out", str(serial)]) == 0
    assert cli.main(["evaluate", "--config", config, "--out", str(pooled), "--jobs", "2"]) == 0
    # The worker count decides how cells run, not what they compute, so the
    # recorded configuration and its hash leave it out.
    for name in REPORT_FILES:
        assert (serial / name).read_bytes() == (pooled / name).read_bytes(), name


def test_evaluate_records_the_same_summary_whatever_the_ignored_data_seed(tmp_path):
    # `generate` draws from data.seed; `evaluate` seeds each cell from evaluate.base_seed.
    written = {}
    for seed in (1, 2):
        config = _write_config(
            tmp_path / f"config{seed}.json", {**CONFIG, "data": {**CONFIG["data"], "seed": seed}}
        )
        out, data = tmp_path / f"report{seed}", tmp_path / f"data{seed}"
        assert cli.main(["evaluate", "--config", config, "--out", str(out)]) == 0
        assert cli.main(["generate", "--config", config, "--out", str(data)]) == 0
        written[seed] = (out / "summary.json").read_bytes(), (data / "dataset.csv").read_bytes()
    assert written[1][0] == written[2][0]
    assert written[1][1] != written[2][1]


REMOVED_OPTIONS = {"seed": 0, "learning_rate": 0.1, "backtrack_factor": 0.5}


@pytest.mark.parametrize(
    "section, key",
    [
        pytest.param("fit", "seed", id="fit"),
        pytest.param("adapt", "seed", id="adapt"),
        *(
            pytest.param(section, key, id=f"{section}-{key}")
            for section in ("fit", "adapt")
            for key in ("learning_rate", "backtrack_factor")
        ),
    ],
)
def test_seed_option_is_rejected(tmp_path, capsys, section, key):
    doc = {**CONFIG, section: {key: REMOVED_OPTIONS[key]}}
    config = _write_config(tmp_path / "config.json", doc)
    assert cli.main(["evaluate", "--config", config, "--out", str(tmp_path / "out")]) == 1
    assert f"'{section}.{key}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "change, named",
    [
        ({"kernel": {"kind": "matern"}}, ("'kernel'", "kind", "'matern'")),
        ({"kernel": {"lengthscale": -0.2}}, ("'kernel'", "lengthscale", "-0.2")),
        ({"beta": -1}, ("'beta'", "-1")),
        ({"model": {**CONFIG["model"], "mode": "bogus"}}, ("mode", "'bogus'")),
        ({"evaluate": {**CONFIG["evaluate"], "methods": ["gp", "nn"]}}, ("method", "'nn'")),
        ({"data": {**CONFIG["data"], "noise_variance": -1}}, ("'data'", "noise_variance")),
        ({"model": {**CONFIG["model"], "latent_dim": 5}}, ("latent_dim", "5 training tasks")),
        ({"beta": None}, ("'beta'", "null")),
        ({"beta": math.inf}, ("'beta'", "finite", "inf")),  # JSON 1e400 parses to inf
        ({"experiment": "vdp", "data": {"dt": math.inf}}, ("'data.dt'", "finite", "inf")),
        ({"experiment": "vdp", "data": {"substep": math.nan}}, ("'data.substep'", "finite")),
        ({"kernel": {"lengthscale": None}}, ("'kernel.lengthscale'", "null")),
        ({"evaluate": {**CONFIG["evaluate"], "n_sweep": None}}, ("'evaluate.n_sweep'", "null")),
        (
            {"evaluate": {**CONFIG["evaluate"], "repetitions": None}},
            ("'evaluate.repetitions'", "null"),
        ),
        (
            {"model": {**CONFIG["model"], "inducing_count": None}},
            ("'model.inducing_count'", "null"),
        ),
        ({"model": {**CONFIG["model"], "inducing_count": 0}}, ("inducing_count", "0")),
        ({"evaluate": {**CONFIG["evaluate"], "repetitions": 0}}, ("repetitions", "0")),
        ({"evaluate": {**CONFIG["evaluate"], "n_sweep": []}}, ("n_sweep",)),
        ({"evaluate": {**CONFIG["evaluate"], "methods": []}}, ("methods",)),
        ({"evaluate": {**CONFIG["evaluate"], "n_sweep": [2.5]}}, ("evaluate.n_sweep", "2.5")),
        ({"evaluate": {**CONFIG["evaluate"], "n_sweep": ["a"]}}, ("evaluate.n_sweep", "'a'")),
        ({"evaluate": {**CONFIG["evaluate"], "n_sweep": [0]}}, ("evaluate.n_sweep", "0")),
        ({"evaluate": {**CONFIG["evaluate"], "n_sweep": [True]}}, ("evaluate.n_sweep", "True")),
        ({"evaluate": {**CONFIG["evaluate"], "base_seed": -1}}, ("evaluate.base_seed", "-1")),
        (["--jobs", "0"], ("jobs", "0")),
        (["--jobs", "-3"], ("jobs", "-3")),
        ({"evaluate": {**CONFIG["evaluate"], "n_sweep": [3, 3]}}, ("evaluate.n_sweep", "[3, 3]")),
        (
            {"evaluate": {**CONFIG["evaluate"], "methods": ["gp", "gp"]}},
            ("evaluate.methods", "['gp', 'gp']"),
        ),
        ({"data": {**CONFIG["data"], "z_values": ["a"] * 5}}, ("'data.z_values'", "'a'")),
        ({"experiment": "vdp", "data": {"alphas": [0.5, "b"]}}, ("'data.alphas'", "'b'")),
        ({"experiment": "vdp", "data": {"initial_state": ["a", 0]}}, ("'data.initial_state'", "'a'")),
        (
            {"data": {**CONFIG["data"], "eval_points_per_task": 0}},
            ("'data'", "eval_points_per_task", "0"),
        ),
        ({"data": {**CONFIG["data"], "new_task_samples": 0}}, ("'data'", "new_task_samples", "0")),
        ({"data": {**CONFIG["data"], "num_new_tasks": -1}}, ("'data'", "num_new_tasks", "-1")),
        ({"experiment": "vdp", "data": {"num_new_tasks": -1}}, ("'data'", "num_new_tasks", "-1")),
    ],
    ids=[
        "kernel-kind", "lengthscale", "beta", "mode", "method",
        "data-value", "latent_dim", "beta-null", "beta-infinite", "dt-infinite", "substep-nan",
        "lengthscale-null",
        "n_sweep-null", "repetitions-null", "inducing_count-null",
        "inducing_count-zero", "repetitions-zero", "n_sweep-empty", "methods-empty",
        "n_sweep-float", "n_sweep-string", "n_sweep-zero", "n_sweep-bool", "base_seed-negative",
        "jobs-zero", "jobs-negative", "n_sweep-repeated", "methods-repeated",
        "z_values-string", "alphas-string", "initial_state-string",
        "eval_points_per_task-zero", "new_task_samples-zero", "num_new_tasks-negative",
        "vdp-num_new_tasks-negative",
    ],
)
def test_evaluate_rejects_invalid_configuration(tmp_path, capsys, change, named):
    # A dict changes CONFIG; a list is extra command-line arguments.
    doc, flags = ({**CONFIG, **change}, []) if isinstance(change, dict) else (CONFIG, change)
    config = _write_config(tmp_path / "config.json", doc)
    assert cli.main(["evaluate", "--config", config, "--out", str(tmp_path / "out"), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    for text in named:
        assert text in err
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """A dataset directory from `generate` on CONFIG."""
    tmp = tmp_path_factory.mktemp("generated")
    config = _write_config(tmp / "config.json", CONFIG)
    assert cli.main(["generate", "--config", config, "--out", str(tmp / "data")]) == 0
    return tmp / "data"


@pytest.mark.parametrize(
    "model, named",
    [
        ({"inducing_count": None}, ("'model.inducing_count'", "null")),
        ({"latent_dim": None}, ("'model.latent_dim'", "null")),
        ({"inducing_count": 0}, ("inducing_count", "0")),
        ({"latent_dim": -1}, ("latent_dim", "-1", "5 training tasks")),
        ({"latent_dim": 5}, ("latent_dim", "5 training tasks")),
    ],
    ids=["inducing_count-null", "latent_dim-null", "inducing_count-zero", "latent_dim-negative",
         "latent_dim-too-large"],
)
def test_train_rejects_invalid_configuration(tmp_path, capsys, generated, model, named):
    config = _write_config(tmp_path / "config.json", {**CONFIG, "model": {**CONFIG["model"], **model}})
    out = tmp_path / "model.json"
    assert cli.main(["train", "--data", str(generated), "--config", config, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    for text in named:
        assert text in err
    assert not out.exists()


@pytest.fixture(scope="module")
def trained(generated, tmp_path_factory):
    """A sparse, one-dimensional model from `train` on the `generated` dataset."""
    model = tmp_path_factory.mktemp("trained") / "model.json"
    assert cli.main(["train", "--data", str(generated), "--out", str(model)]) == 0
    return model


def test_train_flags_override_the_model_section(tmp_path, generated):
    out = tmp_path / "model.json"
    assert cli.main(
        ["train", "--data", str(generated), "--mode", "exact", "--latent-dim", "2",
         "--out", str(out)]
    ) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["mode"] == "exact" and doc["latent_dim"] == 2
    assert np.asarray(doc["weights"]).shape == (CONFIG["data"]["num_tasks"], 2)
    # Exact mode anchors on the union of the 5 tasks' 5 training inputs.
    assert len(doc["anchor"]) == CONFIG["data"]["num_tasks"] * CONFIG["data"]["samples_per_task"]


def test_predict_from_weights_at_an_inputs_file(tmp_path, trained):
    inputs = tmp_path / "inputs.csv"
    inputs.write_text("x\n0.1\n0.45\n0.9\n", encoding="utf-8")
    weights = json.loads(trained.read_text(encoding="utf-8"))["weights"][0]
    by_weights, by_task = tmp_path / "weights.csv", tmp_path / "task.csv"
    spec = ",".join(repr(w) for w in weights)
    assert cli.main(
        ["predict", "--model", str(trained), "--weights", spec, "--inputs", str(inputs),
         "--out", str(by_weights)]
    ) == 0
    assert cli.main(
        ["predict", "--model", str(trained), "--task", "0", "--inputs", str(inputs),
         "--out", str(by_task)]
    ) == 0
    rows = _rows(by_weights)
    assert rows[0] == ["x", "mean", "variance"]
    assert [r[0] for r in rows[1:]] == ["0.1", "0.45", "0.9"]
    # Task 0's own weights predict what task 0 does.
    assert rows == _rows(by_task)


@pytest.mark.parametrize("weights", ["a", "nan", "inf"])
def test_predict_rejects_weights_that_are_not_finite_numbers(tmp_path, capsys, trained, weights):
    out = tmp_path / "pred.csv"
    assert cli.main(
        ["predict", "--model", str(trained), "--weights", weights, "--grid", "0:1:3",
         "--out", str(out)]
    ) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and "--weights must be" in err
    assert repr(weights) in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag, text",
    [
        ("predict", "--inputs", "x0,x1\n0.1,0.2\n0.5,0.6\n"),
        ("adapt", "--data", "x,y\n0.1,nan\n0.5,0.4\n"),
        ("adapt", "--data", "x0,x1,y\n0.1,0.2,1.0\n"),
    ],
    ids=["predict-two-columns", "adapt-nan-output", "adapt-two-columns"],
)
def test_user_csv_that_does_not_fit_the_model_is_a_data_error(
    tmp_path, capsys, trained, command, flag, text
):
    data = tmp_path / "user.csv"
    data.write_text(text, encoding="utf-8")
    args = [command, "--model", str(trained), flag, str(data)]
    if command == "predict":
        args += ["--task", "0", "--out", str(tmp_path / "pred.csv")]
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(data) in err


def test_model_file_whose_anchor_does_not_match_its_subspace_is_a_data_error(
    tmp_path, capsys, trained
):
    # One anchor point more than the subspace's coordinates describe (6 points, flat dim 42).
    doc = json.loads(trained.read_text(encoding="utf-8"))
    doc["anchor"].append([0.5])
    model, out = tmp_path / "model.json", tmp_path / "pred.csv"
    model.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(
        ["predict", "--model", str(model), "--task", "0", "--grid", "0:1:3", "--out", str(out)]
    ) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: cannot load model ")
    assert "subspace flat dim 42 does not match 7 anchor points" in err
    assert not out.exists()


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_model_file_with_a_non_finite_anchor_point_is_a_data_error(tmp_path, capsys, trained, value):
    doc = json.loads(trained.read_text(encoding="utf-8"))
    doc["anchor"][0][0] = value  # a NaN or Infinity token
    model, out = tmp_path / "model.json", tmp_path / "pred.csv"
    model.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(
        ["predict", "--model", str(model), "--task", "0", "--grid", "0:1:3", "--out", str(out)]
    ) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: cannot load model ")
    assert f"model field 'anchor' must be finite, got {value} at [0, 0]" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "field, value, named",
    [
        ("kernel", 5, "argument of type 'int' is not iterable"),
        ("u0", {}, "'dict'"),
        ("latent_dim", -1, "'latent_dim' must be a non-negative integer, got -1"),
        ("latent_dim", 1.7, "'latent_dim' must be a non-negative integer, got 1.7"),
        ("latent_dim", "1", "'latent_dim' must be a non-negative integer, got '1'"),
        ("latent_dim", True, "'latent_dim' must be a non-negative integer, got True"),
        ("beta", "20", "'beta' must be a finite number, got '20'"),
        ("beta", False, "'beta' must be a finite number, got False"),
        ("beta", math.inf, "'beta' must be a finite number, got inf"),  # JSON 1e400 parses to inf
        ("prior_mean_constant", "0", "'prior_mean_constant' must be a finite number, got '0'"),
        ("kernel", {"kind": "rbf", "lengthscale": "0.2"}, "'kernel.lengthscale' must be a finite"),
        ("weights", [[math.nan]], "'weights' must be finite, got nan at [0, 0]"),  # a NaN token
        ("weights", [[math.inf]], "'weights' must be finite, got inf at [0, 0]"),
    ],
    ids=[
        "kernel-number", "u0-object", "latent_dim-negative", "latent_dim-fraction",
        "latent_dim-string", "latent_dim-bool", "beta-string", "beta-bool", "beta-infinite",
        "prior_mean_constant-string", "lengthscale-string", "weights-nan", "weights-infinite",
    ],
)
def test_model_file_with_a_field_of_the_wrong_type_is_a_data_error(
    tmp_path, capsys, trained, field, value, named
):
    doc = json.loads(trained.read_text(encoding="utf-8"))
    doc[field] = value
    model, out = tmp_path / "model.json", tmp_path / "pred.csv"
    model.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(
        ["predict", "--model", str(model), "--task", "0", "--grid", "0:1:3", "--out", str(out)]
    ) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: cannot load model ") and named in err
    assert not out.exists()


@pytest.fixture(scope="module")
def two_input_model(tmp_path_factory):
    """An exact model file whose inputs have two columns."""
    rng = np.random.default_rng(0)
    tasks = [TaskData(rng.uniform(size=(4, 2)), rng.normal(size=4), i) for i in range(3)]
    model = gp_pca.train(tasks, GpPrior(), 1, mode="exact", opts=FitOptions(max_iters=50))
    path = tmp_path_factory.mktemp("two_inputs") / "model.json"
    gp_pca.save_model(model, path)
    return path


@pytest.mark.parametrize(
    "args",
    [
        ["predict", "--task", "0", "--grid", "0:1:3"],
        ["export-plot", "--kind", "curves", "--grid", "0:1:3"],
        ["export-plot", "--kind", "curves"],  # its default grid
    ],
    ids=["predict", "export-plot", "export-plot-default-grid"],
)
def test_grid_on_a_model_with_two_inputs_is_a_configuration_error(
    tmp_path, capsys, two_input_model, args
):
    out = tmp_path / "out.csv"
    assert cli.main([*args, "--model", str(two_input_model), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: --grid spans one input")
    assert "have 2 columns" in err and "--inputs" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, named",
    [("{not json", "JSONDecodeError"), ('{"rows": []}', "KeyError('summary')")],
    ids=["not-json", "no-summary-key"],
)
def test_export_plot_rmse_on_a_malformed_summary_is_a_data_error(tmp_path, capsys, text, named):
    report, out = tmp_path / "report", tmp_path / "rmse.csv"
    report.mkdir()
    (report / "summary.json").write_text(text, encoding="utf-8")
    assert cli.main(["export-plot", "--kind", "rmse", "--report", str(report), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "summary.json" in err and named in err
    assert not out.exists()


def test_generate_with_a_diverging_trajectory_is_a_configuration_error(tmp_path, capsys):
    # RK4 at the default step diverges for a large alpha, so the task holds NaN.
    config = _write_config(tmp_path / "config.json", {"data": {"alphas": [1000.0, 0.5]}})
    with np.errstate(over="ignore", invalid="ignore"):
        code = cli.main(["generate", "--experiment", "vdp", "--config", config,
                         "--out", str(tmp_path / "data")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: invalid 'data' section: task 0: ")
    assert "finite" in err
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_evaluate_with_a_diverging_trajectory_is_a_configuration_error(tmp_path, capsys, jobs):
    # `evaluate` generates inside each cell, in a worker process when jobs > 1.
    config = _write_config(tmp_path / "config.json", {
        "experiment": "vdp", "data": {"alphas": [1000.0, 0.5, 0.7]},
        "evaluate": {"n_sweep": [2], "repetitions": 2, "methods": ["gp"]},
    })
    with np.errstate(over="ignore", invalid="ignore"):
        code = cli.main(["evaluate", "--config", config, "--out", str(tmp_path / "out"),
                         "--jobs", jobs])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: invalid 'data' section: task 0: ")
    assert "finite" in err
    assert not (tmp_path / "out").exists()


def test_generate_vdp_from_its_data_section(tmp_path, capsys):
    data = {
        "alphas": [0.2, 0.5, 0.9], "sequences_per_task": 2, "points_per_sequence": 3,
        "initial_state": [1.0, 0.0], "eval_sequences_per_task": 1, "num_new_tasks": 2, "seed": 3,
    }
    config = _write_config(tmp_path / "config.json", {"data": data})
    out = tmp_path / "data"
    assert cli.main(["generate", "--experiment", "vdp", "--config", config, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["experiment"] == "vdp" and manifest["latents_train"] == data["alphas"]
    assert len(manifest["train_task_ids"]) == 3 and len(manifest["new_task_ids"]) == 2
    # 3 + 2 tasks, each 2 sequences of 3 points, so 2 forward differences per sequence.
    assert sum(row[1] == "train" for row in _rows(out / "dataset.csv")) == 5 * 2 * 2

    config = _write_config(tmp_path / "wrong.json", {"data": {**data, "noise_variance": 0.1}})
    assert cli.main(["generate", "--experiment", "vdp", "--config", config, "--out", str(out)]) == 1
    assert "'data.noise_variance' does not apply to the vdp experiment" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, named",
    [
        ({"experiment": "artificial", "data": {"noise_variance": -1}}, "noise_variance"),
        ({"experiment": "vdp", "data": {"alphas": [-1.0, 0.5]}}, "alpha must be nonnegative"),
    ],
    ids=["artificial-noise", "vdp-alpha"],
)
def test_generate_rejects_a_value_the_generator_rejects(tmp_path, capsys, doc, named):
    config = _write_config(tmp_path / "config.json", doc)
    assert cli.main(["generate", "--config", config, "--out", str(tmp_path / "data")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: invalid 'data' section: ") and named in err
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize(
    "doc, key",
    [
        ({"experiment": "artificial", "data": {"num_tasks": 2, "z_values": ["a", "b"]}}, "z_values"),
        ({"experiment": "vdp", "data": {"alphas": [0.5, "b"]}}, "alphas"),
        ({"experiment": "vdp", "data": {"initial_state": ["a", 0]}}, "initial_state"),
        ({"experiment": "vdp", "data": {"initial_state": [True, 0]}}, "initial_state"),
        ({"experiment": "artificial", "data": {"num_tasks": 2, "z_values": [0.5, -math.inf]}},
         "z_values"),
    ],
    ids=["z_values-string", "alphas-string", "initial_state-string", "initial_state-bool",
         "z_values-infinite"],
)
def test_generate_rejects_a_data_list_that_is_not_numbers(tmp_path, capsys, doc, key):
    config = _write_config(tmp_path / "config.json", doc)
    assert cli.main(["generate", "--config", config, "--out", str(tmp_path / "data")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: key 'data.{key}' must be a list of numbers")
    assert not (tmp_path / "data").exists()


def test_partial_fit_and_adapt_sections_keep_their_other_defaults(tmp_path):
    doc = {
        **CONFIG,
        "fit": {"rel_tol": 1e-7},
        "adapt": {"max_iters": 500},
        "evaluate": {**CONFIG["evaluate"], "methods": ["gp"]},
    }
    config = _write_config(tmp_path / "config.json", doc)
    assert cli.main(["evaluate", "--config", config, "--out", str(tmp_path / "out")]) == 0
    recorded = json.loads((tmp_path / "out" / "summary.json").read_text(encoding="utf-8"))["config"]
    assert recorded["fit_opts"] == {"max_iters": 10_000, "rel_tol": 1e-7}
    assert recorded["adapt_opts"] == {"max_iters": 500, "rel_tol": 1e-6}


def _edit_line(path, index, edit):
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[index] = edit(lines[index])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _drop_train_rows_of_task_1(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    kept = [line for line in lines if not line.startswith("1,train,")]
    assert len(kept) < len(lines)
    path.write_text("\n".join(kept) + "\n", encoding="utf-8")


def _drop_train_ids(path):
    manifest = json.loads(path.read_text(encoding="utf-8"))
    del manifest["train_task_ids"]
    path.write_text(json.dumps(manifest), encoding="utf-8")


@pytest.mark.parametrize(
    "name, damage",
    [
        ("dataset.csv", lambda p: _edit_line(p, 1, lambda row: row.rsplit(",", 1)[0] + ",nan")),
        ("dataset.csv", lambda p: _edit_line(p, 1, lambda row: "zero" + row[row.index(","):])),
        ("dataset.csv", lambda p: _edit_line(p, 0, lambda row: "id,split,x,y")),
        ("dataset.csv", lambda p: _edit_line(p, 1, lambda row: row + ",0.5")),
        ("manifest.json", lambda p: p.write_text("{", encoding="utf-8")),
        ("manifest.json", _drop_train_ids),
        ("dataset.csv", _drop_train_rows_of_task_1),
    ],
    ids=["nan-y", "task-id-word", "header", "extra-column", "manifest-not-json",
         "manifest-without-train-ids", "train-task-without-rows"],
)
def test_train_on_a_malformed_dataset_is_a_data_error(tmp_path, capsys, generated, name, damage):
    data = tmp_path / "data"
    shutil.copytree(generated, data)
    damage(data / name)
    out = tmp_path / "model.json"
    assert cli.main(["train", "--data", str(data), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(data / name) in err
    assert not out.exists()


def test_train_names_manifest_task_ids_without_train_rows(tmp_path, capsys, generated):
    data = tmp_path / "data"
    shutil.copytree(generated, data)
    manifest = json.loads((data / "manifest.json").read_text(encoding="utf-8"))
    manifest["train_task_ids"] += [97, 98]
    (data / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    assert cli.main(["train", "--data", str(data), "--out", str(tmp_path / "model.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "train_task_ids [97, 98] have no 'train' rows" in err


def test_a_model_without_latent_dimensions_predicts_after_loading(tmp_path, generated):
    model, pred = tmp_path / "model.json", tmp_path / "pred.csv"
    assert cli.main(
        ["train", "--data", str(generated), "--latent-dim", "0", "--out", str(model)]
    ) == 0
    assert cli.main(
        ["predict", "--model", str(model), "--task", "4", "--grid", "0:1:3", "--out", str(pred)]
    ) == 0
    assert len(_rows(pred)) == 4


def test_export_plot_has_no_latent_kind(tmp_path):
    # `evaluate` writes latents.csv itself.
    with pytest.raises(SystemExit) as exc:
        cli.main(
            ["export-plot", "--kind", "latent", "--report", str(tmp_path),
             "--out", str(tmp_path / "latents.csv")]
        )
    assert exc.value.code == 2

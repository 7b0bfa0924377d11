import csv
import json

import pytest

from gppca import cli

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
    for name in ("report.csv", "per_task.csv", "latents.csv"):
        assert (serial / name).read_bytes() == (pooled / name).read_bytes(), name
    # summary.json records the configuration, worker count included, and its hash.
    first, second = (
        json.loads((d / "summary.json").read_text(encoding="utf-8")) for d in (serial, pooled)
    )
    assert second["config"] == {**first["config"], "jobs": 2}
    assert second["summary"] == first["summary"]
    assert second["split_hashes"] == first["split_hashes"]


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
    ],
    ids=[
        "kernel-kind", "lengthscale", "beta", "mode", "method",
        "data-value", "latent_dim", "beta-null", "lengthscale-null",
        "n_sweep-null", "repetitions-null", "inducing_count-null",
        "inducing_count-zero", "repetitions-zero", "n_sweep-empty", "methods-empty",
        "n_sweep-float", "n_sweep-string", "n_sweep-zero", "n_sweep-bool", "base_seed-negative",
        "jobs-zero", "jobs-negative",
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

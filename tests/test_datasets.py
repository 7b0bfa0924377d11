import numpy as np
import pytest

from gppca.datasets import (
    ArtificialConfig,
    VdpConfig,
    gen_artificial,
    integrate_vdp,
    read_dataset_csv,
    vdp_tasks,
)
from oracles import integrate_vdp_scalar, vdp_tasks_scalar

# Three training alphas, including the undamped 0, and two held-out tasks.
SMALL = dict(alphas=[0.0, 0.55, 1.0], sequences_per_task=3, eval_sequences_per_task=4, num_new_tasks=2)


def _all_tasks(d):
    return [*d.train_tasks, *d.train_eval, *d.new_tasks, *d.new_eval]


def _assert_same_tasks(a, b):
    assert len(a) == len(b)
    for s, t in zip(a, b):
        assert s.task_id == t.task_id
        assert np.array_equal(s.inputs, t.inputs) and np.array_equal(s.outputs, t.outputs)


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"substep": 0.03, "dt": 0.1},
        {"points_per_sequence": 2},
        {"new_task_sequences": 5},
        {"seed": 3},
    ],
    ids=["small", "uneven-substep", "two-points", "new-task-sequences", "seed-3"],
)
def test_vdp_tasks_match_scalar_reference(overrides):
    cfg = VdpConfig(**{**SMALL, **overrides})
    got, ref = vdp_tasks(cfg), vdp_tasks_scalar(cfg)
    _assert_same_tasks(_all_tasks(got), _all_tasks(ref))
    assert np.array_equal(got.latents_train, ref.latents_train)
    assert np.array_equal(got.latents_new, ref.latents_new)


@pytest.mark.parametrize("alpha, state0, dt, steps", [(0.7, (1.5, -0.3), 0.013, 300), (0.0, [2.0, 0.0], 0.1, 0)])
def test_integrate_vdp_matches_scalar_reference(alpha, state0, dt, steps):
    got = integrate_vdp(alpha, state0, dt, steps)
    assert got.shape == (steps + 1, 3)
    assert np.array_equal(got, integrate_vdp_scalar(alpha, state0, dt, steps))


def test_vdp_rejects_empty_sequences():
    for key in ("sequences_per_task", "eval_sequences_per_task", "new_task_sequences"):
        with pytest.raises(ValueError, match="at least one"):
            VdpConfig(**{key: 0})


ARTIFICIAL = dict(num_tasks=4, samples_per_task=5, eval_points_per_task=6, num_new_tasks=3)


@pytest.mark.parametrize("change", [{"num_new_tasks": 7}, {"eval_points_per_task": 11}])
def test_artificial_training_tasks_ignore_other_sizes(change):
    base = gen_artificial(ArtificialConfig(**ARTIFICIAL))
    other = gen_artificial(ArtificialConfig(**{**ARTIFICIAL, **change}))
    _assert_same_tasks(base.train_tasks, other.train_tasks)


def test_artificial_seed_changes_training_tasks():
    a = gen_artificial(ArtificialConfig(**ARTIFICIAL))
    b = gen_artificial(ArtificialConfig(**{**ARTIFICIAL, "seed": 1}))
    for s, t in zip(a.train_tasks, b.train_tasks):
        assert not np.array_equal(s.inputs, t.inputs)
        assert not np.array_equal(s.outputs, t.outputs)


@pytest.mark.parametrize("change", [{"num_new_tasks": 5}, {"eval_sequences_per_task": 9}])
def test_vdp_training_tasks_ignore_other_sizes(change):
    base = vdp_tasks(VdpConfig(**SMALL))
    other = vdp_tasks(VdpConfig(**{**SMALL, **change}))
    _assert_same_tasks(base.train_tasks, other.train_tasks)


def test_vdp_seed_changes_held_out_alphas_and_evaluation_states():
    a = vdp_tasks(VdpConfig(**SMALL))
    b = vdp_tasks(VdpConfig(**{**SMALL, "seed": 1}))
    # Training sequences all start from the shared initial state.
    _assert_same_tasks(a.train_tasks, b.train_tasks)
    assert not np.any(a.latents_new == b.latents_new)
    for s, t in zip(a.train_eval + a.new_eval, b.train_eval + b.new_eval):
        assert not np.array_equal(s.inputs, t.inputs)


def test_an_empty_split_read_from_csv_keeps_the_input_width(tmp_path):
    path = tmp_path / "dataset.csv"
    path.write_text(
        "task_id,split,x0,x1,y\n0,train,0.1,0.2,1.0\n0,test,0.3,0.4,0.5\n1,train,0.5,0.6,0.7\n",
        encoding="utf-8",
    )
    data = read_dataset_csv(path, [0, 1], [2])
    shapes = [t.inputs.shape for t in (*data.train_eval, *data.new_tasks, *data.new_eval)]
    assert shapes == [(1, 2), (0, 2), (0, 2), (0, 2)]

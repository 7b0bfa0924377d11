"""Deterministic generators for the two benchmark task families.

Artificial curves: each task interpolates between a sinusoid and a shifted
parabola through a latent z in [0, 1],

    y = z sin(2 pi x) + (1 - z) ((-x - 1)^2 + 1) + eps,   x ~ U(0, 1)

with Gaussian observation noise. Training-task latents sit on an even grid;
held-out task latents are drawn uniformly from a dedicated stream.

Van der Pol vector fields: tasks are damped oscillators

    x'' - alpha (1 - x^2) x' + x = 0

integrated by fixed-step RK4 from a common initial state. Each task's
trajectory is recorded at a coarse step and chopped into sequences of J
points; regression pairs are (x_j, v_j) with the forward difference
v_j = (x_{j+1} - x_j) / (t_{j+1} - t_j), giving N (J - 1) pairs per task.
Evaluation sequences restart from random initial states, each integrated
for a fixed burn-in of 1.0 time units (`VdpConfig.eval_burn_in`, not
configurable) before its sequence is recorded.

The regression input is the scalar position x alone. On the limit cycle
each x is passed twice, once per direction, so the velocity is two-valued
there and no function of x fits it: both the independent GP and the
subspace method sit at an RMSE of about 1.73 at N = 10. PAPER.md holds only the paper's
opening, which does not state this setup, so the task is kept as it is
rather than rebuilt on a guess (for instance, with (x, v) as input).

All randomness flows through numpy SeedSequence children keyed by purpose
and task index, so resizing one part of a dataset never reshuffles another.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import ClassVar, Optional, Sequence

import numpy as np

from gppca.kernels_gp import TaskData

__all__ = [
    "ArtificialConfig",
    "VdpConfig",
    "MultiTaskDataset",
    "artificial_curve",
    "gen_artificial",
    "integrate_vdp",
    "vdp_tasks",
    "write_dataset_csv",
    "read_dataset_csv",
]

# Purpose keys for seed streams; stable across config changes.
_STREAM_TRAIN_X = 0
_STREAM_TRAIN_NOISE = 1
_STREAM_EVAL_X = 2
_STREAM_EVAL_NOISE = 3
_STREAM_NEW_LATENT = 4
_STREAM_NEW_X = 5
_STREAM_NEW_NOISE = 6
_STREAM_NEW_EVAL_X = 7
_STREAM_NEW_EVAL_NOISE = 8
_STREAM_VDP_INIT = 9
_STREAM_VDP_EVAL_INIT = 10


def _rng(seed: int, purpose: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(purpose, index)))


@dataclass(frozen=True)
class MultiTaskDataset:
    """Training tasks with per-task evaluation splits, plus held-out tasks."""

    train_tasks: list
    train_eval: list
    new_tasks: list
    new_eval: list
    latents_train: np.ndarray
    latents_new: np.ndarray


@dataclass(frozen=True)
class ArtificialConfig:
    num_tasks: int = 20
    samples_per_task: int = 10
    noise_variance: float = 0.04
    seed: int = 0
    z_values: Optional[Sequence[float]] = None  # None: even grid on [0, 1]
    eval_points_per_task: int = 100
    num_new_tasks: int = 100
    new_task_samples: Optional[int] = None  # None: same as samples_per_task

    def __post_init__(self):
        if self.num_tasks < 1 or self.samples_per_task < 1:
            raise ValueError("num_tasks and samples_per_task must be at least 1")
        if self.eval_points_per_task < 1:
            raise ValueError(
                f"eval_points_per_task must be at least 1, got {self.eval_points_per_task}"
            )
        if self.new_task_samples is not None and self.new_task_samples < 1:
            raise ValueError(f"new_task_samples must be at least 1, got {self.new_task_samples}")
        if self.num_new_tasks < 0:
            raise ValueError(f"num_new_tasks must be nonnegative, got {self.num_new_tasks}")
        if not self.noise_variance > 0:
            raise ValueError("noise_variance must be positive")
        if self.z_values is not None and len(self.z_values) != self.num_tasks:
            raise ValueError(f"{len(self.z_values)} z values for {self.num_tasks} tasks")


def artificial_curve(z: float, x) -> np.ndarray:
    """Noise-free task curve: z sin(2 pi x) + (1 - z) ((-x - 1)^2 + 1)."""
    x = np.asarray(x, dtype=float)
    return z * np.sin(2.0 * np.pi * x) + (1.0 - z) * ((-x - 1.0) ** 2 + 1.0)


def _artificial_split(cfg, latents, n, x_stream, noise_stream, first_id) -> list:
    """One task of `n` noisy samples per latent, with ids from `first_id` on.

    Task i draws its inputs from stream (x_stream, i) and its noise from
    stream (noise_stream, i).
    """
    noise_std = float(np.sqrt(cfg.noise_variance))
    tasks = []
    for i, z in enumerate(latents):
        x = _rng(cfg.seed, x_stream, i).uniform(0.0, 1.0, size=n)
        eps = _rng(cfg.seed, noise_stream, i).normal(0.0, noise_std, size=n)
        y = artificial_curve(z, x) + eps
        tasks.append(TaskData(inputs=x.reshape(-1, 1), outputs=y, task_id=first_id + i))
    return tasks


def gen_artificial(cfg: ArtificialConfig) -> MultiTaskDataset:
    """Training tasks on the latent grid plus freshly drawn held-out tasks."""
    if cfg.z_values is not None:
        z_train = np.asarray(list(cfg.z_values), dtype=float)
    elif cfg.num_tasks == 1:
        z_train = np.array([0.5])
    else:
        z_train = np.linspace(0.0, 1.0, cfg.num_tasks)
    z_new = _rng(cfg.seed, _STREAM_NEW_LATENT).uniform(0.0, 1.0, size=cfg.num_new_tasks)
    new_n = cfg.new_task_samples if cfg.new_task_samples is not None else cfg.samples_per_task
    eval_n = cfg.eval_points_per_task
    held_out = cfg.num_tasks  # id of the first held-out task
    return MultiTaskDataset(
        train_tasks=_artificial_split(
            cfg, z_train, cfg.samples_per_task, _STREAM_TRAIN_X, _STREAM_TRAIN_NOISE, 0
        ),
        train_eval=_artificial_split(cfg, z_train, eval_n, _STREAM_EVAL_X, _STREAM_EVAL_NOISE, 0),
        new_tasks=_artificial_split(cfg, z_new, new_n, _STREAM_NEW_X, _STREAM_NEW_NOISE, held_out),
        new_eval=_artificial_split(
            cfg, z_new, eval_n, _STREAM_NEW_EVAL_X, _STREAM_NEW_EVAL_NOISE, held_out
        ),
        latents_train=z_train,
        latents_new=z_new,
    )


@dataclass(frozen=True)
class VdpConfig:
    alphas: Optional[Sequence[float]] = None  # None: 10 values evenly in [0.1, 1.0]
    sequences_per_task: int = 10
    points_per_sequence: int = 5
    dt: float = 0.1  # spacing of recorded points
    substep: float = 0.01  # RK4 integration step
    initial_state: tuple = (2.0, 0.0)
    seed: int = 0
    eval_sequences_per_task: int = 100
    num_new_tasks: int = 10
    new_task_sequences: Optional[int] = None
    # Time integrated from each random start before its eval sequence; fixed, not a field.
    eval_burn_in: ClassVar[float] = 1.0

    def __post_init__(self):
        if self.points_per_sequence < 2:
            raise ValueError("points_per_sequence must be at least 2")
        new_n = self.sequences_per_task if self.new_task_sequences is None else self.new_task_sequences
        if min(self.sequences_per_task, new_n, self.eval_sequences_per_task) < 1:
            raise ValueError("every task needs at least one training and one evaluation sequence")
        if self.num_new_tasks < 0:
            raise ValueError(f"num_new_tasks must be nonnegative, got {self.num_new_tasks}")
        if not (self.dt > 0 and self.substep > 0):
            raise ValueError("dt and substep must be positive")
        if np.any(self.alpha_grid() < 0):
            raise ValueError("alpha must be nonnegative")

    def alpha_grid(self) -> np.ndarray:
        if self.alphas is not None:
            return np.asarray(list(self.alphas), dtype=float)
        return np.linspace(0.1, 1.0, 10)


def _rk4(alpha, state, h: float, steps: int, stride: int = 1) -> np.ndarray:
    """Fixed-step RK4 of a batch of (x, dx/dt) states of shape (..., 2).

    `alpha` broadcasts against the batch shape (...). Returns the start state
    and every `stride`-th state after it, stacked on axis -2.
    """

    def rhs(s):
        x, v = s[..., 0], s[..., 1]
        return np.stack([v, alpha * (1.0 - x * x) * v - x], axis=-1)

    kept = [state]
    for n in range(1, steps + 1):
        k1 = rhs(state)
        k2 = rhs(state + 0.5 * h * k1)
        k3 = rhs(state + 0.5 * h * k2)
        k4 = rhs(state + h * k3)
        state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if n % stride == 0:
            kept.append(state)
    return np.stack(kept, axis=-2)


def _clock(h: float, steps: int) -> np.ndarray:
    """Times 0, h, h + h, ... of `steps` steps, accumulated one step at a time."""
    return np.concatenate([[0.0], np.cumsum(np.full(steps, h))])


def integrate_vdp(alpha: float, state0, dt: float, steps: int) -> np.ndarray:
    """Fixed-step RK4 trajectory, rows (t, x, dx/dt), steps+1 of them."""
    states = _rk4(alpha, np.asarray(state0, dtype=float).reshape(2), dt, steps)
    return np.column_stack([_clock(dt, steps), states])


def vdp_tasks(cfg: VdpConfig) -> MultiTaskDataset:
    """Oscillator tasks on the alpha grid plus held-out tasks at random alphas.

    Training sequences continue one trajectory from the shared initial
    state, so initial points coincide across tasks. Evaluation sequences
    start at random states from a dedicated stream, shared across tasks; a
    burn-in of `VdpConfig.eval_burn_in` first integrates them toward the
    attractor, so they measure the settled dynamics rather than arbitrary
    transients.
    """
    alphas = cfg.alpha_grid()
    new_n = cfg.new_task_sequences if cfg.new_task_sequences is not None else cfg.sequences_per_task
    alphas_new = _rng(cfg.seed, _STREAM_VDP_INIT).uniform(0.1, 1.0, size=cfg.num_new_tasks)
    eval_inits = _rng(cfg.seed, _STREAM_VDP_EVAL_INIT).uniform(
        -2.5, 2.5, size=(cfg.eval_sequences_per_task, 2)
    )
    all_alphas = np.concatenate([alphas, alphas_new])
    n_train = len(alphas)
    points = cfg.points_per_sequence
    stride = max(int(round(cfg.dt / cfg.substep)), 1)
    h = cfg.dt / stride

    def record(alpha, state0, count):
        """`count` consecutive sequences from each state, shape (..., count, points, 2)."""
        states = _rk4(alpha, state0, h, (count * points - 1) * stride, stride)
        return states.reshape(*states.shape[:-2], count, points, 2)

    # Each sequence is differenced on its own clock, restarted at 0, exactly
    # as if it had been integrated on its own from its first state.
    spacing = np.diff(_clock(h, (points - 1) * stride)[::stride])

    def pairs(blocks, task_id) -> TaskData:
        x = blocks[..., 0]
        return TaskData(
            inputs=x[:, :-1].reshape(-1, 1),
            outputs=(np.diff(x, axis=1) / spacing).reshape(-1),
            task_id=task_id,
        )

    state0 = np.broadcast_to(np.asarray(cfg.initial_state, dtype=float), (len(all_alphas), 2))
    chained = record(all_alphas, state0, max(cfg.sequences_per_task, new_n))
    starts = np.broadcast_to(eval_inits, (len(all_alphas), *eval_inits.shape))
    burn = max(int(round(cfg.eval_burn_in / cfg.substep)), 1)
    starts = _rk4(all_alphas[:, None], starts, cfg.substep, burn, burn)[..., -1, :]
    evals = record(all_alphas[:, None], starts, 1)[:, :, 0]

    counts = [cfg.sequences_per_task] * n_train + [new_n] * len(alphas_new)
    tasks = [pairs(chained[i, :count], i) for i, count in enumerate(counts)]
    held_out = [pairs(evals[i], i) for i in range(len(all_alphas))]
    return MultiTaskDataset(
        train_tasks=tasks[:n_train],
        train_eval=held_out[:n_train],
        new_tasks=tasks[n_train:],
        new_eval=held_out[n_train:],
        latents_train=alphas,
        latents_new=alphas_new,
    )


# ---------------------------------------------------------------------------
# CSV interchange: columns task_id, split, x..., y with a header row.


def _float_repr(v: float) -> str:
    return repr(float(v))


def write_dataset_csv(dataset: MultiTaskDataset, path) -> None:
    """One file for the whole experiment; held-out tasks keep their ids."""
    all_tasks = [
        (dataset.train_tasks, "train"),
        (dataset.train_eval, "test"),
        (dataset.new_tasks, "train"),
        (dataset.new_eval, "test"),
    ]
    p = 1
    for tasks, _ in all_tasks:
        for task in tasks:
            p = max(p, task.inputs.shape[1])
    x_cols = ["x"] if p == 1 else [f"x{j}" for j in range(p)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["task_id", "split", *x_cols, "y"])
        for tasks, split in all_tasks:
            for task in tasks:
                for row, y in zip(task.inputs, task.outputs):
                    writer.writerow(
                        [task.task_id, split, *(_float_repr(v) for v in row), _float_repr(y)]
                    )


def read_dataset_csv(path, train_ids: Sequence[int], new_ids: Sequence[int]) -> MultiTaskDataset:
    """Rebuild a dataset from CSV given the id partition recorded in a manifest.

    Raises ValueError, naming the line, unless the header is
    task_id,split,x[,x1,...],y, every row has the header's width, every task
    id is an integer and every x and y is finite; and, naming the ids, unless
    every training task has "train" rows.
    """
    rows: dict[tuple[int, str], list[tuple[list[float], float]]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        x_cols = header[2:-1]
        if header[:2] != ["task_id", "split"] or header[-1:] != ["y"] or not x_cols or not all(
            h.startswith("x") for h in x_cols
        ):
            raise ValueError(f"expected header task_id,split,x[,x1,...],y, got {header}")
        for rec in reader:
            try:
                if len(rec) != len(header):
                    raise ValueError(f"{len(rec)} values under a header of {len(header)}")
                tid = int(rec[0])
                values = [float(v) for v in rec[2:]]
                if not np.all(np.isfinite(values)):
                    raise ValueError("every x and y must be finite")
            except ValueError as exc:
                raise ValueError(f"line {reader.line_num}: {exc}") from None
            rows.setdefault((tid, rec[1]), []).append((values[:-1], values[-1]))
    missing = [t for t in train_ids if (t, "train") not in rows]
    if missing:
        raise ValueError(f"train_task_ids {missing} have no 'train' rows")

    def build(tid: int, split: str) -> TaskData:
        entries = rows.get((tid, split), [])
        if not entries:
            return TaskData(inputs=np.zeros((0, len(x_cols))), outputs=np.zeros(0), task_id=tid)
        xs = np.asarray([e[0] for e in entries], dtype=float)
        ys = np.asarray([e[1] for e in entries], dtype=float)
        return TaskData(inputs=xs, outputs=ys, task_id=tid)

    return MultiTaskDataset(
        train_tasks=[build(t, "train") for t in train_ids],
        train_eval=[build(t, "test") for t in train_ids],
        new_tasks=[build(t, "train") for t in new_ids],
        new_eval=[build(t, "test") for t in new_ids],
        latents_train=np.full(len(train_ids), np.nan),
        latents_new=np.full(len(new_ids), np.nan),
    )

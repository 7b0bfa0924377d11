"""The benchmark's workloads and the inputs it makes for them from a seed.

Each workload is a `gppca evaluate` configuration (an `ExperimentConfig`).
Its training and held-out few-shot tasks are the ones `gppca evaluate` draws
with its default base seed 0 (`evaluation._make_dataset`); every evaluation
split is drawn from the run's seed. The fits and adaptations therefore see
the same inputs in every run, so the operations that fail today (README,
"Failed operations") fail on every run, while the baselines, the
predictions and the RMSE cells change with the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gppca import evaluation
from gppca.datasets import ArtificialConfig, VdpConfig, artificial_curve
from gppca.evaluation import ExperimentConfig
from gppca.kernels_gp import TaskData

FIXED_TASK_SEED = 0  # base seed of the training and few-shot tasks
VDP_EVAL_SEQUENCES = 300  # evaluation sequences per Van der Pol task (the generator draws 100)


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    mode: str
    n_sweep: tuple
    repetitions: int
    lengthscale: float
    beta: float
    data: tuple = ()  # generator overrides, as (key, value) pairs

    def config(self) -> ExperimentConfig:
        return ExperimentConfig(
            experiment=self.experiment,
            n_sweep=self.n_sweep,
            repetitions=self.repetitions,
            base_seed=FIXED_TASK_SEED,
            mode=self.mode,
            lengthscale=self.lengthscale,
            beta=self.beta,
            data=dict(self.data),
            jobs=1,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="artificial-sparse",
            experiment="artificial",
            mode="sparse",
            n_sweep=(3, 10, 50),
            repetitions=4,
            lengthscale=0.2,
            beta=25.0,
        ),
        Workload(
            name="artificial-exact",
            experiment="artificial",
            mode="exact",
            n_sweep=(3,),
            repetitions=4,
            lengthscale=0.2,
            beta=25.0,
        ),
        Workload(
            name="vdp-sparse",
            experiment="vdp",
            mode="sparse",
            n_sweep=(10,),
            repetitions=1,
            lengthscale=0.6,
            beta=50.0,
            # 200 held-out tasks (the generator's default is 10), so that the two rates
            # rest on 200 adaptations and 210 prediction calls per round. The generator's
            # own evaluation splits are replaced (see cell_inputs), so it draws one
            # sequence per task instead of 100.
            data=(("num_new_tasks", 200), ("eval_sequences_per_task", 1)),
        ),
    )
}


def _artificial_split(latents, template, rng_x, rng_eps, noise_std):
    split = []
    for z, task in zip(latents, template):
        x = rng_x.uniform(0.0, 1.0, size=len(task))
        y = artificial_curve(z, x) + rng_eps.normal(0.0, noise_std, size=x.size)
        split.append(TaskData(inputs=x.reshape(-1, 1), outputs=y, task_id=task.task_id))
    return split


def _vdp_rhs(state, alpha):
    x, v = state[..., 0], state[..., 1]
    return np.stack([v, alpha * (1.0 - x * x) * v - x], axis=-1)


def _rk4(state, alpha, h, steps):
    for _ in range(steps):
        k1 = _vdp_rhs(state, alpha)
        k2 = _vdp_rhs(state + 0.5 * h * k1, alpha)
        k3 = _vdp_rhs(state + 0.5 * h * k2, alpha)
        k4 = _vdp_rhs(state + h * k3, alpha)
        state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return state


def _vdp_split(alphas, task_ids, gen_cfg, rng, sequences):
    """Evaluation tasks as `vdp_tasks` builds them (random initial states, a burn-in,
    then sequences of forward differences), integrated for all alphas at once.
    Unlike the generator, every task draws its own initial states."""
    alpha = np.asarray(alphas, dtype=float)[:, None]
    state = rng.uniform(-2.5, 2.5, size=(alpha.shape[0], sequences, 2))
    state = _rk4(state, alpha, gen_cfg.substep, max(int(round(gen_cfg.eval_burn_in / gen_cfg.substep)), 1))
    stride = max(int(round(gen_cfg.dt / gen_cfg.substep)), 1)
    xs = [state[..., 0]]
    for _ in range(gen_cfg.points_per_sequence - 1):
        state = _rk4(state, alpha, gen_cfg.dt / stride, stride)
        xs.append(state[..., 0])
    x = np.stack(xs, axis=-1)  # (alphas, sequences, points)
    v = np.diff(x, axis=-1) / gen_cfg.dt
    return [
        TaskData(inputs=x[i, :, :-1].reshape(-1, 1), outputs=v[i].reshape(-1), task_id=tid)
        for i, tid in enumerate(task_ids)
    ]


@dataclass(frozen=True)
class CellInputs:
    """The evaluation splits of one cell and the operations the cell attempts."""

    train_eval: list
    new_eval: list
    operations: int  # its fit, one adaptation per held-out task, one prediction and baseline per task


def cell_inputs(cfg: ExperimentConfig, seed: int) -> dict:
    """(rep, n) -> CellInputs, with every evaluation split drawn from `seed`.

    Every evaluation task keeps its task's latent (z or alpha) and id.
    Artificial: inputs and noise come from streams keyed by (seed, N,
    repetition, split), with the generator's sizes. Van der Pol: each task's
    VDP_EVAL_SEQUENCES initial states come from (seed, N, repetition).
    """
    out = {}
    for rep in range(cfg.repetitions):
        for n in cfg.n_sweep:
            fixed = evaluation._make_dataset(cfg, n, evaluation._cell_seed(cfg.base_seed, rep))
            k = len(fixed.train_tasks)
            if cfg.experiment == "vdp":
                rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(n, rep)))
                tasks = [*fixed.train_tasks, *fixed.new_tasks]
                split = _vdp_split([*fixed.latents_train, *fixed.latents_new],
                                   [t.task_id for t in tasks], VdpConfig(**cfg.data), rng,
                                   VDP_EVAL_SEQUENCES)
                splits = split[:k], split[k:]
            else:
                noise_std = float(np.sqrt(ArtificialConfig(**cfg.data).noise_variance))
                splits = []
                for part, (latents, template) in enumerate(
                    ((fixed.latents_train, fixed.train_eval), (fixed.latents_new, fixed.new_eval))
                ):
                    seq = np.random.SeedSequence(seed, spawn_key=(n, rep, part))
                    rng_x, rng_eps = (np.random.default_rng(s) for s in seq.spawn(2))
                    splits.append(_artificial_split(latents, template, rng_x, rng_eps, noise_std))
            n_new = len(fixed.new_tasks)
            out[(rep, n)] = CellInputs(*splits, operations=1 + n_new + 2 * (k + n_new))
    return out

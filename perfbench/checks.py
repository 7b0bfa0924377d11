"""Checks of the protocol's outputs against the benchmark's own computations.

Every check recomputes its reference with plain NumPy/SciPy written here:
the RBF kernel, Cholesky solves, Gaussian KL divergences, the moment-matched
Gaussian and a bounded scalar search. Only the chart points the program fits
and projects (its posterior coordinates) are taken from the program.

Each tolerance is the float64 floor of the quantity compared,

    EPS * kappa * max(1, |value|),

with EPS the float64 machine epsilon and kappa the condition number of the
matrices the value is computed through (README, "Checks"). Two correct
computations of the same value can differ by that much and no more than a
small multiple of it; the tests in `test_checks.py` show that each check
rejects a wrong input that a correct one passes.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import cho_solve, eigh
from scipy.optimize import minimize_scalar

from gppca import gaussian_geometry, gp_pca, kernels_gp, sparse_gp
from gppca.gaussian_geometry import moment_to_natural, pack_natural
from gppca.sparse_gp import InducingSet

EPS = float(np.finfo(float).eps)


def floor(kappa, value) -> float:
    """The float64 floor EPS * kappa * max(1, |value|)."""
    return EPS * float(kappa) * max(1.0, abs(float(value)))


def rbf(a, b, lengthscale: float) -> np.ndarray:
    a = np.asarray(a, dtype=float).reshape(len(a), -1)
    b = np.asarray(b, dtype=float).reshape(len(b), -1)
    d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    return np.exp(-0.5 * d2 / lengthscale**2)


def cond(a: np.ndarray) -> float:
    """2-norm condition number of a symmetric positive definite matrix."""
    ev = np.linalg.eigvalsh(0.5 * (a + a.T))
    return float(ev[-1] / ev[0]) if ev[0] > 0 else float("inf")


@dataclass
class Verdict:
    ok: bool
    detail: str = ""
    ratio: float = 0.0  # worst |difference| / tolerance; a pass has ratio <= 1


def _compare(got, want, kappa, scale, what) -> Verdict:
    """Elementwise |got - want| <= EPS * kappa * max(1, scale)."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return Verdict(False, f"{what}: shape {got.shape} != {want.shape}")
    if not np.all(np.isfinite(got)):
        return Verdict(False, f"{what}: non-finite values")
    tol = EPS * kappa * np.maximum(1.0, scale)
    excess = np.abs(got - want) / tol
    worst = int(np.argmax(excess)) if excess.size else 0
    ratio = float(excess.flat[worst]) if excess.size else 0.0
    return Verdict(
        ratio <= 1.0,
        f"{what}: off by {abs(got.flat[worst] - want.flat[worst]):.3e} "
        f"at {worst} (tolerance {tol.flat[worst]:.3e})",
        ratio,
    )


# ---------------------------------------------------------------------------
# 1. Independent-GP baseline


def check_baseline(prior, task, x_eval, means, variances) -> Verdict:
    """Means and variances of GP regression by a Cholesky solve with (K + I / beta).

    kappa is n cond(K + I / beta) for n observations (a length-n solve), and
    the scale of each value is the sum of the magnitudes of its terms.
    """
    ls, beta, m0 = prior.kernel.lengthscale, prior.beta, float(prior.mean_fn)
    noisy = rbf(task.inputs, task.inputs, ls) + np.eye(len(task)) / beta
    chol = np.linalg.cholesky(noisy)
    k_cross = rbf(task.inputs, x_eval, ls)
    alpha = cho_solve((chol, True), task.outputs - m0)
    kinv_k = cho_solve((chol, True), k_cross)
    want_mean = m0 + k_cross.T @ alpha
    want_var = np.maximum(1.0 - np.sum(k_cross * kinv_k, axis=0), 0.0)
    kappa = len(task) * cond(noisy)
    verdict = _compare(means, want_mean, kappa, abs(m0) + np.abs(k_cross.T) @ np.abs(alpha),
                       "baseline mean")
    if not verdict.ok:
        return verdict
    return _compare(variances, want_var, kappa, 1.0 + np.sum(np.abs(k_cross * kinv_k), axis=0),
                    "baseline variance")


# ---------------------------------------------------------------------------
# Gaussians given by flat natural coordinates (theta, vec Theta)


@dataclass
class Gaussian:
    mu: np.ndarray
    sigma: np.ndarray
    prec: np.ndarray
    chol_prec: np.ndarray

    @cached_property
    def kappa(self) -> float:
        return cond(self.prec)

    @property
    def logdet_sigma(self) -> float:
        return -2.0 * float(np.sum(np.log(np.diag(self.chol_prec))))


def from_natural(flat) -> Gaussian:
    """Moments of the Gaussian with natural coordinates `flat`; raises LinAlgError off the cone."""
    flat = np.asarray(flat, dtype=float)
    d = gaussian_geometry.dim_from_flat(flat.shape[0])
    big_theta = flat[d:].reshape(d, d)
    prec = -(big_theta + big_theta.T)  # -2 Theta, symmetrized
    chol = np.linalg.cholesky(prec)
    sigma = cho_solve((chol, True), np.eye(d))
    mu = cho_solve((chol, True), flat[:d])
    return Gaussian(mu=mu, sigma=0.5 * (sigma + sigma.T), prec=prec, chol_prec=chol)


def from_moments(mu, sigma) -> Gaussian:
    sigma = 0.5 * (sigma + sigma.T)
    prec = np.linalg.inv(sigma)
    prec = 0.5 * (prec + prec.T)
    return Gaussian(mu=mu, sigma=sigma, prec=prec, chol_prec=np.linalg.cholesky(prec))


def kl(p: Gaussian, q: Gaussian) -> float:
    """KL(p || q) = 1/2 [tr(P_q S_p) + (mu_q - mu_p)' P_q (mu_q - mu_p) - d + log|S_q| - log|S_p|]."""
    diff = q.mu - p.mu
    return 0.5 * float(
        np.sum(q.prec * p.sigma) + diff @ q.prec @ diff - p.mu.shape[0]
        + q.logdet_sigma - p.logdet_sigma
    )


# ---------------------------------------------------------------------------
# 2 and 3. The training fit


def check_fit(points, fit_result) -> tuple[Verdict, Verdict, dict]:
    """Check 2 (objective recomputed) and check 3 (no worse than the L = 0 optimum).

    Returns both verdicts and the numbers they rest on.
    """
    data = [from_natural(p) for p in points]
    sub = fit_result.subspace
    recon = [from_natural(sub.u0 + w @ sub.basis) for w in np.atleast_2d(fit_result.weights)]
    kls = [kl(p, q) for p, q in zip(data, recon)]
    total = float(np.sum(kls))
    tol2 = sum(floor(max(p.kappa, q.kappa), v) for p, q, v in zip(data, recon, kls))
    objective = float(fit_result.objective)
    v2 = Verdict(
        np.isfinite(objective) and abs(objective - total) <= tol2,
        f"objective {objective!r} vs recomputed {total!r} (tolerance {tol2:.3e})",
        abs(objective - total) / tol2,
    )
    # L = 0 optimum: the Gaussian matching the mean and second moment of the data.
    mu = np.mean([p.mu for p in data], axis=0)
    second = np.mean([p.sigma + np.outer(p.mu, p.mu) for p in data], axis=0)
    best = from_moments(mu, second - np.outer(mu, mu))
    kls0 = [kl(p, best) for p in data]
    single = float(np.sum(kls0))
    tol3 = sum(floor(max(p.kappa, best.kappa), v) for p, v in zip(data, kls0))
    v3 = Verdict(
        np.isfinite(objective) and objective <= single + tol3,
        f"objective {objective:.6g} vs best single Gaussian {single:.6g} (tolerance {tol3:.3e})",
        (objective - single) / tol3,
    )
    numbers = {"objective": objective, "recomputed": total, "single_gaussian": single}
    return v2, v3, numbers


# ---------------------------------------------------------------------------
# 4. Adaptation: the weight minimizes the task's KL along the fitted line


def line_interval(u0, direction) -> tuple[float, float]:
    """Open interval of w for which u0 + w * direction is a valid Gaussian.

    The precision -2 Theta(w) = A0 + w A1 is positive definite exactly when
    1 + w lambda > 0 for every generalized eigenvalue lambda of (A1, A0).
    """
    d = gaussian_geometry.dim_from_flat(u0.shape[0])
    a0 = -2.0 * u0[d:].reshape(d, d)
    a1 = -2.0 * direction[d:].reshape(d, d)
    lam = eigh(0.5 * (a1 + a1.T), 0.5 * (a0 + a0.T), eigvals_only=True)
    lo = -1.0 / lam[-1] if lam[-1] > 0 else -np.inf
    hi = -1.0 / lam[0] if lam[0] < 0 else np.inf
    return lo, hi


def line_kl(point, u0, direction):
    """w -> KL(point || u0 + w direction), +inf off the cone.

    The reconstruction's precision A0 + w A1 is linear in w, so tr(P_q S_p)
    is too; each evaluation costs one Cholesky factor (its log-determinant, and
    the test that the point is valid) and one solve for the mean.
    """
    data = from_natural(point)
    d = data.mu.shape[0]

    def parts(flat):
        m = flat[d:].reshape(d, d)
        return flat[:d], -(m + m.T)

    th0, a0 = parts(u0)
    th1, a1 = parts(direction)
    tr0, tr1 = float(np.sum(a0 * data.sigma)), float(np.sum(a1 * data.sigma))
    logdet_p = data.logdet_sigma

    def f(w):
        prec = a0 + w * a1
        try:
            chol = np.linalg.cholesky(prec)
        except np.linalg.LinAlgError:
            return np.inf
        diff = np.linalg.solve(prec, th0 + w * th1) - data.mu
        logdet_q = -2.0 * float(np.sum(np.log(np.diag(chol))))
        return 0.5 * (tr0 + w * tr1 + float(diff @ prec @ diff) - d + logdet_q - logdet_p)

    return f


def line_minimum(point, u0, direction, start: float) -> tuple[float, float]:
    """(w*, KL*) minimizing KL(point || u0 + w direction) by a bounded scalar search."""
    f = line_kl(point, u0, direction)
    lo, hi = line_interval(u0, direction)
    ref = min(f(0.0), f(start))
    span = max(1.0, 2.0 * abs(start))
    for side in (-1.0, 1.0):  # close an unbounded side where the convex KL has risen
        if np.isfinite(lo if side < 0 else hi):
            continue
        b = span
        for _ in range(200):
            if f(side * b) > ref:
                break
            b *= 2.0
        if side < 0:
            lo = -b
        else:
            hi = b
    width = hi - lo
    lo, hi = lo + 1e-12 * width, hi - 1e-12 * width
    res = minimize_scalar(f, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-12 * max(1.0, abs(lo), abs(hi)), "maxiter": 500})
    best_w, best_kl = float(res.x), float(res.fun)
    for w in (0.0, start):  # never report a minimum above points already seen
        if f(w) < best_kl:
            best_w, best_kl = w, f(w)
    return best_w, best_kl


def check_adaptation(point, subspace, w, rel_tol: float) -> tuple[Verdict, dict]:
    """Check 4: KL(w) - KL(w*) <= EPS kappa max(1, KL(w)) + rel_tol max(1, KL(w)).

    The second term is the projection's own stopping tolerance: it stops
    when a step lowers the KL by at most rel_tol times the KL, and a
    quasi-Newton descent of a convex function of one variable leaves a gap
    of about its last step then. A projection that converged to its options
    passes; one that stops far from w* (w = 0 when the line minimum is
    elsewhere) does not.
    """
    w = np.asarray(w, dtype=float).reshape(-1)
    if subspace.latent_dim != 1:
        raise NotImplementedError("the line search covers latent dimension 1 only")
    if not np.all(np.isfinite(w)):
        return Verdict(False, "non-finite weight"), {}
    u0, direction = subspace.u0, subspace.basis[0]
    try:
        at_w = from_natural(u0 + w[0] * direction)
    except np.linalg.LinAlgError:
        return Verdict(False, f"weight {w[0]!r} leaves the cone"), {}
    kl_w = line_kl(point, u0, direction)(w[0])
    w_star, kl_star = line_minimum(point, u0, direction, float(w[0]))
    kappa = max(from_natural(point).kappa, at_w.kappa, from_natural(u0 + w_star * direction).kappa)
    gap = kl_w - kl_star
    tol = floor(kappa, kl_w) + rel_tol * max(1.0, abs(kl_w))
    numbers = {"w": float(w[0]), "w_star": w_star, "kl": kl_w, "gap": gap, "tol": tol}
    return Verdict(
        gap <= tol,
        f"KL {kl_w:.6g} at w={w[0]:.6g}, {gap:.3e} above the line minimum at w={w_star:.6g} "
        f"(tolerance {tol:.3e})",
        gap / tol,
    ), numbers


def task_point(model, task) -> np.ndarray:
    """The task's chart point over the model's anchor, from the program's coordinate functions."""
    if model.mode == "exact":
        rho = kernels_gp.exact_posterior(model.prior, task, model.anchor)
        return pack_natural(moment_to_natural(rho))
    nat, _ = sparse_gp.variational_coords(model.prior, task, InducingSet(model.anchor))
    return pack_natural(nat)


# ---------------------------------------------------------------------------
# 5. Subspace predictions


def jittered_cholesky(a: np.ndarray) -> np.ndarray:
    """Cholesky factor of `a`, with the jitter repair `gaussian_geometry.chol_pd` documents:
    eps * trace(a) / d added from eps = 1e-10, tenfold per retry, up to 1e-6."""
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        pass
    d = a.shape[0]
    scale = float(np.trace(a)) / d
    eps = 1e-10
    while True:
        try:
            return np.linalg.cholesky(a + eps * scale * np.eye(d))
        except np.linalg.LinAlgError:
            if eps >= 1e-6:
                raise
            eps *= 10.0


def predictive(model, w, x_eval):
    """Predictive equations applied to the reconstruction u0 + w basis.

    exact:  mean = m0 + k' K^-1 (mu - m0),        var = 1 + k' K^-1 (S - K) K^-1 k
    sparse: mean = m0 + k' (mu' - K^-1 m0),       var = 1 - k' K^-1 k + k' S' k
    (K over the anchor, S and mu the reconstruction's moments). Returns the
    means and variances, each with the sum of the magnitudes of its terms, and
    kappa = cond(K) + cond(-2 Theta), the two factorizations the values pass through.
    """
    sub = model.subspace
    g = from_natural(sub.u0 + np.asarray(w, dtype=float).reshape(-1) @ sub.basis)
    ls, m0 = model.prior.kernel.lengthscale, float(model.prior.mean_fn)
    k_aa = rbf(model.anchor, model.anchor, ls)
    chol = jittered_cholesky(k_aa)
    k_cross = rbf(model.anchor, x_eval, ls)
    kinv_k = cho_solve((chol, True), k_cross)
    if model.mode == "exact":
        mid = g.sigma - k_aa
        means = m0 + kinv_k.T @ (g.mu - m0)
        mean_scale = abs(m0) + np.abs(kinv_k.T) @ np.abs(g.mu - m0)
        var = 1.0 + np.einsum("at,ab,bt->t", kinv_k, mid, kinv_k)
        var_scale = 1.0 + np.einsum("at,ab,bt->t", np.abs(kinv_k), np.abs(mid), np.abs(kinv_k))
    else:
        centered = g.mu - cho_solve((chol, True), np.full(len(model.anchor), m0))
        means = m0 + k_cross.T @ centered
        mean_scale = abs(m0) + np.abs(k_cross.T) @ np.abs(centered)
        var = (1.0 - np.einsum("at,at->t", k_cross, kinv_k)
               + np.einsum("at,ab,bt->t", k_cross, g.sigma, k_cross))
        var_scale = (1.0 + np.einsum("at,at->t", np.abs(k_cross), np.abs(kinv_k))
                     + np.einsum("at,ab,bt->t", np.abs(k_cross), np.abs(g.sigma), np.abs(k_cross)))
    kappa = cond(chol @ chol.T) + g.kappa
    return (means, mean_scale), (var, var_scale), kappa


def check_prediction(model, w, x_eval, means, variances) -> Verdict:
    means = np.asarray(means, dtype=float)
    variances = np.asarray(variances, dtype=float)
    if not (np.all(np.isfinite(means)) and np.all(np.isfinite(variances))):
        return Verdict(False, "non-finite prediction")
    if np.any(variances < 0):
        return Verdict(False, "negative variance")
    (want_mean, mean_scale), (want_var, var_scale), kappa = predictive(model, w, x_eval)
    verdict = _compare(means, want_mean, kappa, mean_scale, "subspace mean")
    if not verdict.ok:
        return verdict
    return _compare(variances, np.maximum(want_var, 0.0), kappa, var_scale, "subspace variance")


# ---------------------------------------------------------------------------
# 6. RMSE cells of the report


def own_rmse(means, truth) -> float:
    diff = np.asarray(means, dtype=float).reshape(-1) - np.asarray(truth, dtype=float).reshape(-1)
    return float(np.sqrt(np.mean(diff * diff)))


def check_report(cells, outdir) -> Verdict:
    """Check 6: the RMSE cells of report.csv against RMSEs of the captured predictions."""
    expected = {}
    for c in cells:
        if c.error is not None:
            continue
        ds = c.dataset
        k = len(ds.train_tasks)
        evals = [*ds.train_eval, *ds.new_eval]
        points = max(len(ev) for ev in evals)
        for method, preds in (("gp", c.baseline), ("gp_epca", c.predictions)):
            per_task = [own_rmse(p[0], ev.outputs) for p, ev in zip(preds, evals)]
            expected[(method, c.n, c.repetition, "train")] = (per_task[:k], points)
            expected[(method, c.n, c.repetition, "test")] = (per_task[k:], points)
    with open(outdir / "report.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return check_report_cells(rows, expected)


def check_report_cells(rows, expected) -> Verdict:
    """`rows` from report.csv as (method, N, repetition, split, rmse); `expected` maps
    (method, N, repetition, split) to (per-task RMSEs, points per task)."""
    seen = set()
    for method, n, rep, split, value in rows:
        key = (method, int(n), int(rep), split)
        if key not in expected:
            return Verdict(False, f"unexpected report cell {key}")
        per_task, points = expected[key]
        want = float(np.mean(per_task))
        if not abs(float(value) - want) <= floor(points, want):
            return Verdict(False, f"report cell {key}: {value} vs {want!r}")
        seen.add(key)
    missing = set(expected) - seen
    if missing:
        return Verdict(False, f"report misses cells {sorted(missing)}")
    return Verdict(True)


# ---------------------------------------------------------------------------
# All operations of one cell


@dataclass
class CellVerdicts:
    attempted: int
    failed: dict  # fault label -> failed operations
    worst_pass: dict  # check -> largest |difference| / tolerance among passes
    examples: dict  # fault label -> detail of its first failure
    numbers: dict


def check_cell(cell, attempted: int, adapt_rel_tol: float) -> CellVerdicts:
    """Verdicts on every operation of one cell (its fit, adaptations, predictions, baselines).

    `adapt_rel_tol` is the `rel_tol` the adaptations ran with (check 4).
    """
    out = CellVerdicts(attempted=attempted, failed={}, worst_pass={}, examples={}, numbers={})
    if cell.error is not None:
        label = f"cell raised {cell.error.split(':')[0]}"
        out.failed[label] = attempted
        out.examples[label] = cell.error
        return out

    def record(check, verdict):
        if verdict.ok:
            out.worst_pass[check] = max(out.worst_pass.get(check, 0.0), verdict.ratio)
            return True
        out.failed[check] = out.failed.get(check, 0) + 1
        out.examples.setdefault(check, verdict.detail)
        return False

    ds, model = cell.dataset, cell.model
    prior = model.prior
    tasks = [*ds.train_tasks, *ds.new_tasks]
    evals = [*ds.train_eval, *ds.new_eval]
    for task, ev, (means, variances) in zip(tasks, evals, cell.baseline):
        record("1 baseline", check_baseline(prior, task, ev.inputs, means, variances))

    # The fit's chart points, as train computes them.
    points, _ = gp_pca.task_coordinates(ds.train_tasks, prior, model.mode, cell.inducing)
    v2, v3, out.numbers = check_fit(points, model.fit_result)
    if record("2 fit objective", v2):
        record("3 fit vs single Gaussian", v3)

    out.numbers["adapt_gaps"] = []
    for task, w in zip(ds.new_tasks, cell.adapted):
        verdict, numbers = check_adaptation(task_point(model, task), model.subspace, w, adapt_rel_tol)
        record("4 adaptation", verdict)
        out.numbers["adapt_gaps"].append(numbers.get("gap", np.inf))

    weights = [*model.weights, *cell.adapted]
    for w, ev, (means, variances) in zip(weights, evals, cell.predictions):
        record("5 prediction", check_prediction(model, w, ev.inputs, means, variances))
    return out

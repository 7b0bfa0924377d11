import math
import tracemalloc

import numpy as np
import pytest

from gppca import epca, evaluation, gp_pca
from gppca import gaussian_geometry as gg
from gppca.datasets import ArtificialConfig, gen_artificial
from gppca.epca import ConvergenceError, FitOptions, Subspace, ValidityError
from gppca.gaussian_geometry import MomentGaussian, moment_to_natural
from gppca.kernels_gp import GpPrior, KernelConfig, TaskData, exact_posterior, union_inputs
from gppca.sparse_gp import grid_inducing
from oracles import (
    expectation_to_moment,
    joint_moments_bruteforce,
    natural_to_expectation,
    pack_expectation,
    unpack_expectation,
)
from helpers import kl_gradients, kl_objective, planted_subspace, random_gaussian


def _nat_point(mu, sigma):
    return gg.pack_natural(moment_to_natural(MomentGaussian(mu, sigma)))


class TestReconstruct:
    def test_zero_weights_returns_offset(self):
        rng = np.random.default_rng(0)
        pts, u0, basis, _ = planted_subspace(rng, 2, 2, 4)
        s = Subspace(u0=u0, basis=basis)
        np.testing.assert_array_equal(epca.reconstruct(np.zeros(2), s), u0)

    def test_single_basis_vector(self):
        rng = np.random.default_rng(1)
        _, u0, basis, _ = planted_subspace(rng, 2, 1, 3)
        s = Subspace(u0=u0, basis=basis)
        np.testing.assert_allclose(epca.reconstruct([1.0], s), u0 + basis[0])

    def test_affine_in_weights(self):
        rng = np.random.default_rng(2)
        _, u0, basis, _ = planted_subspace(rng, 3, 2, 3)
        s = Subspace(u0=u0, basis=basis)
        w1, w2 = rng.normal(size=2), rng.normal(size=2)
        mid = epca.reconstruct(0.5 * w1 + 0.5 * w2, s)
        np.testing.assert_allclose(
            mid, 0.5 * epca.reconstruct(w1, s) + 0.5 * epca.reconstruct(w2, s)
        )


class TestObjective:
    def test_planted_zero(self):
        rng = np.random.default_rng(3)
        pts, u0, basis, weights = planted_subspace(rng, 3, 2, 6)
        s = Subspace(u0=u0, basis=basis)
        assert kl_objective(weights, s, pts) == pytest.approx(0.0, abs=1e-10)

    def test_single_point_offset_only(self):
        rng = np.random.default_rng(4)
        pts, u0, _, _ = planted_subspace(rng, 2, 0, 1)
        s = Subspace(u0=u0, basis=np.zeros((0, u0.shape[0])))
        assert kl_objective(np.zeros((1, 0)), s, pts[:1]) == pytest.approx(0.0, abs=1e-12)

    def test_two_univariate_gaussians_offset_midpoint(self):
        # E = KL[N(0,1)||N(.5,1)] + KL[N(1,1)||N(.5,1)] = 0.125 + 0.125
        pts = np.array([_nat_point([0.0], [[1.0]]), _nat_point([1.0], [[1.0]])])
        u0 = _nat_point([0.5], [[1.0]])
        s = Subspace(u0=u0, basis=np.zeros((0, 2)))
        assert kl_objective(np.zeros((2, 0)), s, pts) == pytest.approx(0.25, abs=1e-12)

    def test_invalid_reconstruction_names_task(self):
        pts = np.array([_nat_point([0.0], [[1.0]]), _nat_point([0.5], [[1.0]])])
        bad = pts[0].copy()
        bad[1] = 1.0  # positive Theta block
        s = Subspace(u0=bad, basis=np.zeros((0, 2)))
        with pytest.raises(ValidityError) as err:
            kl_objective(np.zeros((2, 0)), s, pts)
        assert err.value.task_index == 0


class TestGradients:
    def test_zero_at_optimum(self):
        rng = np.random.default_rng(5)
        pts, u0, basis, weights = planted_subspace(rng, 2, 1, 4)
        s = Subspace(u0=u0, basis=basis)
        d_w, d_u = kl_gradients(weights, s, pts)
        assert np.max(np.abs(d_w)) < 1e-8
        assert np.max(np.abs(d_u)) < 1e-8

    def test_finite_difference_match(self):
        rng = np.random.default_rng(6)
        d, latent, count = 2, 1, 3
        pts = np.array([_nat_point(rng.normal(size=d) * 0.4, np.eye(d) * (1 + 0.3 * rng.random()))
                        for _ in range(count)])
        _, u0, basis, _ = planted_subspace(rng, d, latent, count)
        weights = 0.1 * rng.normal(size=(count, latent))
        s = Subspace(u0=u0, basis=basis)
        d_w, d_u = kl_gradients(weights, s, pts)
        h = 1e-6

        def obj(w, u0_, basis_):
            return kl_objective(w, Subspace(u0=u0_, basis=basis_), pts)

        for i in range(count):
            for l in range(latent):
                wp, wm = weights.copy(), weights.copy()
                wp[i, l] += h
                wm[i, l] -= h
                fd = (obj(wp, u0, basis) - obj(wm, u0, basis)) / (2 * h)
                assert d_w[i, l] == pytest.approx(fd, rel=1e-4, abs=1e-7)
        flat_dim = u0.shape[0]
        for j in rng.choice(flat_dim, 5, replace=False):
            up, um = u0.copy(), u0.copy()
            up[j] += h
            um[j] -= h
            fd = (obj(weights, up, basis) - obj(weights, um, basis)) / (2 * h)
            assert d_u[0, j] == pytest.approx(fd, rel=1e-4, abs=1e-7)
            bp, bm = basis.copy(), basis.copy()
            bp[0, j] += h
            bm[0, j] -= h
            fd = (obj(weights, u0, bp) - obj(weights, u0, bm)) / (2 * h)
            assert d_u[1, j] == pytest.approx(fd, rel=1e-4, abs=1e-7)

    def test_residual_scaling_doubles_weight_gradient(self):
        # data whose dual-chart residual is doubled doubles dW
        rng = np.random.default_rng(7)
        d = 2
        _, u0, basis, _ = planted_subspace(rng, d, 1, 2)
        s = Subspace(u0=u0, basis=basis)
        weights = np.zeros((1, 1))
        recon_dual = pack_expectation(
            natural_to_expectation(gg.unpack_natural(u0, d))
        )
        step = np.zeros_like(recon_dual)
        step[0] = 0.05  # small mean perturbation in the dual chart
        data1 = gg.pack_natural(
            moment_to_natural(expectation_to_moment(unpack_expectation(recon_dual + step, d)))
        )
        data2 = gg.pack_natural(
            moment_to_natural(expectation_to_moment(unpack_expectation(recon_dual + 2 * step, d)))
        )
        g1, _ = kl_gradients(weights, s, data1[None, :])
        g2, _ = kl_gradients(weights, s, data2[None, :])
        np.testing.assert_allclose(g2, 2.0 * g1, rtol=1e-9, atol=1e-12)


def _textbook_natural_to_dual(points, d):
    """`epca._natural_to_dual` as first written: -2 * 1/2 (M + M^T) and a concatenation."""
    n = points.shape[0]
    mat = points[:, d:].reshape(n, d, d)
    a = -2.0 * (0.5 * (mat + np.transpose(mat, (0, 2, 1))))
    chol = np.linalg.cholesky(a)
    logdet = -2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)), axis=-1)
    mu = np.linalg.solve(a, points[:, :d, None])[..., 0]
    sigma = np.linalg.inv(a)
    dual_mat = sigma + np.einsum("ni,nj->nij", mu, mu)
    return a, logdet, mu, sigma, np.concatenate([mu, dual_mat.reshape(n, -1)], axis=1)


def _random_points(rng, n, d):
    return np.array([gg.pack_natural(moment_to_natural(random_gaussian(rng, d, cond_max=10.0)))
                     for _ in range(n)])


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))  # -0.0 stays -0.0


class TestNaturalToDual:
    """Each output of `_natural_to_dual` is built in one array, bit for bit as before."""

    @pytest.mark.parametrize("d", [1, 12, 60])
    def test_stack_equals_rows_bit_for_bit(self, d):
        rng = np.random.default_rng(30 + d)
        n = 5
        stack = _random_points(rng, n, d) + 1e-3 * rng.normal(size=(n, d + d * d))
        whole = epca._natural_to_dual(stack, d)
        rows = [epca._natural_to_dual(stack[i : i + 1], d) for i in range(n)]
        for k, got in enumerate(whole):
            _assert_same_bits(got, np.concatenate([r[k] for r in rows]))
        # A batch evaluated against the stack (W = I, u0 = 0, U~ = the stack builds
        # it exactly) equals one-point batches evaluated against its rows.
        data = _random_points(rng, n, d)
        zero = np.zeros(stack.shape[1])
        total, duals = epca._PointBatch(data).evaluate(np.eye(n), zero, stack)
        by_row = [
            epca._PointBatch(data[i : i + 1]).evaluate(np.ones((1, 1)), zero, stack[i : i + 1])
            for i in range(n)
        ]
        _assert_same_bits(duals, np.concatenate([dual for _, dual in by_row]))
        assert total == np.sum([kl for kl, _ in by_row])

    @pytest.mark.parametrize("d", [1, 12, 60])
    def test_equals_the_textbook_formulas_bit_for_bit(self, d):
        rng = np.random.default_rng(40 + d)
        points = _random_points(rng, 3, d)
        for got, want in zip(epca._natural_to_dual(points, d), _textbook_natural_to_dual(points, d)):
            _assert_same_bits(got, want)

    def test_signed_zeros_match_the_textbook_formulas(self):
        # Diagonal precisions with off-diagonal M entries of +0.0 and -0.0 in every
        # pairing, and a zero theta entry of each sign: -(M + M^T) carries the
        # same signed zeros as -2 * 1/2 (M + M^T), and so does every later output.
        d = 3
        mat = -0.5 * np.diag([1.0, 2.0, 4.0])
        mat[0, 1], mat[1, 0] = 0.0, -0.0
        mat[0, 2], mat[2, 0] = -0.0, -0.0
        mat[1, 2], mat[2, 1] = 0.0, 0.0
        points = np.array([np.concatenate([[0.0, -0.0, 1.5], mat.ravel()]),
                           np.concatenate([[-0.0, 0.0, -0.0], mat.T.ravel()])])
        got = epca._natural_to_dual(points, d)
        want = _textbook_natural_to_dual(points, d)
        assert np.any(np.signbit(want[0]) & (want[0] == 0.0))  # the case is exercised
        assert np.any(~np.signbit(want[0]) & (want[0] == 0.0))
        for g, w in zip(got, want):
            _assert_same_bits(g, w)

    def test_evaluate_equals_the_textbook_reconstruction(self):
        rng = np.random.default_rng(50)
        d, n = 12, 6
        batch = epca._PointBatch(_random_points(rng, n, d))
        u0 = epca._mean_point(batch)
        basis = rng.normal(size=(2, batch.flat_dim))
        weights = 1e-3 * rng.normal(size=(n, 2))
        total, duals = batch.evaluate(weights, u0, basis)
        textbook = u0 + weights @ basis
        assert total == batch.evaluate(np.eye(n), np.zeros_like(u0), textbook)[0]
        _assert_same_bits(duals, _textbook_natural_to_dual(textbook, d)[4])

    def test_evaluation_holds_about_four_full_size_arrays(self):
        # One objective and gradient at N = 20, d = 60: the reconstruction, -2 Theta,
        # Sigma and the dual stack, each an N x D float64 array (0.59 MB), plus
        # small change. Built through full-size temporaries it took 5.9 of them.
        rng = np.random.default_rng(60)
        n, d = 20, 60
        batch = epca._PointBatch(_random_points(rng, n, d))
        u0 = epca._mean_point(batch)
        basis = rng.normal(size=(2, batch.flat_dim))
        basis /= np.linalg.norm(basis, axis=1)[:, None]
        weights = 1e-3 * rng.normal(size=(n, 2))

        def once():
            _, duals = batch.evaluate(weights, u0, basis)
            batch.gradient(weights, basis, duals)

        once()  # any first-call allocations happen outside the trace
        tracemalloc.start()
        try:
            once()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * n * batch.flat_dim * 8


class TestProjectPoint:
    def test_recovers_planted_weights(self):
        rng = np.random.default_rng(9)
        pts, u0, basis, weights = planted_subspace(rng, 2, 2, 5)
        s = Subspace(u0=u0, basis=basis)
        w = epca.project_point(pts[2], s, FitOptions(rel_tol=1e-10))
        np.testing.assert_allclose(w, weights[2], atol=1e-6)

    def test_empty_subspace(self):
        rng = np.random.default_rng(10)
        pts, u0, _, _ = planted_subspace(rng, 2, 0, 1)
        s = Subspace(u0=u0, basis=np.zeros((0, u0.shape[0])))
        assert epca.project_point(pts[0], s).shape == (0,)

    def test_matches_grid_search(self):
        # brute-force scan over the single weight
        rng = np.random.default_rng(11)
        d = 2
        _, u0, basis, _ = planted_subspace(rng, d, 1, 3)
        s = Subspace(u0=u0, basis=basis)
        target = _nat_point(rng.normal(size=d) * 0.3, np.eye(d) * 1.2)
        w = epca.project_point(target, s, FitOptions(rel_tol=1e-10))
        grid = np.arange(-2.0, 2.0, 1e-3)
        best, best_val = None, np.inf
        for v in grid:
            try:
                val = kl_objective(np.array([[v]]), s, target[None, :])
            except ValidityError:
                continue
            if val < best_val:
                best, best_val = v, val
        assert abs(w[0] - best) <= 2e-3

    def test_projection_idempotent_on_subspace(self):
        rng = np.random.default_rng(12)
        _, u0, basis, _ = planted_subspace(rng, 3, 2, 4)
        s = Subspace(u0=u0, basis=basis)
        w_true = np.array([0.4, -0.7])
        point = epca.reconstruct(w_true, s)
        w = epca.project_point(point, s, FitOptions(rel_tol=1e-10))
        np.testing.assert_allclose(w, w_true, atol=1e-6)


class TestFisherStep:
    """The projection's Newton step: the Fisher metric pulled back to the basis."""

    @staticmethod
    def _setup(basis_rows):
        rng = np.random.default_rng(23)
        d = 3
        _, u0, _, _ = planted_subspace(rng, d, 0, 1)
        basis = np.array(basis_rows(rng, d))
        point = _nat_point(rng.normal(size=d), np.eye(d) + 0.2 * np.diag(rng.uniform(size=d)))
        return d, Subspace(u0=u0, basis=basis), epca._PointBatch(point[None, :])

    def test_fisher_matrix_is_the_kl_hessian(self):
        # Matrix blocks that are not symmetric: only their symmetric part acts on x.
        d, s, batch = self._setup(lambda rng, d: 0.1 * rng.normal(size=(2, d + d * d)))

        def gradient(w):
            recon = epca._natural_to_dual(epca.reconstruct(w, s)[None, :], d)
            return (recon[4][0] - batch.dual[0]) @ s.basis.T, recon

        w = np.array([0.3, -0.2])
        recon = gradient(w)[1]
        h = epca._fisher(recon[2][0], recon[3][0], *s.basis_blocks)
        step = 1e-6
        by_differences = np.array([
            (gradient(w + step * e)[0] - gradient(w - step * e)[0]) / (2 * step) for e in np.eye(2)
        ])
        np.testing.assert_allclose(h, by_differences, rtol=1e-6, atol=1e-9 * np.abs(h).max())

    def test_zero_basis_row_takes_the_least_squares_step(self):
        # The zero row makes the metric singular; the least-squares step leaves its
        # weight at 0 and solves for the other.
        d, s, batch = self._setup(
            lambda rng, d: [0.1 * rng.normal(size=d + d * d), np.zeros(d + d * d)]
        )
        w = epca.project_point(batch.primal[0], s, FitOptions(rel_tol=1e-10))
        assert w[0] != 0.0 and w[1] == 0.0  # the zero row's gradient is exactly 0
        line = Subspace(u0=s.u0, basis=s.basis[:1])
        np.testing.assert_allclose(w[0], epca.project_point(batch.primal[0], line), rtol=1e-4)


class TestProjectBatch:
    """The fit's polish and `project_point` share one batch projection routine."""

    @staticmethod
    def _points_off_a_subspace(k: int):
        rng = np.random.default_rng(21)
        d = 3
        _, u0, basis, _ = planted_subspace(rng, d, 2, 1)
        pts = np.array([
            gg.pack_natural(moment_to_natural(random_gaussian(rng, d, cond_max=4.0)))
            for _ in range(k)
        ])
        return pts, Subspace(u0=u0, basis=basis)

    @staticmethod
    def _targets(pts, s):
        """t = U~ . eta of each point as `project_point` computes it."""
        d = gg.dim_from_flat(s.flat_dim)
        return [epca._moment_slopes(s, *epca._point_moments(p, d)) for p in pts]

    def test_batch_rows_equal_one_point_projections(self):
        # Rows given `project_point`'s targets land where it does, bit for bit. The
        # polish reads its targets from the batch's duals, which differ by rounding,
        # so its rows land within the decrement tolerance of the same KL.
        pts, s = self._points_off_a_subspace(4)
        opts = FitOptions(rel_tol=1e-10)
        singles = np.array([epca.project_point(p, s, opts) for p in pts])
        assert np.all(singles != 0.0)
        weights, errors = epca._project(s, self._targets(pts, s), opts, np.zeros((4, 2)))
        assert errors == [None] * 4
        assert np.array_equal(weights, singles)
        weights, errors = epca._project_batch(epca._PointBatch(pts), s, opts, np.zeros((4, 2)))
        assert errors == [None] * 4
        for p, w, single in zip(pts, weights, singles):
            kl, kl_single = (kl_objective(v[None, :], s, p[None, :]) for v in (w, single))
            assert abs(kl - kl_single) <= 1e-3 * opts.rel_tol + 1e-14 * kl_single

    def test_row_at_the_iteration_cap_keeps_its_last_iterate(self):
        pts, s = self._points_off_a_subspace(2)
        opts = FitOptions(max_iters=2, rel_tol=1e-14)
        start = np.zeros((2, 2))
        weights, errors = epca._project_batch(epca._PointBatch(pts), s, opts, start)
        assert all(isinstance(e, ConvergenceError) and e.iters == 2 for e in errors)
        for p, w in zip(pts, weights):
            # moved downhill from the start, and not thrown away
            assert kl_objective(w[None, :], s, p[None, :]) < kl_objective(
                start[:1], s, p[None, :]
            )
        _, errors = epca._project(s, self._targets(pts, s), opts, start)
        with pytest.raises(ConvergenceError) as err:
            epca.project_point(pts[1], s, opts)
        assert err.value.grad_norm == errors[1].grad_norm
        assert err.value.tol == errors[1].tol

    def test_fit_factors_its_points_once(self, monkeypatch):
        # The polish projects the rows of the batch the fit built, not fresh copies.
        built = []
        init = epca._PointBatch.__init__

        def counting_init(batch, points):
            built.append(np.atleast_2d(points).shape[0])
            init(batch, points)

        monkeypatch.setattr(epca._PointBatch, "__init__", counting_init)
        pts, *_ = planted_subspace(np.random.default_rng(22), 2, 1, 5)
        epca.fit(pts, 1)
        assert built == [5]


class TestFit:
    def test_identical_points(self):
        rng = np.random.default_rng(13)
        pts, *_ = planted_subspace(rng, 2, 0, 1)
        same = np.tile(pts[0], (5, 1))
        res = epca.fit(same, 0)
        assert res.objective == pytest.approx(0.0, abs=1e-10)
        np.testing.assert_allclose(res.subspace.u0, pts[0], rtol=1e-6, atol=1e-8)

    def test_planted_recovery(self):
        rng = np.random.default_rng(14)
        pts, _, _, _ = planted_subspace(rng, 3, 2, 8)
        res = epca.fit(pts, 2, FitOptions(max_iters=10_000, rel_tol=1e-12))
        assert res.objective < 1e-6
        # reconstructions match the planted points in the dual chart
        d = 3
        for w, p in zip(res.weights, pts):
            rec = epca.reconstruct(w, res.subspace)
            zr = pack_expectation(natural_to_expectation(gg.unpack_natural(rec, d)))
            zp = pack_expectation(natural_to_expectation(gg.unpack_natural(p, d)))
            assert np.max(np.abs(zr - zp)) < 1e-4

    def test_full_span(self):
        # latent_dim = I - 1 interpolates generic points exactly
        rng = np.random.default_rng(15)
        pts = np.array([_nat_point(rng.normal(size=2) * 0.5,
                                   np.eye(2) + 0.3 * np.outer(v := rng.normal(size=2), v))
                        for _ in range(3)])
        res = epca.fit(pts, 2, FitOptions(rel_tol=1e-13))
        assert res.objective < 1e-6

    def test_monotone_history(self):
        rng = np.random.default_rng(16)
        pts, *_ = planted_subspace(rng, 3, 2, 10)
        noisy = pts + 0.01 * rng.normal(size=pts.shape)
        # re-symmetrize matrix blocks so points stay valid
        fixed = []
        for p in noisy:
            nat = gg.unpack_natural(p, 3)
            fixed.append(gg.pack_natural(nat))
        res = epca.fit(np.asarray(fixed), 2, FitOptions(rel_tol=1e-12))
        assert np.all(np.diff(res.history) <= 0)
        assert res.iterations == len(res.history) - 1

    def test_rejects_bad_latent_dim(self):
        rng = np.random.default_rng(17)
        pts, *_ = planted_subspace(rng, 2, 1, 3)
        with pytest.raises(ValueError):
            epca.fit(pts, 3)
        with pytest.raises(ValueError):
            epca.fit(pts[:1], 1)

    def test_single_point_offset_fit(self):
        rng = np.random.default_rng(18)
        pts, *_ = planted_subspace(rng, 2, 0, 1)
        res = epca.fit(pts[:1], 0)
        assert res.objective == pytest.approx(0.0, abs=1e-10)

    def test_reported_basis_unit_norm(self):
        rng = np.random.default_rng(19)
        pts, *_ = planted_subspace(rng, 2, 1, 5)
        res = epca.fit(pts, 1, FitOptions(rel_tol=1e-12))
        np.testing.assert_allclose(np.linalg.norm(res.subspace.basis, axis=1), 1.0, rtol=1e-12)

    @staticmethod
    def _continuation_points():
        """Extended coordinates of three toy tasks over their input union plus two
        test inputs, built as oracles.fit_joint_direct builds them."""
        prior = GpPrior(kernel=KernelConfig(lengthscale=0.4), beta=20.0)
        tasks = [
            TaskData([[0.1], [0.4]], [0.8, 0.3], 0),
            TaskData([[0.4], [0.7]], [0.1, -0.5], 1),
            TaskData([[0.1], [0.9]], [1.0, 0.4], 2),
        ]
        anchor = union_inputs(tasks)
        test = np.array([[0.25], [0.55]])
        return np.array([
            gg.pack_natural(moment_to_natural(
                joint_moments_bruteforce(prior, exact_posterior(prior, t, anchor), anchor, test)
            ))
            for t in tasks
        ])

    def test_resumes_after_failed_line_search(self):
        # L-BFGS-B's first trial step leaves the cone and its line search fails at
        # iteration 0; the fit must resume from there, not report the start.
        res = epca.fit(self._continuation_points(), 1)
        assert res.iterations > 0
        assert res.iterations == len(res.history) - 1  # every run's steps plus the restart steps
        assert res.converged
        # covers the hand-offs between the L-BFGS-B runs and the steepest restart steps
        assert np.all(np.diff(res.history) <= 0)

    @pytest.mark.parametrize("max_iters", [1, 2, 3])
    def test_restarts_keep_to_the_iteration_budget(self, max_iters):
        # The first run stops at iteration 0, so the steepest step after it is the
        # first iteration, and each restarted run gets only what is left.
        res = epca.fit(self._continuation_points(), 1, FitOptions(max_iters=max_iters))
        assert res.iterations <= max_iters
        assert res.iterations == len(res.history) - 1
        assert not res.converged

    def test_restarts_reach_the_anchor_set_optimum(self):
        # 1.2622911 is the anchor-set fit's optimum on these tasks. Trusting a
        # restarted run's ftol stop, which can follow a first step of mere rounding
        # next to the cone's edge, would end the fit near 2.88.
        res = epca.fit(self._continuation_points(), 1)
        assert res.converged
        assert res.objective == pytest.approx(1.2622911, rel=1e-3)

    def test_remembered_failed_row_changes_no_fit(self, monkeypatch):
        # After an evaluation raises, the batch factors the row that failed first;
        # forgetting that row before every evaluation must give the same fit, bit for
        # bit, through more full-stack factorizations.
        pts = self._continuation_points()
        factorizations = []
        natural_to_dual = epca._natural_to_dual

        def counting(points, d):
            factorizations.append(points.shape[0])
            return natural_to_dual(points, d)

        monkeypatch.setattr(epca, "_natural_to_dual", counting)
        with_row = epca.fit(pts, 1)
        remembered = len(factorizations)
        evaluate = epca._PointBatch.evaluate

        def forgetting(batch, *args):
            batch.failed = None
            return evaluate(batch, *args)

        monkeypatch.setattr(epca._PointBatch, "evaluate", forgetting)
        factorizations.clear()
        without = epca.fit(pts, 1)
        assert len(factorizations) > remembered
        for name in ("weights", "objective", "iterations", "converged", "history"):
            assert np.array_equal(getattr(with_row, name), getattr(without, name)), name
        assert np.array_equal(with_row.subspace.u0, without.subspace.u0)
        assert np.array_equal(with_row.subspace.basis, without.subspace.basis)

    def test_stall_that_never_moved_is_not_converged(self):
        # The default artificial sparse cell N = 3, repetition 3 of base seed 0:
        # L-BFGS-B's line search fails at iteration 0, and the steepest restart step
        # finds no decrease from there. Nothing moved, so nothing converged.
        data = gen_artificial(ArtificialConfig(samples_per_task=3, seed=evaluation._cell_seed(0, 3)))
        inducing = grid_inducing(np.vstack([t.inputs for t in data.train_tasks]), 12)
        prior = GpPrior(kernel=KernelConfig(lengthscale=0.2), beta=25.0)
        points, _ = gp_pca.task_coordinates(data.train_tasks, prior, "sparse", inducing)
        res = epca.fit(points, 1)
        assert len(res.history) == 1  # no accepted step
        assert res.iterations == 0  # the rejected restart step is not a step
        assert not res.converged

    def test_final_objective_recomputable(self):
        rng = np.random.default_rng(20)
        pts, *_ = planted_subspace(rng, 2, 1, 4)
        res = epca.fit(pts, 1)
        again = kl_objective(res.weights, res.subspace, pts)
        assert again == res.objective  # bitwise: same code path, same inputs


class TestInvalidInput:
    """A data point that is not a Gaussian is named as data, not as a reconstruction."""

    @staticmethod
    def _not_gaussian():
        bad = _nat_point([0.5], [[1.0]])
        bad[1] = 1.0  # positive Theta block
        return bad

    def test_fit_names_the_input_point(self):
        pts = np.array([_nat_point([0.0], [[1.0]]), self._not_gaussian(), _nat_point([1.0], [[2.0]])])
        with pytest.raises(ValidityError, match="input point 1 is not a valid Gaussian") as err:
            epca.fit(pts, 1)
        assert err.value.task_index == 1

    def test_project_point_names_the_input_point(self):
        s = Subspace(u0=_nat_point([0.0], [[1.0]]), basis=[[0.1, 0.0]])
        with pytest.raises(ValidityError, match="input point 0 is not a valid Gaussian"):
            epca.project_point(self._not_gaussian(), s)


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_fit_options_reject_non_finite_values(value):
    with pytest.raises(ValueError, match=f"^rel_tol must be positive and finite, got {value}$"):
        FitOptions(rel_tol=value)
    # A float iteration cap, finite or not, used to fail later in range().
    for cap in (value, 2.5):
        with pytest.raises(ValueError, match=f"^max_iters must be a positive integer, got {cap}$"):
            FitOptions(max_iters=cap)

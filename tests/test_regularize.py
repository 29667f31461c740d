import warnings

import numpy as np
import pytest

from hedgegame.hjb import GridSpec, solve
from hedgegame.model import HedgeGameError, make_finance_model, make_payoff
from hedgegame.regularize import (
    Box,
    CertificationError,
    SmoothSurface,
    build_smooth_supersolution,
    inf_convolution,
    make_check_grid,
    mollify,
    phi_from_surface,
    solve_shaken,
    verify_supersolution,
)

from conftest import bs_singleton_model, finance_spec, mollifier_oracle, uncertain_vol_model


def brute_force_envelope(values, k, coords, weights=None):
    """O(N^2) oracle with the same per-axis parenthesised accumulation."""
    v = np.asarray(values, dtype=float)
    if weights is None:
        weights = np.ones(v.ndim)
    out = np.empty(v.shape)
    arg = np.empty(v.shape + (v.ndim,), dtype=np.int64)
    for p in np.ndindex(*v.shape):
        best = np.inf
        barg = None
        for q in np.ndindex(*v.shape):
            val = v[q]
            for ax in range(v.ndim):
                dd = weights[ax] * coords[ax][p[ax]] - weights[ax] * coords[ax][q[ax]]
                val = val + k * dd**2
            if val < best:
                best, barg = val, q
        out[p] = best
        arg[p] = barg
    return out, arg


class TestSolveShaken:
    def test_eps_zero_bit_for_bit(self):
        model = uncertain_vol_model()
        grid = GridSpec(t_steps=150, x_min=(-1.8,), x_max=(1.8,), x_steps=(80,))
        plain = solve(model, grid)
        shaken = solve_shaken(model, grid, 0.0)
        assert np.array_equal(shaken.surface.values, plain.values)
        assert np.array_equal(shaken.surface.policy, plain.policy)

    def test_constant_coefficients_shift_equivalence(self):
        model = uncertain_vol_model()
        grid = GridSpec(t_steps=150, x_min=(-1.8,), x_max=(1.8,), x_steps=(80,))
        shaken = solve_shaken(model, grid, 0.1)
        shifted = solve(model, grid, terminal=lambda x: model.payoff_g(x) + 0.2)
        assert np.array_equal(shaken.surface.values, shifted.values)

    def test_monotone_in_eps(self):
        model = uncertain_vol_model()
        grid = GridSpec(t_steps=150, x_min=(-1.8,), x_max=(1.8,), x_steps=(80,))
        lo = solve_shaken(model, grid, 0.05)
        hi = solve_shaken(model, grid, 0.1)
        assert np.min(hi.surface.values - lo.surface.values) >= -1e-12

    def test_terminal_band(self):
        model = uncertain_vol_model()
        grid = GridSpec(t_steps=150, x_min=(-1.8,), x_max=(1.8,), x_steps=(80,))
        shaken = solve_shaken(model, grid, 0.1)
        assert shaken.terminal_band_ok
        assert shaken.c_eps > 0

    def test_eps_range_guard(self):
        model = bs_singleton_model()
        grid = GridSpec(t_steps=60, x_min=(-1.0,), x_max=(1.0,), x_steps=(30,))
        with pytest.raises(HedgeGameError):
            solve_shaken(model, grid, 1.5)


class TestInfConvolution:
    def test_constant_input_identity(self):
        c = np.full((12, 9), 2.72)
        coords = [np.linspace(0, 1, 12), np.linspace(0, 1, 9)]
        out, arg = inf_convolution(c, 4.0, coords)
        assert np.array_equal(out, c)
        ii, jj = np.meshgrid(np.arange(12), np.arange(9), indexing="ij")
        assert np.array_equal(arg[..., 0], ii)
        assert np.array_equal(arg[..., 1], jj)

    def test_abs_value_moreau_envelope(self):
        n = 2001
        c = np.linspace(-1.0, 1.0, n)
        k = 10.0
        out, _ = inf_convolution(np.abs(c), k, [c])
        want = np.where(np.abs(c) >= 1.0 / (2 * k), np.abs(c) - 1.0 / (4 * k), k * c * c)
        assert np.max(np.abs(out - want)) <= 1e-5

    def test_matches_brute_force_bitwise(self, rng):
        for _ in range(8):
            n0, n1 = rng.integers(4, 14, 2)
            k = float(rng.uniform(0.3, 25.0))
            vals = rng.normal(0.0, 1.0, (n0, n1))
            coords = [np.linspace(0, 1, n0), np.linspace(0, 2, n1)]
            fast, _ = inf_convolution(vals, k, coords)
            slow, _ = brute_force_envelope(vals, k, coords)
            assert np.array_equal(fast, slow)

    def test_below_input_and_contraction(self, rng):
        vals = rng.normal(0.0, 1.0, (20, 20))
        coords = [np.linspace(0, 1, 20)] * 2
        once, _ = inf_convolution(vals, 5.0, coords)
        twice, _ = inf_convolution(once, 5.0, coords)
        assert np.all(once <= vals + 1e-15)
        first = np.max(np.abs(once - vals))
        second = np.max(np.abs(twice - once))
        assert second <= first + 1e-15

    def test_argmin_displacement_bound(self, rng):
        for _ in range(5):
            vals = rng.uniform(-1.0, 1.0, (25, 25))
            k = float(rng.uniform(2.0, 40.0))
            coords = [np.linspace(0, 1, 25), np.linspace(0, 1, 25)]
            _, arg = inf_convolution(vals, k, coords)
            bound = 2.0 * np.max(np.abs(vals)) / k
            ii, jj = np.meshgrid(np.arange(25), np.arange(25), indexing="ij")
            d2 = (coords[0][arg[..., 0]] - coords[0][ii]) ** 2 \
                + (coords[1][arg[..., 1]] - coords[1][jj]) ** 2
            assert np.max(d2) <= bound + 1e-12

    def test_semiconcavity_of_envelope(self, rng):
        # w^k(z) - k|z|^2 is midpoint-concave along each axis
        vals = rng.normal(0.0, 1.0, (30,))
        coords = [np.linspace(0.0, 1.0, 30)]
        k = 12.0
        out, _ = inf_convolution(vals, k, coords)
        conc = out - k * coords[0] ** 2
        defect = conc[1:-1] - 0.5 * (conc[:-2] + conc[2:])
        assert np.min(defect) >= -1e-9

    def test_k_guard(self):
        with pytest.raises(HedgeGameError):
            inf_convolution(np.zeros(5), 0.0, [np.arange(5.0)])


class TestMollify:
    def setup_method(self):
        self.t = np.linspace(-0.2, 1.0, 121)
        self.ax = np.linspace(-1.0, 1.0, 401)

    def test_constant_input(self):
        vals = np.full((121, 401), 2.5)
        s = mollify(vals, self.t, [self.ax], 0.05)
        pk = s.eval(0.5, np.array([0.1]))
        assert pk.value == pytest.approx(2.5, abs=1e-10)
        assert abs(pk.q) <= 1e-10 and abs(pk.p[0]) <= 1e-10 and abs(pk.M[0, 0]) <= 1e-9

    def test_linear_input_symmetric_kernel(self):
        vals = np.tile(self.ax, (121, 1))
        s = mollify(vals, self.t, [self.ax], 0.05)
        pk = s.eval(0.5, np.array([0.123]))
        assert pk.value == pytest.approx(0.123, abs=1e-10)
        assert pk.p[0] == pytest.approx(1.0, abs=1e-10)

    def test_quadratic_second_moment(self):
        delta = 0.2
        vals = np.tile(self.ax**2, (121, 1))
        s = mollify(vals, self.t, [self.ax], delta)
        # kernel second moment by independent high-order quadrature
        from hedgegame.regularize import MollifierKernel
        nodes, wts = np.polynomial.legendre.leggauss(32)
        m2 = float(np.sum(wts * nodes**2 * MollifierKernel().space_value(nodes)))
        got = s.eval(0.5, np.array([0.1])).value
        assert got == pytest.approx(0.1**2 + m2 * delta**2, abs=5e-5)

    def test_derivatives_match_finite_differences(self, rng):
        vals = np.sin(2.0 * self.ax)[None, :] * np.cos(1.5 * self.t)[:, None]
        s = mollify(vals, self.t, [self.ax], 0.06)
        h = 1e-4
        for _ in range(25):
            tq = float(rng.uniform(0.1, 0.9))
            xq = float(rng.uniform(-0.7, 0.7))
            pk = s.eval(tq, np.array([xq]))
            fd_p = (s.value(tq, np.array([xq + h])) - s.value(tq, np.array([xq - h]))) / (2 * h)
            fd_q = (s.value(tq + h, np.array([xq])) - s.value(tq - h, np.array([xq]))) / (2 * h)
            fd_M = (s.value(tq, np.array([xq + h])) - 2 * pk.value
                    + s.value(tq, np.array([xq - h]))) / h**2
            assert abs(pk.p[0] - fd_p) <= 1e-4 * (1 + abs(pk.p[0]))
            assert abs(pk.q - fd_q) <= 1e-4 * (1 + abs(pk.q))
            assert abs(pk.M[0, 0] - fd_M) <= 1e-4 * (1 + abs(pk.M[0, 0]))

    def test_continuity_across_cells(self, rng):
        vals = np.cos(3.0 * self.ax)[None, :] * (1.0 + self.t)[:, None]
        s = mollify(vals, self.t, [self.ax], 0.05)
        eps = 1e-9
        for _ in range(10):
            i = int(rng.integers(100, 300))
            edge = self.ax[i]
            tq = float(rng.uniform(0.2, 0.8))
            left = s.eval(tq, np.array([edge - eps]))
            right = s.eval(tq, np.array([edge + eps]))
            # allow the true variation of the smooth function over 2*eps
            assert abs(left.value - right.value) <= 1e-9 + 2 * eps * abs(left.p[0])
            assert abs(left.p[0] - right.p[0]) <= 1e-7 + 2 * eps * abs(left.M[0, 0])
            assert abs(left.M[0, 0] - right.M[0, 0]) <= 1e-5

    def test_degenerate_width_warns(self):
        vals = np.zeros((121, 401))
        with pytest.warns(RuntimeWarning, match="grid cell"):
            mollify(vals, self.t, [self.ax], 0.001)


class TestSeparableMollifier:
    """The banded closed-form operator against per-point subdivided
    Gauss-Legendre quadrature, which is exact on every cell."""

    @staticmethod
    def surface(d, rng):
        t = np.linspace(-0.15, 1.0, 93)
        axes = [np.linspace(-1.0, 1.0, 81), np.linspace(-0.5, 1.5, 41)][:d]
        mesh = np.meshgrid(t, *axes, indexing="ij")
        vals = np.sin(2.0 * mesh[1]) * np.cos(1.5 * mesh[0]) + 0.3 * mesh[1] ** 2
        if d == 2:
            vals = vals + np.exp(0.5 * mesh[2]) * mesh[1] - 0.2 * mesh[2] ** 2
        vals = vals + 1e-3 * rng.normal(size=vals.shape)
        return SmoothSurface(t, axes, vals, 0.06)

    @staticmethod
    def points(smooth, rng, n):
        """Interior points, points within delta of each grid edge and points
        beyond it (constant extension)."""
        d = smooth.dim
        xs = np.stack([rng.uniform(ax[0] + 0.1, ax[-1] - 0.1, n) for ax in smooth.axes], -1)
        edge = []
        for i, ax in enumerate(smooth.axes):
            for off in (-0.3, -0.05, -0.01, 0.0, 0.02, 0.059):
                for side, sign in ((ax[0], 1.0), (ax[-1], -1.0)):
                    x = np.array([0.5 * (a[0] + a[-1]) for a in smooth.axes])
                    x[i] = side + sign * off
                    edge.append(x)
        if d == 2:
            edge += [np.array([smooth.axes[0][0] - 0.02, smooth.axes[1][-1] + 0.04]),
                     np.array([smooth.axes[0][-1] + 0.5, smooth.axes[1][0] - 0.5])]
        return np.concatenate([xs, np.array(edge)])

    def check(self, smooth, ts, xs):
        pk = smooth.eval_batch(ts, xs)
        ts = np.broadcast_to(ts, (len(xs),))
        for i in range(len(xs)):
            value, p, M, q = mollifier_oracle(smooth, ts[i], xs[i])
            assert abs(pk.value[i] - value) <= 1e-12 * (1.0 + abs(value))
            assert abs(pk.q[i] - q) <= 1e-12 * (1.0 + abs(q))
            assert np.max(np.abs(pk.p[i] - p)) <= 1e-12 * (1.0 + np.max(np.abs(p)))
            assert np.max(np.abs(pk.M[i] - M)) <= 1e-10 * (1.0 + np.max(np.abs(M)))

    @pytest.mark.parametrize("d", [1, 2])
    def test_matches_oracle_on_one_time(self, d, rng):
        smooth = self.surface(d, rng)
        xs = self.points(smooth, rng, 40)
        for t in (0.4321, 1.0):
            self.check(smooth, t, xs)

    @pytest.mark.parametrize("d", [1, 2])
    def test_matches_oracle_near_padded_start(self, d, rng):
        # t - delta before the first node layer: the time band is clipped
        smooth = self.surface(d, rng)
        xs = self.points(smooth, rng, 10)
        for t in (-0.15, -0.12, -0.09, -0.1 + 1e-9):
            self.check(smooth, t, xs)

    @pytest.mark.parametrize("d", [1, 2])
    def test_matches_oracle_on_mixed_times(self, d, rng):
        smooth = self.surface(d, rng)
        xs = self.points(smooth, rng, 30)
        ts = rng.choice([-0.13, 0.25, 0.25, 0.7, 1.0], size=len(xs))
        self.check(smooth, ts, xs)
        # eval is a one-point eval_batch
        one = [smooth.eval(ts[i], xs[i]) for i in range(len(xs))]
        pk = smooth.eval_batch(ts, xs)
        assert np.allclose(pk.value, [e.value for e in one], rtol=0.0, atol=1e-14)
        assert np.allclose(pk.p, [e.p for e in one], rtol=0.0, atol=1e-13)

    def test_row_cache_is_bounded(self, rng):
        smooth = self.surface(1, rng)
        xs = self.points(smooth, rng, 20)
        want = smooth.eval_batch(0.5, xs)
        smooth._ROW_CACHE_FLOATS = 3 * smooth.gradient_lattice(0.5).size
        for t in np.linspace(0.0, 1.0, 9):
            smooth.gradient_lattice(t)
            assert len(smooth._rows) <= 3
        got = smooth.eval_batch(0.5, xs)
        assert np.array_equal(got.value, want.value) and np.array_equal(got.M, want.M)


class TestBuildAndVerify:
    def test_constant_model_trivial_certificate(self):
        model = make_finance_model(
            finance_spec(), make_payoff("constant", level=1.0), 1,
            [np.array([0.2])], 1.0, 0.2,
        )
        grid = GridSpec(t_steps=120, x_min=(-1.0,), x_max=(1.0,), x_steps=(60,))
        B = Box(0.0, 1.0, (-0.5,), (0.5,))
        phi = lambda t, xs: np.full(len(np.atleast_2d(xs)), 2.0)
        smooth = build_smooth_supersolution(model, phi, B, 0.5, grid, validate=False)
        cert = smooth.certificate
        assert cert.passed
        assert cert.min_residual >= -1e-6
        assert smooth.value(0.3, np.array([0.2])) == pytest.approx(1.0 + 2 * cert.eps, abs=1e-8)

    def test_bs_singleton_certified(self):
        model = bs_singleton_model()
        grid = GridSpec(t_steps=520, x_min=(-1.0,), x_max=(1.0,), x_steps=(200,))
        v = solve(model, grid)
        B = Box(0.0, 1.0, (-0.5,), (0.5,))
        smooth = build_smooth_supersolution(
            model, phi_from_surface(v, 0.5), B, 0.4, grid, validate=False,
        )
        cert = smooth.certificate
        assert cert.passed
        assert cert.min_residual >= -1e-3
        assert cert.terminal_margin >= 0.0
        assert cert.phi_margin >= 0.0
        # monotone nonincreasing epsilon-gap curve
        cs = [c for _, c in cert.c_curve]
        assert all(a >= b - 1e-12 for a, b in zip(cs, cs[1:]))

    def test_corrupted_surface_fails_by_half(self):
        model = bs_singleton_model()
        grid = GridSpec(t_steps=520, x_min=(-1.0,), x_max=(1.0,), x_steps=(200,))
        v = solve(model, grid)
        B = Box(0.0, 1.0, (-0.5,), (0.5,))
        smooth = build_smooth_supersolution(
            model, phi_from_surface(v, 0.5), B, 0.4, grid, validate=False,
        )
        corrupt = smooth.node_values - 0.5 * (1.0 - np.asarray(smooth.t_nodes))[:, None]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            bad = SmoothSurface(smooth.t_nodes, smooth.axes, corrupt, smooth.delta)
        cg = make_check_grid(0.0, 0.8, (-0.5,), (0.5,), (20, 40))
        rep = verify_supersolution(bad, model, cg, tol=1e-3)
        assert not rep.passed
        assert rep.min_residual == pytest.approx(-0.5, abs=0.1)

    def test_phi_below_value_rejected(self):
        model = bs_singleton_model()
        grid = GridSpec(t_steps=120, x_min=(-1.0,), x_max=(1.0,), x_steps=(60,))
        v = solve(model, grid)
        B = Box(0.0, 1.0, (-0.5,), (0.5,))
        with pytest.raises(HedgeGameError, match="eta"):
            build_smooth_supersolution(model, phi_from_surface(v, 0.01), B, 0.4,
                                       grid, validate=False)

    def test_first_rung_when_eta_large(self):
        # eta above twice the first-rung gap certifies immediately at eps=0.2
        model = make_finance_model(
            finance_spec(), make_payoff("constant", level=0.0), 1,
            [np.array([0.2])], 1.0, 0.2,
        )
        grid = GridSpec(t_steps=120, x_min=(-1.0,), x_max=(1.0,), x_steps=(60,))
        B = Box(0.0, 1.0, (-0.5,), (0.5,))
        phi = lambda t, xs: np.full(len(np.atleast_2d(xs)), 1.0)
        smooth = build_smooth_supersolution(model, phi, B, 0.9, grid, validate=False)
        assert smooth.certificate.eps == 0.2

    def test_verify_zero_dynamics_zero_residual(self):
        model = make_finance_model(
            finance_spec(), make_payoff("constant", level=3.0), 1,
            [np.array([0.2])], 1.0, 0.2,
        )
        t = np.linspace(-0.1, 1.0, 56)
        ax = np.linspace(-1.0, 1.0, 41)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            s = SmoothSurface(t, [ax], np.full((56, 41), 3.0), 0.05)
        cg = make_check_grid(0.0, 0.9, (-0.5,), (0.5,), (10, 20))
        rep = verify_supersolution(s, model, cg, tol=1e-6)
        assert rep.passed
        assert rep.min_residual == pytest.approx(0.0, abs=1e-9)

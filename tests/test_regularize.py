import gc
import tracemalloc
import warnings

import numpy as np
import pytest

from hedgegame import regularize
from hedgegame.hjb import GridSpec, solve
from hedgegame.model import FinanceSpec, HedgeGameError, make_finance_model, make_payoff
from hedgegame.regularize import (
    Box,
    CertificationError,
    SmoothSurface,
    box_nodes,
    build_smooth_supersolution,
    inf_convolution,
    ladder_pad_layers,
    make_check_grid,
    phi_from_surface,
    solve_shaken,
    verify_supersolution,
)

from conftest import (
    _C_SPACE,
    _bump,
    bs_singleton_model,
    finance_spec,
    inf_convolution_oracle,
    mollifier_oracle,
    uncertain_vol_model,
    x_varying_vol_model,
)


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
        # values and argmin against the per-axis oracle on 1-, 2- and 3-axis
        # grids; values also against the joint scan over all node pairs. Half
        # the grids hold values rounded to 0.1 on dyadic coordinates, where
        # mirrored sources are exactly as far away and can tie.
        for trial in range(24):
            shape = tuple(int(n) for n in rng.integers(1, 14 if trial % 3 < 2 else 7,
                                                       trial % 3 + 1))
            k = float(rng.uniform(0.3, 25.0))
            vals = rng.normal(0.0, 1.0, shape)
            coords = [np.linspace(0, 1 + ax, n) for ax, n in enumerate(shape)]
            if trial % 2:
                vals = np.round(vals, 1)
                coords = [0.125 * np.arange(n) for n in shape]
            fast, arg = inf_convolution(vals, k, coords)
            want, want_arg = inf_convolution_oracle(vals, k, coords)
            assert np.array_equal(fast, want) and np.array_equal(arg, want_arg)
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
        s = SmoothSurface(self.t, [self.ax], vals, 0.05)
        pk = s.eval(0.5, np.array([0.1]))
        assert pk.value == pytest.approx(2.5, abs=1e-10)
        assert abs(pk.q) <= 1e-10 and abs(pk.p[0]) <= 1e-10 and abs(pk.M[0, 0]) <= 1e-9

    def test_linear_input_symmetric_kernel(self):
        vals = np.tile(self.ax, (121, 1))
        s = SmoothSurface(self.t, [self.ax], vals, 0.05)
        pk = s.eval(0.5, np.array([0.123]))
        assert pk.value == pytest.approx(0.123, abs=1e-10)
        assert pk.p[0] == pytest.approx(1.0, abs=1e-10)

    def test_quadratic_second_moment(self):
        delta = 0.2
        vals = np.tile(self.ax**2, (121, 1))
        s = SmoothSurface(self.t, [self.ax], vals, delta)
        # second moment of the closed-form bump by high-order quadrature
        nodes, wts = np.polynomial.legendre.leggauss(32)
        m2 = float(np.sum(wts * nodes**2 * _C_SPACE * _bump(nodes)))
        got = s.eval(0.5, np.array([0.1])).value
        assert got == pytest.approx(0.1**2 + m2 * delta**2, abs=5e-5)

    def test_derivatives_match_finite_differences(self, rng):
        vals = np.sin(2.0 * self.ax)[None, :] * np.cos(1.5 * self.t)[:, None]
        s = SmoothSurface(self.t, [self.ax], vals, 0.06)
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
        s = SmoothSurface(self.t, [self.ax], vals, 0.05)
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
            SmoothSurface(self.t, [self.ax], vals, 0.001)


class TestSeparableMollifier:
    """The banded closed-form operator against per-point subdivided
    Gauss-Legendre quadrature, which is exact on every cell."""

    @staticmethod
    def surface(d, rng, delta=0.06, n0=81):
        t = np.linspace(-0.15, 1.0, 93)
        axes = [np.linspace(-1.0, 1.0, n0), np.linspace(-0.5, 1.5, 41)][:d]
        mesh = np.meshgrid(t, *axes, indexing="ij")
        vals = np.sin(2.0 * mesh[1]) * np.cos(1.5 * mesh[0]) + 0.3 * mesh[1] ** 2
        if d == 2:
            vals = vals + np.exp(0.5 * mesh[2]) * mesh[1] - 0.2 * mesh[2] ** 2
        vals = vals + 1e-3 * rng.normal(size=vals.shape)
        return SmoothSurface(t, axes, vals, delta)

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

    @pytest.mark.parametrize("d", [1, 2])
    def test_matches_oracle_on_integer_band_ratio(self, d, rng):
        # the certify workload's band: 2 delta / h rounds just below 10, so
        # the column that reaches z = 1 crosses it a rounding error into
        # every cell and the cell's first piece is a sliver
        smooth = self.surface(d, rng, delta=0.05, n0=201)
        assert 2.0 * smooth.delta / (smooth.axes[0][1] - smooth.axes[0][0]) == 9.999999999999991
        xs = self.points(smooth, rng, 30)
        for t in (0.4321, 1.0):
            self.check(smooth, t, xs)

    @pytest.mark.parametrize("d", [1, 2])
    def test_matches_oracle_below_one_cell(self, d, rng):
        # delta = 0.4 h: a band of three nodes, rho = h / delta > 1 on every
        # axis, and the cell's first piece holds no interior column
        with pytest.warns(RuntimeWarning, match="grid cell"):
            smooth = self.surface(d, rng, delta=0.4 * 0.025)
        xs = self.points(smooth, rng, 30)
        for t in (0.4321, 1.0):
            self.check(smooth, t, xs)

    @pytest.mark.parametrize("d", [1, 2])
    def test_point_reads_the_same_bits_in_any_batch(self, d, rng):
        smooth = self.surface(d, rng)
        smooth._BLOCK = 1 << 10  # a few dozen points per block
        batch = self.points(smooth, rng, 300)
        rng.shuffle(batch)
        t = 0.4321
        # interior, edge and far-off points, each read alone and inside the
        # batch at its first, last and two middle positions
        for x in self.points(smooth, rng, 3):
            alone = smooth.eval_batch(t, x[None])
            value, grad = smooth.fast_value_grad(t, x[None])
            assert smooth.value(t, x) == value[0]
            assert np.array_equal(smooth.gradient(t, x[None]), grad)
            for pos in (0, 17, 150, len(batch)):
                xs = np.insert(batch, pos, x, axis=0)
                pk = smooth.eval_batch(t, xs)
                for f in ("value", "p", "M", "q"):
                    assert np.array_equal(getattr(pk, f)[pos], getattr(alone, f)[0])
                v, g = smooth.fast_value_grad(t, xs)
                assert v[pos] == value[0] and np.array_equal(g[pos], grad[0])
                assert np.array_equal(smooth.gradient(t, xs)[pos], grad[0])

    @pytest.mark.parametrize("d", [1, 2])
    def test_read_of_no_points_is_empty(self, d, rng):
        smooth = self.surface(d, rng)
        none = np.empty((0, d))
        pk = smooth.eval_batch(0.5, none)
        assert pk.value.shape == pk.q.shape == (0,)
        assert pk.p.shape == (0, d) and pk.M.shape == (0, d, d)
        value, grad = smooth.fast_value_grad(0.5, none)
        assert value.shape == (0,) and grad.shape == (0, d)
        assert smooth.gradient(0.5, none).shape == (0, d)

    @pytest.mark.parametrize("d", [1, 2])
    def test_one_row_is_kept(self, monkeypatch, d):
        # reads at 9 times leave the surface one row (tracemalloc, blocks of
        # 1 KiB and more, after a full collection: numpy keeps freed buffers
        # below 1 KiB for reuse and Python its free lists); asking again at
        # the last time builds no row, and every read keeps its bits
        rng = np.random.default_rng(3)
        smooth = self.surface(d, rng, n0=201)
        xs = self.points(smooth, rng, 20)
        ts = np.linspace(0.0, 1.0, 9)
        want = [self.copy(smooth).fast_value_grad(t, xs) for t in ts]
        row_bytes = smooth.gradient_lattice(0.5).nbytes
        smooth = self.copy(smooth)
        tracemalloc.start()
        try:
            for t, (v0, g0) in zip(ts, want):
                v, g = smooth.fast_value_grad(t, xs)
                assert np.array_equal(v, v0) and np.array_equal(g, g0)
            del v, g
            gc.collect()
            held = sum(tr.size for tr in tracemalloc.take_snapshot().traces if tr.size >= 1024)
        finally:
            tracemalloc.stop()
        assert 1024 <= row_bytes <= held < 2 * row_bytes, (held, row_bytes)
        rows = []
        time_row = SmoothSurface._time_row
        monkeypatch.setattr(SmoothSurface, "_time_row",
                            lambda self, t, kind: rows.append((t, kind)) or time_row(self, t, kind))
        v, g = smooth.fast_value_grad(ts[-1], xs)
        assert np.array_equal(smooth.gradient(ts[-1], xs), g)
        pk = smooth.eval_batch(ts[-1], xs)
        assert rows == [(ts[-1], "grad")]  # eval_batch's time derivative, never kept
        assert np.array_equal(pk.value, v) and np.array_equal(pk.p, g)
        assert np.array_equal(v, want[-1][0]) and np.array_equal(g, want[-1][1])

    @staticmethod
    def copy(smooth):
        return SmoothSurface(smooth.t_nodes, smooth.axes, smooth.node_values, smooth.delta)

    @pytest.mark.parametrize("d, x", [
        (1, [0.1, 0.5, -0.3]), (1, [[0.1, 0.5]]), (2, [[0.1]]), (2, [0.1, 0.2, 0.3]),
    ], ids=["d1-three-coords", "d1-one-row-of-two", "d2-one-coord", "d2-three-coords"])
    def test_points_of_the_wrong_shape_raise(self, d, x):
        # x must be one point (d,) or points (n, d); any other shape raises
        # HedgeGameError, not a bare ValueError or a read of some coordinates
        smooth = self.surface(d, np.random.default_rng(4))
        x = np.array(x)
        for read in (lambda: smooth.gradient(0.5, x), lambda: smooth.fast_value_grad(0.5, x),
                     lambda: smooth.eval_batch(0.5, x), lambda: smooth.eval(0.5, x),
                     lambda: smooth.value(0.5, x)):
            with pytest.raises(HedgeGameError, match="shape"):
                read()


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

    def test_bs_singleton_certified(self, monkeypatch):
        solved = count_shaken_solves(monkeypatch)
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
        # monotone nonincreasing epsilon-gap curve over the solved rungs
        cs = [c for e, c in cert.c_curve if e not in cert.pruned]
        assert all(a >= b - 1e-12 for a, b in zip(cs, cs[1:]))
        # eps 0.2 is pruned on its terminal gap 0.4 > eta/2: the base and eps 0.1 are solved
        assert solved == [0.0, 0.1] and cert.pruned == [0.2] and cert.c_curve[0] == (0.2, 0.4)
        assert (cert.eps, cert.k, cert.delta) == (0.1, 480.0, 0.05)
        assert cert.min_residual == pytest.approx(-1.9673274179614342e-04, rel=1e-12, abs=0.0)

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
        # a lattice without a time or a space node certifies nothing: it fails
        for shape in ((0, 20), (10, 0)):
            empty = verify_supersolution(s, model, make_check_grid(0.0, 0.9, (-0.5,), (0.5,), shape))
            assert not empty.passed and empty.n_checked == 0

    @pytest.mark.parametrize("vols", [(0.3, 0.1), (0.1, 0.3)], ids=["nan-first", "nan-second"])
    def test_nan_generator_value_fails_and_names_its_node(self, vols):
        # the drift is NaN near x = 0.1 for a = 0.3 on every time node: the
        # check fails at the first such node in either order of A (a minimum
        # over the pairs that skipped the NaN, or a row minimum that skipped
        # the NaN node, would pass the first order with min_residual inf)
        def mu(t, x, a):
            bad = (a[0] == 0.3) & (np.abs(np.asarray(x)[..., 0] - 0.1) < 0.03)
            return np.where(bad, np.nan, 0.0)[..., None]

        fin = FinanceSpec(mu=mu, sigma=finance_spec().sigma, r_lend=finance_spec().r_lend,
                          r_borrow=finance_spec().r_borrow)
        model = make_finance_model(fin, make_payoff("constant", level=-10.0), 1,
                                   [np.array([v]) for v in vols], 1.0, 0.3)
        t = np.linspace(-0.1, 1.0, 56)
        ax = np.linspace(-1.0, 1.0, 81)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            s = SmoothSurface(t, [ax], np.broadcast_to(np.sin(3.0 * ax), (56, 81)), 0.05)
        cg = make_check_grid(0.0, 0.9, (-0.5,), (0.5,), (10, 41))
        rep = verify_supersolution(s, model, cg, tol=1e-3)
        assert not rep.passed and np.isnan(rep.min_residual)
        assert rep.argmin == (0.0, cg[1][0][23]) and rep.n_checked == 410  # x = 0.075


def count_shaken_solves(monkeypatch):
    """The eps of every ``solve_shaken`` call the ladder makes, in order."""
    solved, solve_shaken_ = [], regularize.solve_shaken

    def counted(model, grid, eps, *args, **kwargs):
        solved.append(eps)
        return solve_shaken_(model, grid, eps, *args, **kwargs)

    monkeypatch.setattr(regularize, "solve_shaken", counted)
    return solved


class TestLadderPruning:
    """When B reaches T, a rung whose terminal gap exceeds eta/2 is not solved."""

    def test_pruned_entry_is_the_terminal_row_of_its_gap(self, monkeypatch):
        # the x- and time-varying vol lifts c_B above 2 eps, so the pruned
        # entry, the terminal row of w_eps - w_0 on B, is a strict lower bound
        solved = count_shaken_solves(monkeypatch)
        model = x_varying_vol_model(time_factor=True)
        grid = GridSpec(t_steps=200, x_min=(-1.8,), x_max=(1.8,), x_steps=(60,))
        B = Box(0.0, 1.0, (-0.5,), (0.5,))
        phi = lambda t, xs: np.full(len(np.atleast_2d(xs)), 10.0)
        ladder = (0.1, 0.05)
        try:
            cert = build_smooth_supersolution(model, phi, B, 0.25, grid, eps_ladder=ladder,
                                              check_shape=(10, 20), validate=False).certificate
        except CertificationError as err:
            cert = err.report
        assert solved == [0.0, 0.05] and cert.pruned == [0.1]
        pad = ladder_pad_layers(model, grid, ladder)
        t_sel, b_mask = box_nodes(model, grid, B, pad)
        base, shaken = (solve_shaken(model, grid, e, pad_layers=pad) for e in (0.0, 0.1))
        diff = shaken.surface.values[t_sel][:, b_mask] - base.surface.values[t_sel][:, b_mask]
        assert cert.c_curve[0] == (0.1, float(np.max(diff[-1])))
        assert cert.c_curve[0][1] < float(np.max(diff))

    def test_criterion_4_shaped_ladder_solves_base_and_first_open_rung(self, monkeypatch):
        solved = count_shaken_solves(monkeypatch)
        model = bs_singleton_model()
        grid = GridSpec(t_steps=520, x_min=(-1.0,), x_max=(1.0,), x_steps=(200,))
        v = solve(model, grid)
        B = Box(0.0, 1.0, (-0.5,), (0.5,))
        smooth = build_smooth_supersolution(model, phi_from_surface(v, 0.5), B, 0.2, grid,
                                            validate=False)
        cert = smooth.certificate
        assert cert.passed and cert.eps == 0.05
        assert solved == [0.0, 0.05]
        assert cert.pruned == [0.2, 0.1]
        assert cert.c_curve[:2] == [(0.2, 0.4), (0.1, 0.2)]
        assert cert.to_dict()["pruned"] == [0.2, 0.1]

    def test_all_rungs_pruned_solves_only_the_base(self, monkeypatch):
        solved = count_shaken_solves(monkeypatch)
        model = make_finance_model(finance_spec(), make_payoff("constant", level=1.0), 1,
                                   [np.array([0.2])], 1.0, 0.2)
        grid = GridSpec(t_steps=120, x_min=(-1.0,), x_max=(1.0,), x_steps=(60,))
        B = Box(0.0, 1.0, (-0.5,), (0.5,))
        phi = lambda t, xs: np.full(len(np.atleast_2d(xs)), 2.0)
        with pytest.raises(CertificationError, match=r"eps \[0\.2, 0\.1\] pruned"):
            build_smooth_supersolution(model, phi, B, 0.1, grid, eps_ladder=(0.2, 0.1),
                                       validate=False)
        assert solved == [0.0]

    def test_box_ending_before_T_solves_every_rung(self, monkeypatch):
        solved = count_shaken_solves(monkeypatch)
        model = make_finance_model(finance_spec(), make_payoff("constant", level=1.0), 1,
                                   [np.array([0.2])], 1.0, 0.2)
        grid = GridSpec(t_steps=120, x_min=(-1.0,), x_max=(1.0,), x_steps=(60,))
        B = Box(0.0, 0.5, (-0.5,), (0.5,))
        phi = lambda t, xs: np.full(len(np.atleast_2d(xs)), 2.0)
        with pytest.raises(CertificationError) as err:
            build_smooth_supersolution(model, phi, B, 0.1, grid, eps_ladder=(0.2, 0.1),
                                       validate=False)
        assert solved == [0.0, 0.2, 0.1] and "pruned" not in str(err.value)

    def test_box_holds_its_bounds_within_the_slack(self):
        # one rule for box_nodes and verify_supersolution: each bound widened by 1e-12
        B = Box(0.25, 0.5, (-0.5, 0.0), (0.5, 1.0))
        in_t, in_x = B.holds(np.array([0.25 - 5e-13, 0.25 - 2e-12, 0.5 + 5e-13, 0.5 + 2e-12]),
                             np.array([[[-0.5 - 5e-13, 0.5], [0.0, 1.0 + 2e-12]],
                                       [[0.5 + 5e-13, 1e-13], [0.6, 0.5]]]))
        assert in_t.tolist() == [True, False, True, False]
        assert in_x.tolist() == [[True, False], [True, False]]

    @pytest.mark.parametrize("B, empty", [
        (Box(0.305, 0.306, (-0.5,), (0.5,)), "time"),
        (Box(0.0, 1.0, (0.01,), (0.02,)), "space"),
    ])
    def test_box_without_a_grid_node_fails_before_any_solve(self, monkeypatch, B, empty):
        solved = count_shaken_solves(monkeypatch)
        model = bs_singleton_model()
        grid = GridSpec(t_steps=104, x_min=(-1.0,), x_max=(1.0,), x_steps=(40,))
        phi = lambda t, xs: np.full(len(np.atleast_2d(xs)), 5.0)
        with pytest.raises(HedgeGameError, match=f"holds no {empty} node of the solve grid"):
            build_smooth_supersolution(model, phi, B, 0.4, grid, validate=False)
        assert solved == []

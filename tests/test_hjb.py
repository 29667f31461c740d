import dataclasses
import tracemalloc

import numpy as np
import pytest

from hedgegame.hjb import (
    CFLError,
    GridSpec,
    ValueSurface,
    load_binary,
    residual,
    save_binary,
    save_csv,
    solve,
)
from hedgegame import hjb
from hedgegame.model import (FinanceSpec, HedgeGameError, ModelError,
                             make_finance_model, make_payoff, make_single_rate_model, market_read,
                             shake_lattice)

from conftest import (
    bs_call,
    bs_call_spread,
    bs_singleton_model,
    constant_mu,
    constant_rate,
    finance_spec,
    residual_oracle,
    sweep_oracle,
    uncertain_vol_model,
    x_varying_vol_model,
)


def small_grid(x_lo=-1.2, x_hi=1.2, nx=100, nt=200):
    return GridSpec(t_steps=nt, x_min=(x_lo,), x_max=(x_hi,), x_steps=(nx,))


def tabulated_surface(fn, x_lo=-1.0, x_hi=1.0, nx=50, nt=10, T=1.0):
    """Surface with prescribed node values, for interpolation tests."""
    grid = GridSpec(t_steps=nt, x_min=(x_lo,), x_max=(x_hi,), x_steps=(nx,))
    t = np.linspace(0.0, T, nt + 1)
    ax = grid.axes()[0]
    vals = np.array([[fn(tk, xi) for xi in ax] for tk in t])
    pol = np.zeros_like(vals, dtype=np.int32)
    return ValueSurface(grid, "tab", t, [ax], vals, pol, 1, {})


class TestGridSpec:
    def test_bounds_validated(self):
        with pytest.raises(HedgeGameError):
            GridSpec(t_steps=10, x_min=(1.0,), x_max=(0.0,), x_steps=(10,))

    def test_dim_cap(self):
        with pytest.raises(HedgeGameError):
            GridSpec(t_steps=10, x_min=(0, 0, 0), x_max=(1, 1, 1), x_steps=(4, 4, 4))

    def test_cfl_reported(self):
        g = small_grid()
        assert g.cfl_number(0.2, 1.0 / 200) == pytest.approx(
            (1.0 / 200) * (0.04 / 0.024**2 + 0.2 / 0.024)
        )


class TestSolve:
    def test_constant_payoff_all_layers_one(self):
        model = make_finance_model(
            finance_spec(), make_payoff("constant", level=1.0), 1,
            [np.array([0.1]), np.array([0.3])], 1.0, 0.3,
        )
        surf = solve(model, small_grid())
        assert np.all(surf.values == 1.0)

    def test_terminal_layer_bitwise_payoff(self):
        model = bs_singleton_model()
        grid = small_grid()
        surf = solve(model, grid)
        g = model.payoff_g(grid.mesh())
        assert np.array_equal(surf.values[-1], g)

    def test_black_scholes_call_spread(self):
        model = bs_singleton_model()
        grid = GridSpec(t_steps=400, x_min=(-1.2,), x_max=(1.2,), x_steps=(200,))
        surf = solve(model, grid)
        price = surf.value(0.0, np.array([0.0]))
        want = bs_call_spread(1.0, 1.0, 1.4, 0.2, 1.0)
        assert abs(price - want) / want < 5e-3

    def test_uncertain_vol_picks_high_sigma_for_convex(self):
        model = uncertain_vol_model()
        grid = GridSpec(t_steps=400, x_min=(-1.8,), x_max=(1.8,), x_steps=(200,))
        surf = solve(model, grid)
        price = surf.value(0.0, np.array([0.0]))
        want = bs_call(1.0, 1.0, 0.3, 1.0)
        assert abs(price - want) / want < 1e-2

    def test_cfl_refusal(self):
        model = bs_singleton_model()
        with pytest.raises(CFLError):
            solve(model, GridSpec(t_steps=20, x_min=(-1.2,), x_max=(1.2,), x_steps=(200,)))

    def test_monotone_in_terminal_data(self):
        model = bs_singleton_model()
        grid = small_grid(nx=60, nt=120)
        lo = solve(model, grid)
        bumped = lambda x: model.payoff_g(x) + 0.1
        hi = solve(model, grid, terminal=bumped)
        assert np.all(hi.values - lo.values >= -1e-12)

    def test_enlarging_adverse_set_never_decreases(self):
        # worst case over more adverse actions can only cost more
        sub = uncertain_vol_model(vols=(0.1,))
        full = uncertain_vol_model(vols=(0.1, 0.3))
        grid = GridSpec(t_steps=200, x_min=(-1.8,), x_max=(1.8,), x_steps=(100,))
        v_sub = solve(sub, grid)
        v_full = solve(full, grid)
        assert np.all(v_full.values - v_sub.values >= -1e-12)
        assert np.max(v_full.values - v_sub.values) > 1e-3

    def test_two_rate_matches_single_rate_oracle_when_equal(self):
        fin = finance_spec(r_lend=0.03, r_borrow=0.03)
        payoff = make_payoff("call", strike=1.0)
        model = make_finance_model(fin, payoff, 1, [np.array([0.2])], 1.0, 0.23)
        oracle = make_single_rate_model(fin, 0.03, payoff, 1, [np.array([0.2])], 1.0, 0.23)
        grid = small_grid(nx=80, nt=200)
        a = solve(model, grid)
        b = solve(oracle, grid)
        assert np.max(np.abs(a.values - b.values)) <= 1e-10

    def test_grid_refinement_cauchy(self):
        model = bs_singleton_model()
        prices = []
        for nx, nt in ((50, 60), (100, 220), (200, 850)):
            grid = GridSpec(t_steps=nt, x_min=(-1.2,), x_max=(1.2,), x_steps=(nx,))
            prices.append(solve(model, grid).value(0.0, np.array([0.0])))
        want = bs_call_spread(1.0, 1.0, 1.4, 0.2, 1.0)
        errs = [abs(p - want) for p in prices]
        assert errs[2] < errs[1] < errs[0]

    def test_dim2_reduces_to_dim1_on_separable_model(self):
        # payoff and dynamics depend only on the first axis
        def sigma2(t, x, a):
            s = float(np.asarray(a).reshape(-1)[0])
            return np.broadcast_to(s * np.eye(2), np.asarray(x).shape[:-1] + (2, 2))

        from hedgegame.model import FinanceSpec
        from conftest import constant_mu, constant_rate
        fin2 = FinanceSpec(mu=constant_mu(2), sigma=sigma2,
                           r_lend=constant_rate(0.0), r_borrow=constant_rate(0.0))
        payoff = make_payoff("call_spread", strike=1.0, cap=1.4)
        m2 = make_finance_model(fin2, payoff, 2, [np.array([0.2])], 1.0, 0.25)
        g2 = GridSpec(t_steps=160, x_min=(-0.9, -0.5), x_max=(0.9, 0.5), x_steps=(48, 16))
        s2 = solve(m2, g2)
        m1 = bs_singleton_model()
        g1 = GridSpec(t_steps=160, x_min=(-0.9,), x_max=(0.9,), x_steps=(48,))
        s1 = solve(m1, g1)
        mid = 8  # central index on the passive axis
        assert np.max(np.abs(s2.values[:, :, mid] - s1.values)) < 2e-3


class TestCentralScheme:
    """Every first difference is central, so the price error is second
    order in h: on 400x200 grids the book's claims are within a few 1e-4 of
    their closed forms (the upwind scheme is off by 3e-3 to 6e-3 here)."""

    @pytest.mark.parametrize("model, x_max, want, tol", [
        (bs_singleton_model(), 1.2, bs_call_spread(1.0, 1.0, 1.4, 0.2, 1.0), 1e-4),
        (uncertain_vol_model(), 1.8, bs_call(1.0, 1.0, 0.3, 1.0), 5e-4),
        (uncertain_vol_model(vols=(0.2,), r_lend=0.02, r_borrow=0.05), 1.2,
         bs_call(1.0, 1.0, 0.2, 1.0, rate=0.05), 5e-4),
    ], ids=["bs-spread", "uv-call", "two-rate-call"])
    def test_closed_form_on_a_coarse_grid(self, model, x_max, want, tol):
        grid = GridSpec(t_steps=400, x_min=(-x_max,), x_max=(x_max,), x_steps=(200,))
        price = solve(model, grid).value(0.0, np.array([0.0]))
        assert abs(price - want) / want <= tol


class TestFailClosed:
    """A node weight of the central scheme that is negative or NaN, and a
    layer with a non-finite value, raise NumericsError naming the layer.
    Each model below reads one bad coefficient on the layer at t = 0.5 only
    (64 steps over T = 1); its config keeps the hash from sampling it."""

    @staticmethod
    def solve_bad(dim, **coefficients):
        fin = finance_spec(dim=dim, r_lend=0.02, r_borrow=0.05)
        bad = {}
        for name, value in coefficients.items():
            def at_half(t, x, a, _f=getattr(fin, name), _v=value):
                out = np.asarray(_f(t, x, a), dtype=float)
                return _v(out) if t == 0.5 else out
            bad[name] = at_half
        model = make_finance_model(dataclasses.replace(fin, **bad), make_payoff("call", strike=1.0),
                                   dim, [np.array([0.1]), np.array([0.3])], 1.0, 0.3,
                                   config={"bad at t = 0.5": sorted(coefficients)})
        grid = (small_grid(nx=30, nt=64) if dim == 1 else
                GridSpec(t_steps=64, x_min=(-1.0, -1.0), x_max=(1.0, 1.0), x_steps=(12, 10)))
        return solve(model, grid, validate=False)

    @pytest.mark.parametrize("dim, node", [(1, "[-1.2]"), (2, "[-1. -1.]")], ids=["1", "2"])
    def test_nan_mu_fails_closed_on_its_layer(self, dim, node):
        # mu cancels from the weights, so the NaN reaches the layer's values;
        # every row is NaN there, so the first node and the first pair are named
        with pytest.raises(hjb.NumericsError) as err:
            self.solve_bad(dim, mu=lambda m: np.full(m.shape, np.nan))
        assert str(err.value) == f"non-finite value at layer t=0.5, node x={node}, a=[0.1]: generator row nan"

    def test_nan_mu_at_one_adverse_point_names_its_pair(self):
        # only a = 0.3 reads a NaN drift, at t = 0.5 and x >= 0: its row alone
        # is NaN, and the minimum carries the NaN into the layer
        def mu(t, x, a):
            bad = (t == 0.5) & (a[0] == 0.3) & (np.asarray(x)[..., 0] >= 0.0)
            return np.where(bad, np.nan, 0.0)[..., None]

        fin = dataclasses.replace(finance_spec(r_lend=0.02, r_borrow=0.05), mu=mu)
        model = make_finance_model(fin, make_payoff("call", strike=1.0), 1,
                                   [np.array([0.1]), np.array([0.3])], 1.0, 0.3,
                                   config={"mu": "NaN at t = 0.5, x >= 0 for a = 0.3"})
        with pytest.raises(hjb.NumericsError) as err:
            solve(model, small_grid(nx=30, nt=64), validate=False)
        assert str(err.value) == "non-finite value at layer t=0.5, node x=[0.], a=[0.3]: generator row nan"

    def test_rate_in_the_centre_weight_names_the_dt_that_passes(self):
        # sigma 1 on h = 0.5 with dt = 0.225: the diffusion alone leaves the
        # centre weight 1 - 0.9 = 0.1, the explicit wealth term takes
        # dt max(r) = 0.225 more; dt <= 1 / (4 + 1) = 0.2 passes. K = 0.3
        # passes the K-based refusal, and the Peclet number is 0.25
        model = make_finance_model(finance_spec(r_lend=0.5, r_borrow=1.0), make_payoff("call", strike=1.0),
                                   1, [np.array([1.0])], 0.9, 0.3)
        grid = GridSpec(t_steps=4, x_min=(-2.0,), x_max=(2.0,), x_steps=(8,))
        with pytest.raises(hjb.NumericsError) as err:
            solve(model, grid, validate=False)
        assert str(err.value) == ("scheme not monotone at layer t=0.675, node x=[-2.], a=[1.]: "
                                  "centre weight -0.125 < 0 (dt=0.225; dt <= 0.2 would pass)")

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("name", ["sigma", "r_lend", "r_borrow"])
    def test_nan_coefficient_fails_the_weight_check(self, dim, name):
        with pytest.raises(hjb.NumericsError,
                           match=r"not monotone at layer t=0\.5, .*cell Peclet number nan > 1"):
            self.solve_bad(dim, **{name: lambda c: np.full(c.shape, np.nan)})

    @pytest.mark.parametrize("dim", [1, 2])
    def test_sigma_above_the_declared_K_fails_the_centre_weight(self, dim):
        # K = 0.3 passes the K-based CFL refusal; sigma 3 and 9 make the centre
        # weight negative, most of all at a = 0.3
        with pytest.raises(hjb.NumericsError,
                           match=r"not monotone at layer t=0\.5, node x=.*, a=\[0\.3\]: centre weight -"):
            self.solve_bad(dim, sigma=lambda s: 30.0 * s)

    def test_low_vol_names_the_peclet_number_and_the_h_that_passes(self):
        # sigma 0.03 at the 5 % borrowing rate on 40 cells over 3.6: Peclet
        # |0.05 - 0.00045| 0.09 / 0.0009 = 4.955; h <= 0.0182 (about 200 cells) passes
        model = make_finance_model(finance_spec(r_lend=0.02, r_borrow=0.05),
                                   make_payoff("call_spread", strike=1.0, cap=1.4), 1,
                                   [np.array([0.03])], 1.0, 0.3)
        grid = GridSpec(t_steps=100, x_min=(-1.8,), x_max=(1.8,), x_steps=(40,))
        with pytest.raises(hjb.NumericsError) as err:
            solve(model, grid)
        assert ("at layer t=0.99, node x=[-1.8], a=[0.03]: cell Peclet number 4.955 > 1 on axis 0 "
                "(h=0.09; h <= 0.01816 would pass)") in str(err.value)


def discrete_gamma_term(v: np.ndarray, dx: float) -> np.ndarray:
    """Scheme-consistent curvature signal: central D2 minus central D1.

    The adverse argmin between two volatilities compares exactly this
    quantity on the layer being differenced (every first difference of the
    scheme is central).
    """
    sec = np.empty_like(v)
    sec[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / dx**2
    sec[0], sec[-1] = sec[1], sec[-2]
    p_cen = np.empty_like(v)
    p_cen[1:-1] = (v[2:] - v[:-2]) / (2.0 * dx)
    p_cen[0], p_cen[-1] = p_cen[1], p_cen[-2]
    return sec - p_cen


def policy_agreement(surf, want_high: bool, tol: float = 1e-3):
    dx = surf.axes[0][1] - surf.axes[0][0]
    agree = total = 0
    for k in range(1, len(surf.t) - 1):
        gamma_term = discrete_gamma_term(surf.values[k + 1], dx)[2:-2]
        pol = surf.policy[k][2:-2]
        mask = np.abs(gamma_term) > tol
        total += int(mask.sum())
        if want_high:
            agree += int(((gamma_term > 0) == (pol == 1))[mask].sum())
        else:
            agree += int(((gamma_term < 0) == (pol == 0))[mask].sum())
    return agree, total


class TestPolicy:
    def test_singleton_all_zero(self):
        surf = solve(bs_singleton_model(), small_grid(nx=60, nt=120))
        assert np.all(surf.policy == 0)

    def test_convex_payoff_selects_high_vol(self):
        model = uncertain_vol_model()
        grid = GridSpec(t_steps=200, x_min=(-1.8,), x_max=(1.8,), x_steps=(100,))
        surf = solve(model, grid)
        agree, total = policy_agreement(surf, want_high=True)
        assert total > 0 and agree / total >= 0.95

    def test_concave_payoff_selects_low_vol(self):
        model = uncertain_vol_model(payoff_kind="covered_call")
        grid = GridSpec(t_steps=200, x_min=(-1.8,), x_max=(1.8,), x_steps=(100,))
        surf = solve(model, grid)
        agree, total = policy_agreement(surf, want_high=False)
        assert total > 0 and agree / total >= 0.95


class TestResidual:
    def test_constant_payoff_zero_residual(self):
        model = make_finance_model(
            finance_spec(), make_payoff("constant", level=1.0), 1,
            [np.array([0.2])], 1.0, 0.2,
        )
        surf = solve(model, small_grid(nx=40, nt=80))
        rep = residual(surf, model)
        assert rep.max_abs <= 1e-9

    def test_black_scholes_residual_small_away_from_kinks(self):
        model = bs_singleton_model()
        grid = GridSpec(t_steps=400, x_min=(-1.2,), x_max=(1.2,), x_steps=(200,))
        surf = solve(model, grid)
        r = residual_oracle(surf, model)
        ax = surf.axes[0]
        # mask out strike neighbourhoods and the terminal-adjacent layers
        xmask = (np.abs(np.exp(ax) - 1.0) > 0.15) & (np.abs(np.exp(ax) - 1.4) > 0.2)
        sub = r[1:-20][:, xmask]
        sub = sub[np.isfinite(sub)]
        assert np.max(np.abs(sub)) <= 5e-2

    def test_residual_shrinks_under_refinement(self):
        model = bs_singleton_model()
        maxima = []
        for nx, nt in ((60, 80), (120, 300)):
            grid = GridSpec(t_steps=nt, x_min=(-1.2,), x_max=(1.2,), x_steps=(nx,))
            surf = solve(model, grid)
            r = residual_oracle(surf, model)
            ax = surf.axes[0]
            xmask = (np.abs(np.exp(ax) - 1.0) > 0.15) & (np.abs(np.exp(ax) - 1.4) > 0.2)
            cut = max(2, nt // 20)
            sub = r[1:-cut][:, xmask]
            maxima.append(np.max(np.abs(sub[np.isfinite(sub)])))
        assert maxima[0] / maxima[1] >= 1.5


def assert_reductions_of(rep, grid, surf):
    """The report's max_abs, min_value and argmin are, bit for bit, those
    taken over the whole of ``grid`` at once: finite values only, and the
    first minimum in C order."""
    finite = grid[np.isfinite(grid)]
    loc = np.unravel_index(int(np.nanargmin(np.where(np.isfinite(grid), grid, np.inf))), grid.shape)
    coords = (float(surf.t[loc[0]]),) + tuple(float(ax[i]) for ax, i in zip(surf.axes, loc[1:]))
    assert np.float64(rep.max_abs).tobytes() == np.max(np.abs(finite)).tobytes()
    assert np.float64(rep.min_value).tobytes() == np.min(finite).tobytes()
    assert rep.argmin == coords


def interior_of(field):
    """``field`` at the interior nodes of its interior layers, NaN elsewhere:
    the residual grid of a generator that returns ``field``."""
    out = np.full(field.shape, np.nan)
    core = (slice(1, -1),) * field.ndim
    out[core] = field[core]
    return out


class TestResidualReductions:
    """``residual`` reduces each block of layers as it goes; the reductions
    equal those over the whole residual grid taken at once."""

    @staticmethod
    def patched_report(monkeypatch, field):
        """Residual report of a 200-layer surface whose generator reads
        ``field`` (indexed by layer and node) in place of the model."""
        surf = solve(bs_singleton_model(), small_grid(nx=20, nt=200), validate=False)

        def generator(model, t, X, y, q, p, M):
            return field[np.searchsorted(surf.t, t)], None

        monkeypatch.setattr(hjb, "min_generator_field", generator)
        return surf, residual(surf, bs_singleton_model())

    def test_tie_across_blocks_keeps_the_first(self, monkeypatch):
        field = np.ones((201, 21))
        field[10, 15] = field[100, 3] = -2.0  # blocks [1, 65) and [65, 129)
        field[5, 2] = -np.inf  # not finite, so never the minimum
        surf, rep = self.patched_report(monkeypatch, field)
        assert (rep.min_value, rep.argmin) == (-2.0, (float(surf.t[10]), float(surf.axes[0][15])))
        assert_reductions_of(rep, interior_of(field), surf)

    def test_minimum_in_the_last_partial_block(self, monkeypatch):
        field = np.linspace(-1.0, 1.0, 201 * 21)[::-1].reshape(201, 21)
        field[198, 7] = -3.0  # the last block holds layers 193..199 only
        surf, rep = self.patched_report(monkeypatch, field)
        assert rep.argmin == (float(surf.t[198]), float(surf.axes[0][7]))
        assert rep.max_abs == 3.0
        assert_reductions_of(rep, interior_of(field), surf)

    def test_no_full_surface_temporary(self):
        # 3001 layers x 101 nodes: each full-surface float array is 2.4 MB.
        # The solve may add only per-layer temporaries to its values and
        # policy (measured: about 130 layers' bytes), and the residual only
        # one block's temporaries (measured: about 21 blocks' bytes). A
        # full-surface copy alone exceeds either bound.
        model = uncertain_vol_model(r_lend=0.02, r_borrow=0.05)
        grid = small_grid(nx=100, nt=3000)
        model.hash
        tracemalloc.start()
        try:
            surf = solve(model, grid, validate=False)
            solve_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            rep = residual(surf, model)
            residual_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        layer = surf.values[0].nbytes
        assert solve_peak - surf.values.nbytes - surf.policy.nbytes <= 256 * layer
        assert residual_peak <= 40 * hjb._RESIDUAL_BLOCK * layer


def time_dependent_vol_model():
    """Uncertain vol {0.1, 0.3} scaled by 1 + t, so every clamped time reads
    its own coefficients."""

    def sigma(t, x, a):
        s = float(np.asarray(a).reshape(-1)[0]) * (1.0 + t)
        return np.broadcast_to(s * np.eye(1), np.asarray(x).shape[:-1] + (1, 1))

    fin = FinanceSpec(mu=constant_mu(1), sigma=sigma, r_lend=constant_rate(0.01),
                      r_borrow=constant_rate(0.04))
    return make_finance_model(fin, make_payoff("call", strike=1.0), 1,
                              [np.array([0.1]), np.array([0.3])], 1.0, 0.6)


def switch_at_half_model():
    """Uncertain vol {0.1, 0.3} and rates (0.01, 0.04) up to t = 0.5; from
    then on the vol is doubled and the rates are (0.02, 0.05)."""

    def late(t):
        return 1.0 if t >= 0.5 else 0.0

    def sigma(t, x, a):
        s = float(np.asarray(a).reshape(-1)[0]) * (1.0 + late(t))
        return np.broadcast_to(s * np.eye(1), np.asarray(x).shape[:-1] + (1, 1))

    def rate(early):
        return lambda t, x, a: np.full(np.asarray(x).shape[:-1], early + 0.01 * late(t))

    fin = FinanceSpec(mu=constant_mu(1), sigma=sigma, r_lend=rate(0.01), r_borrow=rate(0.04))
    return make_finance_model(fin, make_payoff("call", strike=1.0), 1,
                              [np.array([0.1]), np.array([0.3])], 1.0, 0.6)


def counted(model, names):
    """Copy of ``model`` whose named coefficients count their calls; the
    model hash is taken first, so only later calls are counted."""
    counts = dict.fromkeys(names, 0)

    def wrap(name, fn):
        def inner(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return inner

    out = dataclasses.replace(model, **{n: wrap(n, getattr(model, n)) for n in names})
    out.hash
    counts.update(dict.fromkeys(names, 0))
    return out, counts


class TestStackedSweep:
    """The sweep reads each (adverse point, shake) pair once per layer on its
    own shifted mesh and stacks one row per kept pair; values and policy
    stay those of the per-pair closure evaluation bit for bit."""

    def assert_matches_oracle(self, model, grid, **kw):
        surf = solve(model, grid, validate=False, **kw)
        values, policy = sweep_oracle(model, grid, **kw)
        assert np.array_equal(surf.values, values)
        assert np.array_equal(surf.policy, policy)
        return surf

    def test_two_rate_call(self):
        model = uncertain_vol_model(vols=(0.2,), r_lend=0.02, r_borrow=0.05)
        self.assert_matches_oracle(model, small_grid(nx=40, nt=100))

    def test_uncertain_vol_shaken_with_pad_layers(self):
        grid = GridSpec(t_steps=100, x_min=(-1.8,), x_max=(1.8,), x_steps=(40,))
        self.assert_matches_oracle(uncertain_vol_model(), grid, pad_layers=10,
                                   shake_points=shake_lattice(0.05, 1))

    def test_dim2_shaken(self):
        model = uncertain_vol_model(dim=2, r_lend=0.02, r_borrow=0.05)
        grid = GridSpec(t_steps=60, x_min=(-1.0, -1.0), x_max=(1.0, 1.0), x_steps=(12, 10))
        self.assert_matches_oracle(model, grid, pad_layers=5, shake_points=shake_lattice(0.05, 2))

    def test_time_dependent_vol_keeps_clamped_times_apart(self):
        grid = GridSpec(t_steps=100, x_min=(-1.8,), x_max=(1.8,), x_steps=(40,))
        self.assert_matches_oracle(time_dependent_vol_model(), grid, pad_layers=10,
                                   shake_points=shake_lattice(0.05, 1))

    def test_call_counts(self, monkeypatch):
        # one market read per (layer, pair); it reads finance.sigma once and
        # the preset mu_Y and u_hat never run
        reads = [0]

        def counted_read(*args):
            reads[0] += 1
            return market_read(*args)

        monkeypatch.setattr(hjb, "market_read", counted_read)
        fin = finance_spec()
        sigma_reads = [0]

        def sigma(t, x, a):
            sigma_reads[0] += 1
            return fin.sigma(t, x, a)

        model = make_finance_model(dataclasses.replace(fin, sigma=sigma),
                                   make_payoff("call", strike=1.0), 1,
                                   [np.array([0.1]), np.array([0.3])], 1.0, 0.3)
        model, counts = counted(model, ("mu_Y", "u_hat"))
        sigma_reads[0] = 0
        shakes = shake_lattice(0.05, 1)
        grid = GridSpec(t_steps=100, x_min=(-1.8,), x_max=(1.8,), x_steps=(40,))
        surf = solve(model, grid, pad_layers=10, shake_points=shakes, validate=False)
        layer_pairs = (len(surf.t) - 1) * len(shakes) * len(model.A_points)
        assert reads[0] == sigma_reads[0] == layer_pairs
        assert counts["mu_Y"] == counts["u_hat"] == 0

    @staticmethod
    def kept_rows(monkeypatch, model, grid, eps, pad_layers=10):
        """(surface, shakes, stack rows built per layer in the order of
        ``surface.t``) of a shaken solve: the leading axis of the stacked
        terms each layer builds its generator pieces from."""
        layers = []
        build = hjb._adverse_terms

        def counted_build(pair_terms, ops, v):
            assert not layers or layers[-1][0] is not ops  # one build per layer
            layers.append([ops, len(pair_terms.mu)])
            return build(pair_terms, ops, v)

        monkeypatch.setattr(hjb, "_adverse_terms", counted_build)
        shakes = shake_lattice(eps, model.dim)
        surf = solve(model, grid, validate=False, pad_layers=pad_layers, shake_points=shakes)
        assert len(layers) == len(surf.t) - 1
        values, policy = sweep_oracle(model, grid, pad_layers=pad_layers, shake_points=shakes)
        assert np.array_equal(surf.values, values) and np.array_equal(surf.policy, policy)
        return surf, shakes, [n for _, n in reversed(layers)]  # the sweep runs backward

    @pytest.mark.parametrize("dim", [1, 2])
    def test_constant_coefficients_keep_one_pair_per_adverse_point(self, monkeypatch, dim):
        model = uncertain_vol_model(dim=dim, r_lend=0.02, r_borrow=0.05)
        grid = (small_grid(nx=30, nt=80) if dim == 1 else
                GridSpec(t_steps=60, x_min=(-1.0, -1.0), x_max=(1.0, 1.0), x_steps=(12, 10)))
        surf, shakes, rows = self.kept_rows(monkeypatch, model, grid, 0.05)
        assert len(shakes) == 2 * dim + 3
        assert rows == [len(model.A_points)] * (len(surf.t) - 1)

    @staticmethod
    def clamped_times(surf, shakes):
        T = surf.horizon_T
        return [{min(max(float(tk) + b[0], 0.0), T) for b in shakes} for tk in surf.t[:-1]]

    def test_time_dependent_vol_keeps_its_time_shifts(self, monkeypatch):
        model = time_dependent_vol_model()
        surf, shakes, rows = self.kept_rows(monkeypatch, model, small_grid(nx=30, nt=80), 0.05)
        times = self.clamped_times(surf, shakes)
        assert rows == [len(model.A_points) * len(ts) for ts in times]
        assert {len(ts) for ts in times} == {1, 2, 3}  # near and below t = 0 times clamp together

    def test_vol_varying_in_x_keeps_its_x_shifts(self, monkeypatch):
        model = x_varying_vol_model()
        surf, shakes, rows = self.kept_rows(monkeypatch, model, small_grid(nx=30, nt=80), 0.05)
        # the three x-shifts read three vols; the two time shifts read the unshifted one
        assert rows == [3 * len(model.A_points)] * (len(surf.t) - 1)

    def test_unsorted_shifts_stack_kept_pairs_in_pair_order(self):
        # shifts out of time order (t: pairs 0, 3, 4; t - eps: 1; t + eps: 2);
        # the stack holds the kept pairs in pair order, so argmin ties still
        # go to the lowest pair
        model = x_varying_vol_model(time_factor=True)
        shakes = shake_lattice(0.05, 1)[[2, 0, 4, 1, 3]]
        self.assert_matches_oracle(model, small_grid(nx=30, nt=80), pad_layers=10,
                                   shake_points=shakes)

    @pytest.mark.parametrize("shaken", [False, True])
    def test_reads_compared_only_within_a_shaken_adverse_point(self, monkeypatch, shaken):
        # a read is compared across pairs only with the kept reads of its
        # adverse point on its own layer, so the first pair of an adverse point
        # and an unshaken solve never compare across pairs. A kept read is
        # compared across layers once, with its pair's read of the last layer
        # that kept the pair. Constant coefficients keep the first pair of each
        # adverse point on every layer.
        layer, born, compared = [0], {}, {"pair": 0, "layer": 0}
        layer_ops, read_fn, same_read = hjb._LayerOps, hjb.market_read, hjb._same_read

        def next_layer(*args):
            layer[0] += 1
            return layer_ops(*args)

        def tagged_read(*args):
            read = read_fn(*args)
            born[id(read)] = (layer[0], read)  # holds the read, so no later read reuses its id
            return read

        def counted(read, other):
            assert born[id(read)][0] == layer[0]
            compared["pair" if born[id(other)][0] == layer[0] else "layer"] += 1
            return same_read(read, other)

        monkeypatch.setattr(hjb, "_LayerOps", next_layer)
        monkeypatch.setattr(hjb, "market_read", tagged_read)
        monkeypatch.setattr(hjb, "_same_read", counted)
        model = uncertain_vol_model(r_lend=0.02, r_borrow=0.05)
        shakes = shake_lattice(0.05, 1) if shaken else None
        surf = self.assert_matches_oracle(model, small_grid(nx=30, nt=80), shake_points=shakes)
        n_layers, n_a, n_b = len(surf.t) - 1, len(model.A_points), len(shakes) if shaken else 1
        assert layer[0] == n_layers
        assert compared["pair"] == n_layers * n_a * (n_b - 1)
        assert compared["layer"] == (n_layers - 1) * n_a

    def test_reads_apart_only_in_the_sign_of_zero_keep_both_pairs(self, monkeypatch):
        # mu is -0.0 before t = 0.5 and 0.0 from then on: equal values, different bits
        def mu(t, x, a):
            return np.full(np.asarray(x).shape[:-1] + (1,), -0.0 if t < 0.5 else 0.0)

        fin = dataclasses.replace(finance_spec(r_lend=0.02, r_borrow=0.05), mu=mu)
        model = make_finance_model(fin, make_payoff("call", strike=1.0), 1,
                                   [np.array([0.1]), np.array([0.3])], 1.0, 0.3)
        surf, shakes, rows = self.kept_rows(monkeypatch, model, small_grid(nx=30, nt=80), 0.05)
        signs = [len({t < 0.5 for t in ts}) for ts in self.clamped_times(surf, shakes)]
        assert rows == [len(model.A_points) * n for n in signs]
        assert 2 in signs

    @pytest.mark.parametrize("shaken", [False, True])
    def test_coefficients_switching_at_half_match_the_oracle(self, shaken):
        # a kept pair reuses its terms only while its read keeps its bits
        kw = dict(pad_layers=10, shake_points=shake_lattice(0.05, 1)) if shaken else {}
        self.assert_matches_oracle(switch_at_half_model(), small_grid(nx=30, nt=80), **kw)

    @pytest.mark.parametrize("model, kw, changes", [
        (uncertain_vol_model(r_lend=0.02, r_borrow=0.05),
         dict(pad_layers=10, shake_points=shake_lattice(0.05, 1)), 1),
        (switch_at_half_model(), {}, 2),
        (time_dependent_vol_model(), {}, 80),  # every one of the 80 layers reads its own vol
    ], ids=["constant-shaken", "switch", "time-dependent-vol"])
    def test_terms_derived_once_per_changed_read(self, monkeypatch, model, kw, changes):
        # one derivation per change of the kept reads, each for the whole
        # stack: one row per adverse point (each keeps one pair here)
        derived = []
        derive = hjb.market_drift

        def counted(read, site):
            derived.append(len(read[0]))
            return derive(read, site)

        monkeypatch.setattr(hjb, "market_drift", counted)
        self.assert_matches_oracle(model, small_grid(nx=30, nt=80), **kw)
        assert derived == [len(model.A_points)] * changes

    @pytest.mark.parametrize("dim", [1, 2])
    def test_vol_singular_on_one_layer_raises_naming_it(self, dim):
        # the layers on either side read the same regular vol; the one at
        # t = 0.5 must derive its own hedge map and fail there (the config
        # keeps the model hash from sampling the closures at t = 0.5)
        def sigma(t, x, a):
            s = 0.0 if t == 0.5 else float(a[0])
            return np.broadcast_to(s * np.eye(dim), np.asarray(x).shape[:-1] + (dim, dim))

        fin = dataclasses.replace(finance_spec(dim=dim, r_lend=0.02, r_borrow=0.05), sigma=sigma)
        model = make_finance_model(fin, make_payoff("call", strike=1.0), dim,
                                   [np.array([0.1]), np.array([0.3])], 1.0, 0.3,
                                   config={"sigma": "zero at t = 0.5"})
        grid = (small_grid(nx=30, nt=64) if dim == 1 else
                GridSpec(t_steps=64, x_min=(-1.0, -1.0), x_max=(1.0, 1.0), x_steps=(12, 10)))
        with pytest.raises(ModelError, match=r"singular volatility at t=0\.5,"):
            solve(model, grid, validate=False)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_vol_singular_at_one_adverse_point_names_it(self, dim):
        # only a = 0.3 is singular, on the layer at t = 0.5; the stacked hedge
        # map holds a = 0.1 in its first row and must name the second
        def sigma(t, x, a):
            s = 0.0 if t == 0.5 and a[0] == 0.3 else float(a[0])
            return np.broadcast_to(s * np.eye(dim), np.asarray(x).shape[:-1] + (dim, dim))

        fin = dataclasses.replace(finance_spec(dim=dim, r_lend=0.02, r_borrow=0.05), sigma=sigma)
        model = make_finance_model(fin, make_payoff("call", strike=1.0), dim,
                                   [np.array([0.1]), np.array([0.3])], 1.0, 0.3,
                                   config={"sigma": "zero at t = 0.5 for a = 0.3"})
        grid = (small_grid(nx=30, nt=64) if dim == 1 else
                GridSpec(t_steps=64, x_min=(-1.0, -1.0), x_max=(1.0, 1.0), x_steps=(12, 10)))
        with pytest.raises(ModelError, match=r"singular volatility at t=0\.5, x=.*, a=\[0\.3\]$"):
            solve(model, grid, validate=False)

    def test_model_hashed_before_the_first_layer(self, monkeypatch):
        # without a config the hash samples the closures at t = 0 and T/2;
        # 63 steps put no layer at t = 0.5, so only the hash meets the
        # singular vol, and it must do so before any layer is read
        def sigma(t, x, a):
            s = 0.0 if t == 0.5 else float(a[0])
            return np.broadcast_to(s * np.eye(1), np.asarray(x).shape[:-1] + (1, 1))

        reads = [0]

        def counted_read(*args):
            reads[0] += 1
            return market_read(*args)

        monkeypatch.setattr(hjb, "market_read", counted_read)
        fin = dataclasses.replace(finance_spec(r_lend=0.02, r_borrow=0.05), sigma=sigma)
        model = make_finance_model(fin, make_payoff("call", strike=1.0), 1,
                                   [np.array([0.1]), np.array([0.3])], 1.0, 0.3)
        with pytest.raises(ModelError, match=r"singular volatility at t=0\.5,"):
            solve(model, small_grid(nx=30, nt=63), validate=False)
        assert reads[0] == 0

    @pytest.mark.parametrize("model, grid, pad_layers", [
        (bs_singleton_model(), small_grid(nx=30, nt=600), 0),
        (uncertain_vol_model(r_lend=0.02, r_borrow=0.05), small_grid(nx=30, nt=60), 0),
        (uncertain_vol_model(dim=2), GridSpec(t_steps=300, x_min=(-1.0, -1.0),
                                              x_max=(1.0, 1.0), x_steps=(10, 8)), 0),
        # every layer reads its own coefficients; the pad layers clamp to t = 0
        (time_dependent_vol_model(), small_grid(nx=30, nt=150), 20),
    ], ids=["d1-600-layers", "d1-one-block", "d2-300-layers", "d1-time-dependent-vol-padded"])
    def test_residual_blocks_match_per_layer(self, monkeypatch, model, grid, pad_layers):
        # interior layer counts 599, 59, 299 and 169: none a multiple of the block.
        # Each block's generator field equals the oracle's layers at every
        # interior node, and the blocks cover every interior layer once.
        surf = solve(model, grid, validate=False, pad_layers=pad_layers)
        oracle = residual_oracle(surf, model)
        blocks, generator = [], hjb.min_generator_field

        def recorded(*args):
            best, idx = generator(*args)
            blocks.append((int(np.searchsorted(surf.t, args[1][0])), best))
            return best, idx

        monkeypatch.setattr(hjb, "min_generator_field", recorded)
        rep = residual(surf, model)
        core = (slice(1, -1),) * surf.dim
        assert [k0 for k0, _ in blocks] == list(range(1, len(surf.t) - 1, hjb._RESIDUAL_BLOCK))
        assert sum(len(best) for _, best in blocks) == len(surf.t) - 2
        for k0, best in blocks:
            got = best[(slice(None),) + core]
            assert np.array_equal(got, oracle[k0:k0 + len(best)][(slice(None),) + core])
        assert_reductions_of(rep, oracle, surf)


class TestEval:
    def test_exact_at_nodes(self):
        surf = solve(bs_singleton_model(), small_grid(nx=40, nt=80))
        k, i = 7, 13
        got = surf.eval(float(surf.t[k]), np.array([surf.axes[0][i]]))
        assert got.value == pytest.approx(surf.values[k, i], abs=1e-14)

    def test_linear_surface_gradient(self):
        surf = tabulated_surface(lambda t, x: 0.75 * x + 0.1)
        pack = surf.eval(0.31, np.array([0.123]))
        assert pack.p[0] == pytest.approx(0.75, abs=1e-12)
        assert pack.q == pytest.approx(0.0, abs=1e-12)

    def test_quadratic_surface_hessian(self):
        surf = tabulated_surface(lambda t, x: 1.3 * x * x)
        pack = surf.eval(0.5, np.array([0.2]))
        assert pack.M[0, 0] == pytest.approx(2.6, abs=1e-8)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("first", ["gradient", "eval"])
    def test_gradient_is_eval_p_and_builds_p_alone(self, dim, first):
        model = uncertain_vol_model(dim=dim)
        grid = (small_grid(nx=40, nt=80) if dim == 1 else
                GridSpec(t_steps=60, x_min=(-1.0, -1.0), x_max=(1.0, 1.0), x_steps=(12, 10)))
        surf = solve(model, grid, validate=False)
        ts = np.linspace(0.0, 1.0, 7)
        xs = np.linspace(-0.9, 0.9, 7 * dim).reshape(7, dim)
        if first == "gradient":
            grad = surf.gradient(ts, xs)
            assert surf._q_M is None  # q and M stay unbuilt
            p = surf.eval(ts, xs).p
        else:
            p = surf.eval(ts, xs).p
            grad = surf.gradient(ts, xs)
        assert np.array_equal(grad, p)

    def test_out_of_bounds_raises(self):
        surf = tabulated_surface(lambda t, x: x)
        with pytest.raises(HedgeGameError, match="outside"):
            surf.eval(0.5, np.array([3.0]))


class TestSurfaceIO:
    def test_binary_roundtrip(self, tmp_path):
        surf = solve(bs_singleton_model(), small_grid(nx=30, nt=60))
        path = tmp_path / "s.bin"
        save_binary(surf, path)
        back = load_binary(path)
        assert np.array_equal(back.values, surf.values)
        assert np.array_equal(back.policy, surf.policy)
        assert np.allclose(back.t, surf.t)
        assert back.model_hash == surf.model_hash

    @pytest.mark.parametrize("pad_layers", [0, 10])
    def test_binary_roundtrips_the_time_axis_bitwise(self, tmp_path, pad_layers):
        # t is T - dt n, not t_start + dt k: the two differ in the last bit on some layers
        surf = solve(bs_singleton_model(), small_grid(nx=30, nt=60), pad_layers=pad_layers)
        path = tmp_path / "s.bin"
        save_binary(surf, path)
        assert load_binary(path).t.tobytes() == surf.t.tobytes()

    def test_binary_with_fewer_layers_than_its_steps_is_corrupt(self, tmp_path):
        surf = solve(bs_singleton_model(), small_grid(nx=30, nt=60))
        path = tmp_path / "s.bin"
        short = ValueSurface(dataclasses.replace(surf.grid, t_steps=61), surf.model_hash, surf.t,
                             surf.axes, surf.values, surf.policy, surf.a_count, surf.meta)
        save_binary(short, path)
        with pytest.raises(HedgeGameError, match="corrupt cache file.*61 layers < t_steps"):
            load_binary(path)

    def test_binary_rejects_garbage(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"NOTASURF" + b"\x00" * 32)
        with pytest.raises(HedgeGameError, match="magic"):
            load_binary(p)

    def test_csv_layout(self, tmp_path):
        surf = solve(bs_singleton_model(), small_grid(nx=10, nt=20))
        path = tmp_path / "s.csv"
        save_csv(surf, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t_index,t,x0,value,policy_index"
        assert len(lines) == 1 + 21 * 11
        first = lines[1].split(",")
        assert first[0] == "0" and float(first[2]) == surf.axes[0][0]
        assert float(first[3]) == surf.values[0, 0]
        # every row as the per-node formatting loop writes it
        assert lines[1:] == [f"{k},{tk:.17g},{x:.17g},{surf.values[k, i]:.17g},{surf.policy[k, i]}"
                             for k, tk in enumerate(surf.t) for i, x in enumerate(surf.axes[0])]

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from hedgegame import game
from hedgegame.game import (
    ConstantAdversary,
    MarkovWorstAdversary,
    PiecewiseRandomAdversary,
    SimParams,
    make_strategy,
    simulate,
    superhedge_check,
)
from hedgegame.hjb import GridSpec, ValueSurface, solve
from hedgegame.model import HedgeGameError, ModelError, make_finance_model, make_payoff, market_read
from hedgegame.regularize import SmoothSurface

from conftest import (
    bs_call_delta_logspace,
    bs_singleton_model,
    controls_from_draws,
    finance_spec,
    simulate_oracle,
    uncertain_vol_model,
    x_varying_vol_model,
)


def constant_surface(level=1.0, x_lo=-1.0, x_hi=1.0, nx=20, nt=10, T=1.0):
    grid = GridSpec(t_steps=nt, x_min=(x_lo,), x_max=(x_hi,), x_steps=(nx,))
    t = np.linspace(0.0, T, nt + 1)
    vals = np.full((nt + 1, nx + 1), level)
    pol = np.zeros_like(vals, dtype=np.int32)
    return ValueSurface(grid, "const", t, grid.axes(), vals, pol, 1, {})


def frozen_model(level=1.0):
    """Frozen wealth: a constant payoff at zero rates. Hedged from a
    constant surface, z = 0, so Y never moves while X diffuses, and the
    wealth target is exact."""
    return make_finance_model(finance_spec(), make_payoff("constant", level=level), 1,
                              [np.array([0.2])], 1.0, 0.2)


@pytest.fixture(scope="module")
def bs_surface():
    model = bs_singleton_model()
    grid = GridSpec(t_steps=400, x_min=(-1.2,), x_max=(1.2,), x_steps=(200,))
    return model, solve(model, grid)


@pytest.fixture(scope="module")
def uv_surface():
    model = uncertain_vol_model()
    grid = GridSpec(t_steps=400, x_min=(-1.8,), x_max=(1.8,), x_steps=(200,))
    return model, solve(model, grid)


class TestStrategyMap:
    def test_constant_surface_zero_rule(self):
        model = bs_singleton_model()
        strat = make_strategy(constant_surface())
        u = strat.rule(0.5, np.array([[0.1]]), np.array([1.0]), model.A_points[0])
        assert np.all(u == 0.0)

    def test_delta_matches_black_scholes(self, bs_surface):
        model, surf = bs_surface
        strat = make_strategy(surf)
        for xq in np.linspace(-0.3, 0.3, 7):
            u = strat.rule(0.0, np.array([[xq]]), np.array([0.0]), model.A_points[0])[0, 0]
            want = bs_call_delta_logspace(np.exp(xq), 1.0, 0.2, 1.0) \
                - bs_call_delta_logspace(np.exp(xq), 1.4, 0.2, 1.0)
            assert abs(u - want) < 5e-3  # interpolation error of the 200x grid

    def test_rule_independent_of_wealth_and_adversary(self, uv_surface, rng):
        # finance preset: u = Dw regardless of (y, a)
        model, surf = uv_surface
        strat = make_strategy(surf)
        for _ in range(1000):
            t = float(rng.uniform(0.0, 1.0))
            x = rng.uniform(-1.0, 1.0, (1, 1))
            u0 = strat.rule(t, x, np.array([float(rng.normal())]), model.A_points[0])
            u1 = strat.rule(t, x, np.array([float(rng.normal())]), model.A_points[1])
            assert np.max(np.abs(u0 - u1)) <= 1e-10

    def test_grid_gradient_is_eval_p_bitwise(self, uv_surface, rng):
        _, surf = uv_surface
        xs = rng.uniform(-1.5, 1.5, (500, 1))
        for t in (0.0, 0.3712, 1.0):
            assert np.array_equal(surf.gradient(t, xs), surf.eval(t, xs).p)

    def test_smooth_strategy_hedges_with_certified_gradient(self, bs_surface):
        # the hedge reads the exact gradient of the mollified surface, not a
        # re-interpolated cache of it
        model, surf = bs_surface
        smooth = SmoothSurface(surf.t, surf.axes, surf.values, 0.05)
        strat = make_strategy(smooth)
        xs = np.linspace(-0.9, 0.9, 37).reshape(-1, 1)
        for t in (0.05, 0.37, 0.8):
            want = smooth.eval_batch(t, xs).p
            assert np.max(np.abs(strat.gradient(t, xs) - want)) <= 1e-12
            assert np.array_equal(smooth.fast_value_grad(t, xs)[1], strat.gradient(t, xs))

    def test_out_of_domain_clamped_and_counted(self, bs_surface):
        model, surf = bs_surface
        strat = make_strategy(surf)
        before = strat.clamped
        strat.rule(0.5, np.array([[5.0]]), np.array([0.0]), model.A_points[0])
        assert strat.clamped == before + 1


class TestSimulate:
    def test_frozen_dynamics_zero_shortfall(self):
        model = frozen_model(level=1.0)
        strat = make_strategy(constant_surface(level=1.0))
        rep = simulate(model, strat, ConstantAdversary(0), 0.0, np.array([0.0]),
                       1.0, 500, 20, seed=3)
        assert rep.excluded_paths == 0
        assert np.all(rep.shortfall == 0.0)
        assert np.all(rep.terminal_gap == 0.0)

    def test_bitwise_deterministic(self, bs_surface):
        model, surf = bs_surface
        strat = make_strategy(surf)
        y0 = surf.value(0.0, np.array([0.0]))
        a = simulate(model, strat, ConstantAdversary(0), 0.0, np.array([0.0]), y0, 2000, 100, 11)
        b = simulate(model, strat, ConstantAdversary(0), 0.0, np.array([0.0]), y0, 2000, 100, 11)
        assert np.array_equal(a.shortfall, b.shortfall)
        assert a.to_dict(0.02) == b.to_dict(0.02)

    def test_hedging_error_at_value_start(self, bs_surface):
        model, surf = bs_surface
        strat = make_strategy(surf)
        y0 = surf.value(0.0, np.array([0.0]))
        rep = simulate(model, strat, ConstantAdversary(0), 0.0, np.array([0.0]),
                       y0, 10000, 400, seed=11)
        assert rep.excluded_paths == 0
        assert rep.shortfall_mean <= 3e-3  # relative to the unit spot scale
        assert rep.shortfall_prob(0.02) <= 0.05

    def test_shortfall_decay_order_half(self, bs_surface):
        model, surf = bs_surface
        strat = make_strategy(surf)
        y0 = surf.value(0.0, np.array([0.0]))
        steps = np.array([100, 200, 400, 800])
        means = [
            simulate(model, strat, ConstantAdversary(0), 0.0, np.array([0.0]),
                     y0, 4000, int(s), seed=13).shortfall_mean
            for s in steps
        ]
        slope = -np.polyfit(np.log(steps), np.log(means), 1)[0]
        assert 0.3 <= slope <= 0.7

    def test_surface_domination_reduces_shortfall(self, bs_surface):
        # same Brownian draws, richer start from a dominating surface
        model, surf = bs_surface
        grid = surf.grid
        hi = solve(model, grid, terminal=lambda x: model.payoff_g(x) + 0.05)
        s_lo = make_strategy(surf)
        s_hi = make_strategy(hi)
        lo_rep = simulate(model, s_lo, ConstantAdversary(0), 0.0, np.array([0.0]),
                          surf.value(0.0, np.array([0.0])), 3000, 200, seed=5)
        hi_rep = simulate(model, s_hi, ConstantAdversary(0), 0.0, np.array([0.0]),
                          hi.value(0.0, np.array([0.0])), 3000, 200, seed=5)
        assert hi_rep.shortfall_mean <= lo_rep.shortfall_mean + 1e-12

    def test_step_guard(self, bs_surface):
        model, surf = bs_surface
        with pytest.raises(HedgeGameError):
            simulate(model, make_strategy(surf), ConstantAdversary(0),
                     0.0, np.array([0.0]), 0.1, 10, 0, seed=1)

    @pytest.mark.parametrize("t0", [1.0, 2.0])
    def test_start_at_or_after_horizon_rejected(self, t0):
        model = frozen_model(level=1.0)
        surf = constant_surface(level=1.0)
        with pytest.raises(HedgeGameError, match="horizon"):
            simulate(model, make_strategy(surf), ConstantAdversary(0),
                     t0, np.array([0.0]), 1.0, 50, 10, seed=1)
        # a library caller reaches the same check through simulate
        with pytest.raises(HedgeGameError, match="horizon"):
            superhedge_check(model, surf, 0.0, SimParams(x0=(0.0,), t0=t0, paths=50, steps=10))


def analytic_surface_2d(model, nt=40, n=30):
    """A d = 2 grid surface with a gradient along both axes, read off a
    smooth function rather than a solve."""
    grid = GridSpec(t_steps=nt, x_min=(-1.5, -1.5), x_max=(1.5, 1.5), x_steps=(n, n))
    t = np.linspace(0.0, model.horizon_T, nt + 1)
    X = grid.mesh()
    vals = np.log1p(np.exp(X[..., 0]))[None] + 0.2 * np.sin(X[..., 1])[None] + 0.1 * t[:, None, None]
    pol = np.zeros(vals.shape, dtype=np.int32)
    return ValueSurface(grid, model.hash, t, grid.axes(), vals, pol, len(model.A_points), {})


class TestFrozenGameStep:
    """The game reads the gradient once per step and each adverse point's
    coefficients once per step through ``market_read``, and plays the
    per-group closure step of ``conftest.simulate_oracle`` to roundoff."""

    @staticmethod
    def cases(uv_surface):
        model, surf = uv_surface
        smooth = SmoothSurface(surf.t, surf.axes, surf.values, 0.05)
        xvol = x_varying_vol_model()
        model2 = uncertain_vol_model(dim=2)
        surf2 = analytic_surface_2d(model2)
        random = PiecewiseRandomAdversary(4.0)
        return [
            ("grid-constant", model, surf, ConstantAdversary(1), 0.0, (0.0,)),
            ("grid-random-edge", model, surf, random, 0.0, (1.7,)),
            ("grid-worst", model, surf, MarkovWorstAdversary(surf), 0.0, (0.0,)),
            ("smooth-constant", model, smooth, ConstantAdversary(0), 0.1, (0.0,)),
            ("smooth-random", model, smooth, random, 0.1, (0.3,)),
            ("smooth-worst", model, smooth, MarkovWorstAdversary(surf), 0.1, (0.0,)),
            ("xvol-constant", xvol, surf, ConstantAdversary(1), 0.0, (0.0,)),
            ("xvol-smooth-random", xvol, smooth, random, 0.1, (0.3,)),
            ("d2-random", model2, surf2, random, 0.0, (0.0, 0.2)),
            ("d2-constant", model2, surf2, ConstantAdversary(0), 0.0, (1.3, -1.3)),
        ]

    def test_matches_per_group_closure_oracle(self, uv_surface):
        clamps = 0
        for name, model, source, adv, t0, x0 in self.cases(uv_surface):
            args = (adv, t0, np.array(x0), 0.15, 400, 60, 17)
            rep = simulate(model, make_strategy(source), *args)
            gap, excluded, clamped = simulate_oracle(model, make_strategy(source), *args)
            assert rep.excluded_paths == excluded, name
            assert rep.clamped_queries == clamped, name
            assert rep.shortfall_prob(0.02) == np.mean(np.maximum(-gap, 0.0) > 0.02), name
            assert np.all(np.abs(rep.terminal_gap - gap) <= 1e-12 * (1.0 + np.abs(gap))), name
            clamps += clamped
        assert clamps > 0  # the edge cases reach the clamp

    def test_one_frozen_read_per_step_and_adverse_point(self, uv_surface, monkeypatch):
        base, surf = uv_surface
        counts = {"sigma": 0, "closures": 0}

        def sigma(t, x, a):
            counts["sigma"] += 1
            return base.finance.sigma(t, x, a)

        def counted(fn):
            def call(*args):
                counts["closures"] += 1
                return fn(*args)
            return call

        fin = dataclasses.replace(base.finance, sigma=sigma)
        model = make_finance_model(fin, base.payoff_g, 1, base.A_points, base.horizon_T,
                                   base.lipschitz_K)
        model = dataclasses.replace(model, **{c: counted(getattr(model, c)) for c in
                                              ("mu_X", "sigma_X", "mu_Y", "sigma_Y", "u_hat")})
        reads = []

        def frozen_read(finance, t, x, a):
            reads.append((t, float(a[0]), len(x)))
            return market_read(finance, t, x, a)

        monkeypatch.setattr(game, "market_read", frozen_read)
        strat = make_strategy(surf)
        grads = []
        read_gradient = strat.gradient
        strat.gradient = lambda t, xs: grads.append(t) or read_gradient(t, xs)
        n_steps = 30
        simulate(model, strat, PiecewiseRandomAdversary(4.0), 0.0, np.array([0.0]),
                 0.15, 400, n_steps, seed=3)
        assert len(grads) == n_steps
        assert len({(t, a) for t, a, _ in reads}) == len(reads) == n_steps * len(model.A_points)
        assert all(n > 0 for _, _, n in reads)
        assert counts == {"sigma": len(reads), "closures": 0}

    def test_a_singular_sigma_a_path_reaches_fails_closed(self):
        # sigma vanishes for x_0 above 0.0 and the paths start just below it: the
        # first step is regular, and the first read with a path above 0.0 names it
        def sigma(t, x, a):
            return np.where(np.asarray(x)[..., 0] > 0.0, 0.0, a[0])[..., None, None] * np.eye(1)

        fin = dataclasses.replace(finance_spec(r_lend=0.02, r_borrow=0.05), sigma=sigma)
        model = make_finance_model(fin, make_payoff("call", strike=1.0), 1, [np.array([0.2])], 1.0, 0.3)
        strat = make_strategy(constant_surface(level=0.5))
        site = r"singular volatility at t=([0-9.e-]+), x=\[([0-9.e-]+)\], a=\[0\.2\]"
        runs = [lambda: simulate(model, strat, ConstantAdversary(0), 0.0, np.array([-0.01]), 0.5, 200, 40, 5),
                lambda: superhedge_check(model, constant_surface(level=0.5), 0.0,
                                         SimParams(x0=(-0.01,), paths=200, steps=40, seed=5))]
        for run in runs:
            with pytest.raises(ModelError, match=site) as err:
                run()
            t, x = map(float, re.search(site, str(err.value)).groups())
            assert 0.0 < t < 1.0 and x > 0.0

    def test_clamped_time_counts_once_per_step(self, uv_surface):
        model, surf = uv_surface
        smooth = SmoothSurface(surf.t, surf.axes, surf.values, 0.05)  # times below 0.05 clamp
        rep = simulate(model, make_strategy(smooth), PiecewiseRandomAdversary(4.0),
                       0.0, np.array([0.0]), 0.15, 400, 20, seed=3)
        assert rep.clamped_queries == 1  # step 0 only, with both adverse points in play


class TestAdversaries:
    def test_piecewise_random_non_anticipative(self, rng):
        n_steps, n_paths = 40, 64
        su = rng.random((n_steps, n_paths))
        cu = rng.random((n_steps, n_paths))
        base = controls_from_draws(su, cu, 3, 0.3)
        n = 17
        su2, cu2 = su.copy(), cu.copy()
        perm = rng.permutation(n_steps - n)
        su2[n:] = su[n:][perm]
        cu2[n:] = cu[n:][perm]
        spliced = controls_from_draws(su2, cu2, 3, 0.3)
        assert np.array_equal(base[:n], spliced[:n])

    def test_piecewise_random_in_range(self, rng):
        su = rng.random((30, 50))
        cu = rng.random((30, 50))
        ctl = controls_from_draws(su, cu, 4, 0.5)
        assert ctl.min() >= 0 and ctl.max() <= 3

    def test_constant_out_of_range_rejected(self, bs_surface):
        model, surf = bs_surface
        with pytest.raises(HedgeGameError, match="out of range"):
            simulate(model, make_strategy(surf), ConstantAdversary(5),
                     0.0, np.array([0.0]), 0.1, 10, 5, seed=1)

    def test_worst_requires_plain_policy(self, uv_surface):
        from hedgegame.regularize import solve_shaken
        model, surf = uv_surface
        grid = GridSpec(t_steps=150, x_min=(-1.8,), x_max=(1.8,), x_steps=(80,))
        shaken = solve_shaken(model, grid, 0.1)
        with pytest.raises(HedgeGameError, match="unshaken"):
            simulate(model, make_strategy(surf),
                     MarkovWorstAdversary(shaken.surface),
                     0.0, np.array([0.0]), 0.2, 10, 5, seed=1)


class TestSharedIncrements:
    """``superhedge_check`` draws the increments once for all adversaries;
    each of its runs is the standalone ``simulate`` run, bit for bit."""

    @pytest.mark.parametrize("case", ["uncertain-vol", "bs-singleton"])
    def test_check_runs_are_simulate_runs(self, uv_surface, bs_surface, monkeypatch, case):
        model, surf = uv_surface if case == "uncertain-vol" else bs_surface
        splits = []
        split = game._split

        def recorded_split(a_idx, n_A):
            parts = split(a_idx, n_A)
            splits.append([isinstance(rows, slice) for _, rows in parts])
            return parts

        monkeypatch.setattr(game, "_split", recorded_split)
        sim = SimParams(x0=(0.1,), paths=1500, steps=80, seed=21)
        check = superhedge_check(model, surf, 0.0, sim)
        n_A = len(model.A_points)
        adversaries = [ConstantAdversary(i) for i in range(n_A)]
        adversaries += [PiecewiseRandomAdversary(sim.switch_rate), MarkovWorstAdversary(surf)]
        assert [r.adversary for r in check.reports] == [a.label() for a in adversaries]
        for rep, adv in zip(check.reports, adversaries):
            solo = simulate(model, make_strategy(surf), adv, sim.t0, np.asarray(sim.x0),
                            check.y0, sim.paths, sim.steps, sim.seed)
            assert np.array_equal(rep.terminal_gap, solo.terminal_gap), rep.adversary
            assert np.array_equal(rep.shortfall, solo.shortfall), rep.adversary
            assert rep.excluded_paths == solo.excluded_paths, rep.adversary
            assert rep.clamped_queries == solo.clamped_queries, rep.adversary
        # with two adverse points the paths split; with one they are never indexed
        assert any(len(parts) > 1 for parts in splits) == (n_A > 1)
        assert all(parts == [True] for parts in splits if len(parts) == 1)

    @pytest.mark.parametrize("case", ["uncertain-vol", "bs-singleton"])
    def test_one_adverse_point_plays_once(self, uv_surface, bs_surface, monkeypatch, case):
        # with one adverse point every adversary plays it on the same increments;
        # a run reads the gradient once per step, so the reads count the runs
        model, surf = uv_surface if case == "uncertain-vol" else bs_surface
        reads = []
        read_gradient = game.StrategyMap.gradient
        monkeypatch.setattr(game.StrategyMap, "gradient",
                            lambda strat, t, xs: reads.append(t) or read_gradient(strat, t, xs))
        n_steps = 20
        check = superhedge_check(model, surf, 0.0, SimParams(x0=(0.1,), paths=300, steps=n_steps, seed=4))
        n_A = len(model.A_points)
        runs = 1 if n_A == 1 else n_A + 2
        assert len(reads) == runs * n_steps
        # one loop over steps: every run reads step n before any run reads step n + 1
        assert reads == sorted(reads)
        assert len(check.reports) == n_A + 2

    def test_one_adverse_point_still_checks_the_policy_surface(self, bs_surface):
        model, surf = bs_surface
        shaken = ValueSurface(surf.grid, surf.model_hash, surf.t, surf.axes, surf.values,
                              surf.policy, a_count=5, meta={})
        with pytest.raises(HedgeGameError, match="unshaken"):
            superhedge_check(model, surf, 0.0, SimParams(x0=(0.0,), paths=50, steps=10),
                             policy_surface=shaken)


class TestStreamedDraws:
    """The game draws its increments and the random adversary's uniforms one
    step at a time; each step's rows are those of the whole-run blocks that
    the same streams give in one draw, bit for bit."""

    @pytest.mark.parametrize("n_steps, n_paths", [(7, 10), (5, 3), (9, 13), (4, 1), (3, 0)])
    def test_step_rows_are_the_block_rows(self, n_steps, n_paths):
        model = uncertain_vol_model(dim=2)
        brown_ss, adv_ss = np.random.SeedSequence(29).spawn(2)
        dt = model.horizon_T / n_steps
        block = np.random.Generator(np.random.Philox(brown_ss)).standard_normal((n_steps, n_paths, 2))
        block *= np.sqrt(dt)
        steps = list(game._increments(model, 0.0, n_paths, n_steps, 29))
        assert len(steps) == n_steps
        assert all(w.tobytes() == row.tobytes() for w, row in zip(steps, block))
        rng_a = np.random.Generator(np.random.Philox(adv_ss))
        switch_u, choice_u = rng_a.random((n_steps, n_paths)), rng_a.random((n_steps, n_paths))
        plan = controls_from_draws(switch_u, choice_u, 3, 1.0 - np.exp(-4.0 * dt))
        controls = game._controls(PiecewiseRandomAdversary(4.0), 3, 0.0, dt, n_paths, n_steps, 29)
        assert all(np.array_equal(controls(n, None), plan[n]) for n in range(n_steps))

    @pytest.mark.parametrize("case", ["uncertain-vol", "bs-singleton"])
    def test_check_never_holds_a_steps_by_paths_block(self, uv_surface, bs_surface, case):
        # 200 steps x 2000 paths: one float64 block of that shape is 3.2 MB
        model, surf = uv_surface if case == "uncertain-vol" else bs_surface
        surf.gradient(0.0, np.zeros((1, 1)))  # the surface's own gradient field, built once
        sim = SimParams(x0=(0.0,), paths=2000, steps=200, seed=9)
        tracemalloc.start()
        try:
            check = superhedge_check(model, surf, 0.0, sim)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(check.reports) == len(model.A_points) + 2
        assert peak < sim.steps * sim.paths * 8


class TestSuperhedgeCheck:
    def test_constant_model_margin_zero_passes(self):
        model = make_finance_model(
            finance_spec(), make_payoff("constant", level=1.0), 1,
            [np.array([0.2])], 1.0, 0.2,
        )
        grid = GridSpec(t_steps=100, x_min=(-1.0,), x_max=(1.0,), x_steps=(50,))
        surf = solve(model, grid)
        sim = SimParams(x0=(0.0,), paths=400, steps=50, seed=5)
        check = superhedge_check(model, surf, 0.0, sim)
        assert check.passed
        assert all(r.shortfall_mean == 0.0 for r in check.reports)

    @pytest.mark.parametrize("threshold", ["p_sim", "tol_sim"])
    def test_nan_threshold_fails_closed(self, threshold):
        # the same passing check with no threshold to compare against is no evidence
        model = frozen_model()
        grid = GridSpec(t_steps=100, x_min=(-1.0,), x_max=(1.0,), x_steps=(50,))
        sim = SimParams(x0=(0.0,), paths=400, steps=50, seed=5, **{threshold: float("nan")})
        check = superhedge_check(model, solve(model, grid), 0.0, sim)
        assert all(r.shortfall_mean == 0.0 for r in check.reports)
        assert not check.passed

    def test_explicit_y0_replaces_value_plus_margin(self):
        # frozen wealth: every run ends at its start level, short of the claim's 1 by 1 - y0
        model = frozen_model()
        sim = SimParams(x0=(0.0,), paths=50, steps=10, seed=5)
        check = superhedge_check(model, constant_surface(), 0.5, sim, y0=0.25)
        assert not check.passed and check.y0 == 0.25 and check.margin is None
        assert all(r.y0 == 0.25 and r.shortfall_mean == pytest.approx(0.75) for r in check.reports)
        auto = superhedge_check(model, constant_surface(), 0.5, sim, y0=None)
        assert auto.y0 == 1.5 and auto.margin == 0.5

    def test_undercapitalized_fails_against_worst(self, uv_surface):
        model, surf = uv_surface
        sim = SimParams(x0=(0.0,), paths=2000, steps=200, seed=9)
        check = superhedge_check(model, surf, -0.05, sim)
        assert not check.passed
        worst = [r for r in check.reports if r.adversary == "worst"][0]
        assert worst.shortfall_prob(0.01) >= 0.20

    def test_value_start_passes_all_adversaries(self, uv_surface):
        model, surf = uv_surface
        sim = SimParams(x0=(0.0,), paths=2000, steps=200, seed=9)
        check = superhedge_check(model, surf, 0.0, sim)
        assert check.passed
        assert {r.adversary for r in check.reports} == {
            "constant:0", "constant:1", "random:4", "worst",
        }

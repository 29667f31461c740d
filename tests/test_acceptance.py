"""Acceptance gate: every criterion at its stated scale and tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion. The regularization pipeline (criterion 4) and the certified-game
run (criterion 7) share a session fixture because the certified surface is
the product under test in both.
"""

import json
import time

import numpy as np
import pytest

from hedgegame.cli import main as cli_main
from hedgegame.dual import dpp_check, dual_value_lsmc, make_lattice
from hedgegame.game import (
    ConstantAdversary,
    MarkovWorstAdversary,
    SimParams,
    make_strategy,
    simulate,
    superhedge_check,
)
from hedgegame.hjb import GridSpec, solve
from hedgegame.model import make_finance_model, make_payoff
from hedgegame.regularize import (
    Box,
    SmoothSurface,
    build_smooth_supersolution,
    inf_convolution,
    phi_from_surface,
)

from conftest import (
    _C_SPACE,
    _bump,
    bs_call,
    bs_call_spread,
    bs_singleton_model,
    cli_in_child,
    finance_spec,
    make_single_rate_model,
    uncertain_vol_model,
)
from test_hjb import policy_agreement


def report(criterion: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def bs_acc():
    model = bs_singleton_model()
    grid = GridSpec(t_steps=400, x_min=(-1.2,), x_max=(1.2,), x_steps=(200,))
    return model, solve(model, grid)


@pytest.fixture(scope="module")
def uv_acc():
    model = uncertain_vol_model()
    grid = GridSpec(t_steps=400, x_min=(-1.8,), x_max=(1.8,), x_steps=(200,))
    return model, solve(model, grid)


@pytest.fixture(scope="module")
def certified(uv_acc):
    """Criterion-4 pipeline output, shared with criterion 7."""
    model, v_surf = uv_acc
    grid = GridSpec(t_steps=4000, x_min=(-1.8,), x_max=(1.8,), x_steps=(720,))
    box = Box(0.0, 1.0, (-0.9,), (0.9,))
    phi = phi_from_surface(v_surf, 0.2)
    smooth = build_smooth_supersolution(model, phi, box, 0.1, grid, validate=False)
    return model, v_surf, smooth


def test_criterion_1_closed_form_reduction(bs_acc):
    model, _ = bs_acc
    grid = GridSpec(t_steps=400, x_min=(-1.2,), x_max=(1.2,), x_steps=(200,))
    t_start = time.monotonic()
    surf = solve(model, grid)
    price = surf.value(0.0, np.array([0.0]))
    elapsed = time.monotonic() - t_start
    want = bs_call_spread(1.0, 1.0, 1.4, 0.2, 1.0)
    rel = abs(price - want) / want
    report(1, rel < 5e-3 and elapsed <= 30.0,
           f"call spread {price:.6f} vs closed form {want:.6f} "
           f"(rel {rel:.2e} <= 5e-3), runtime {elapsed:.1f}s <= 30s")


def test_criterion_2_uncertain_volatility(uv_acc):
    model, surf = uv_acc
    price = surf.value(0.0, np.array([0.0]))
    want_hi = bs_call(1.0, 1.0, 0.3, 1.0)
    rel_call = abs(price - want_hi) / want_hi
    agree_hi, total_hi = policy_agreement(surf, want_high=True)

    concave = uncertain_vol_model(payoff_kind="covered_call")
    grid = GridSpec(t_steps=400, x_min=(-1.8,), x_max=(1.8,), x_steps=(200,))
    surf_lo = solve(concave, grid)
    price_lo = surf_lo.value(0.0, np.array([0.0]))
    want_lo = 1.0 - bs_call(1.0, 1.0, 0.1, 1.0)  # min(S,K) = S - call at sigma_lo
    rel_cc = abs(price_lo - want_lo) / want_lo
    agree_lo, total_lo = policy_agreement(surf_lo, want_high=False)

    ok = (rel_call < 1e-2 and rel_cc < 1e-2
          and total_hi > 0 and agree_hi / total_hi >= 0.95
          and total_lo > 0 and agree_lo / total_lo >= 0.95)
    report(2, ok,
           f"call {price:.6f} vs BS(0.3) {want_hi:.6f} (rel {rel_call:.2e}); "
           f"covered call {price_lo:.6f} vs BS(0.1) {want_lo:.6f} (rel {rel_cc:.2e}); "
           f"policy hi {agree_hi}/{total_hi}, lo {agree_lo}/{total_lo}")


def test_criterion_3_two_rates():
    payoff = make_payoff("call", strike=1.0)
    fin = finance_spec(r_lend=0.02, r_borrow=0.05)
    model = make_finance_model(fin, payoff, 1, [np.array([0.2])], 1.0, 0.2)
    grid = GridSpec(t_steps=400, x_min=(-1.2,), x_max=(1.2,), x_steps=(200,))
    surf = solve(model, grid)
    price = surf.value(0.0, np.array([0.0]))

    oracle = make_single_rate_model(fin, 0.05, payoff, 1, [np.array([0.2])], 1.0, 0.2)
    surf_o = solve(oracle, grid)
    price_o = surf_o.value(0.0, np.array([0.0]))
    rel = abs(price - price_o) / price_o

    fin_r = finance_spec(r_lend=0.03, r_borrow=0.03)
    equal = make_finance_model(fin_r, payoff, 1, [np.array([0.2])], 1.0, 0.2)
    equal_oracle = make_single_rate_model(fin_r, 0.03, payoff, 1, [np.array([0.2])], 1.0, 0.2)
    gap = np.max(np.abs(solve(equal, grid).values - solve(equal_oracle, grid).values))

    report(3, rel < 5e-3 and gap <= 1e-10,
           f"two-rate call {price:.6f} vs r=5% oracle {price_o:.6f} (rel {rel:.2e}); "
           f"equal-rate consistency gap {gap:.2e} <= 1e-10")


def test_criterion_4_regularization_pipeline(certified):
    _, _, smooth = certified
    cert = smooth.certificate
    gaps = [c for e, c in cert.c_curve if e not in cert.pruned]  # measured, not bounds
    monotone = all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:]))
    ok = (cert.passed and cert.min_residual >= -1e-3
          and cert.terminal_margin >= 0.0 and monotone)
    report(4, ok,
           f"eta=0.1 certified at eps={cert.eps}, k={cert.k:.0f}, delta={cert.delta}; "
           f"min residual {cert.min_residual:.2e} >= -1e-3 on {cert.n_checked}-node grid; "
           f"terminal margin {cert.terminal_margin:.4f} >= 0; "
           f"eps-gap curve {gaps} monotone: {monotone}")


def test_criterion_4_solves_only_the_certified_rung(certified):
    # eps 0.2, 0.1 and 0.05 are pruned on their terminal gap 2 eps > eta/2 = 0.05,
    # so the ladder solves the base and eps 0.025, which certifies
    cert = certified[2].certificate
    assert cert.pruned == [0.2, 0.1, 0.05]
    assert [e for e, _ in cert.c_curve] == [0.2, 0.1, 0.05, 0.025]
    # the pruned entries are the terminal gaps 2 eps, and the whole curve is nonincreasing
    gaps = [c for _, c in cert.c_curve]
    assert gaps[:3] == pytest.approx([0.4, 0.2, 0.1], rel=1e-12, abs=0.0)
    assert all(a >= b for a, b in zip(gaps, gaps[1:]))
    assert (cert.eps, cert.k, cert.delta) == (0.025, 65276.0, 0.0125)
    assert cert.min_residual == pytest.approx(-2.44578169591253e-04, rel=1e-12, abs=0.0)


def test_criterion_5_inf_convolution_oracle():
    rng = np.random.default_rng(55)
    mismatches = 0
    bound_ok = True
    for trial in range(50):
        n0 = int(rng.integers(5, 31))
        n1 = int(rng.integers(5, 31))
        k = float(rng.uniform(0.3, 30.0))
        vals = rng.normal(0.0, 1.0, (n0, n1))
        coords = [np.linspace(0.0, float(rng.uniform(0.5, 2.0)), n0),
                  np.linspace(0.0, float(rng.uniform(0.5, 2.0)), n1)]
        fast, arg = inf_convolution(vals, k, coords)
        # vectorised O(N^2) brute force with the same per-axis accumulation
        brute = np.empty((n0, n1))
        d0 = coords[0][:, None] - coords[0][None, :]
        d1 = coords[1][:, None] - coords[1][None, :]
        for p0 in range(n0):
            cand = vals + k * d0[p0][:, None] ** 2
            cand = cand[:, None, :] + k * d1.T[None, :, :] ** 2
            brute[p0] = cand.reshape(n0, n1, n1).min(axis=(0, 2))
        if not np.array_equal(fast, brute):
            mismatches += 1
        ii, jj = np.meshgrid(np.arange(n0), np.arange(n1), indexing="ij")
        d2 = (coords[0][arg[..., 0]] - coords[0][ii]) ** 2 \
            + (coords[1][arg[..., 1]] - coords[1][jj]) ** 2
        if np.max(d2) > 2.0 * np.max(np.abs(vals)) / k + 1e-12:
            bound_ok = False
    report(5, mismatches == 0 and bound_ok,
           f"50 random grids bitwise-equal to brute force ({mismatches} mismatches); "
           f"argmin displacement bound held on every run: {bound_ok}")


def test_criterion_6_mollifier():
    rng = np.random.default_rng(66)
    t = np.linspace(-0.2, 1.0, 241)
    ax = np.linspace(-1.0, 1.0, 401)
    vals = np.sin(2.0 * ax)[None, :] * np.cos(1.5 * t)[:, None] + 0.3 * ax[None, :] ** 2
    s = SmoothSurface(t, [ax], vals, 0.06)
    h = 1e-4
    worst = 0.0
    for _ in range(1000):
        tq = float(rng.uniform(0.15, 0.9))
        xq = float(rng.uniform(-0.7, 0.7))
        pk = s.eval(tq, np.array([xq]))
        fd_p = (s.value(tq, np.array([xq + h])) - s.value(tq, np.array([xq - h]))) / (2 * h)
        fd_q = (s.value(tq + h, np.array([xq])) - s.value(tq - h, np.array([xq]))) / (2 * h)
        fd_M = (s.value(tq, np.array([xq + h])) - 2 * pk.value
                + s.value(tq, np.array([xq - h]))) / h**2
        worst = max(worst,
                    abs(pk.p[0] - fd_p) / (1 + abs(pk.p[0])),
                    abs(pk.q - fd_q) / (1 + abs(pk.q)),
                    abs(pk.M[0, 0] - fd_M) / (1 + abs(pk.M[0, 0])))
    deriv_ok = worst <= 1e-4

    const = SmoothSurface(t, [ax], np.full((241, 401), 2.5), 0.05)
    pk_c = const.eval(0.5, np.array([0.1]))
    const_ok = (abs(pk_c.value - 2.5) <= 1e-10 and abs(pk_c.q) <= 1e-10
                and abs(pk_c.p[0]) <= 1e-10)
    lin = SmoothSurface(t, [ax], np.tile(ax, (241, 1)), 0.05)
    lin_ok = abs(lin.value(0.5, np.array([0.123])) - 0.123) <= 1e-10
    quad = SmoothSurface(t, [ax], np.tile(ax**2, (241, 1)), 0.2)
    nodes, wts = np.polynomial.legendre.leggauss(32)
    m2 = float(np.sum(wts * nodes**2 * _C_SPACE * _bump(nodes)))
    quad_got = quad.value(0.5, np.array([0.1]))
    quad_ok = abs(quad_got - (0.01 + m2 * 0.04)) <= 5e-5

    report(6, deriv_ok and const_ok and lin_ok and quad_ok,
           f"analytic vs FD on 1000 points: worst rel err {worst:.2e} <= 1e-4; "
           f"constant/linear exact, quadratic moment err "
           f"{abs(quad_got - (0.01 + m2 * 0.04)):.1e}")


def test_criterion_7_game_verification(bs_acc, uv_acc, certified):
    model, v_surf, smooth = certified
    sim = SimParams(x0=(0.0,), paths=10000, steps=400, seed=7,
                    tol_sim=0.02, p_sim=0.05)
    check = superhedge_check(model, smooth, 0.0, sim, policy_surface=v_surf)
    adversaries = {r.adversary for r in check.reports}
    probs = {r.adversary: r.shortfall_prob(sim.tol_sim) for r in check.reports}

    bs_model, bs_surf = bs_acc
    strat = make_strategy(bs_surf, bs_model)
    y0 = bs_surf.value(0.0, np.array([0.0]))
    steps = np.array([100, 200, 400, 800])
    means = [
        simulate(bs_model, strat, ConstantAdversary(0), 0.0, np.array([0.0]),
                 y0, 10000, int(s), seed=13).shortfall_mean
        for s in steps
    ]
    slope = -float(np.polyfit(np.log(steps), np.log(means), 1)[0])

    fail_check = superhedge_check(model, v_surf, -0.05,
                                  SimParams(x0=(0.0,), paths=10000, steps=400, seed=7))
    worst = [r for r in fail_check.reports if r.adversary == "worst"][0]

    ok = (check.passed
          and adversaries == {"constant:0", "constant:1", "random:4", "worst"}
          and 0.3 <= slope <= 0.7
          and not fail_check.passed
          and worst.shortfall_prob(fail_check.tol_sim) > fail_check.p_sim)
    report(7, ok,
           f"certified start y0={check.y0:.5f} PASSES all adversaries "
           f"(worst shortfall probs {max(probs.values()):.4f} <= 0.05); "
           f"decay slope {slope:.2f} in [0.3, 0.7] over steps {list(steps)}; "
           f"y0=v-0.05 FAILS against worst (prob {worst.shortfall_prob(0.02):.3f})")


def test_criterion_8_dual_agreement(bs_acc, uv_acc):
    bs_model, bs_surf = bs_acc
    uv_model, uv_surf = uv_acc
    results = []
    for model, surf in ((bs_model, bs_surf), (uv_model, uv_surf)):
        pde = surf.value(0.0, np.array([0.0]))
        lat = make_lattice(model, 0.0, 4, 0.0, substeps=25)
        est = dual_value_lsmc(model, 0.0, 0.0, [0.0], lat, 2, 100000, 7, policy=surf)
        diff = abs(est.value - pde)
        results.append((est, pde, diff, diff <= 2.0 * est.std_error + 0.01 * pde))

    lat_dpp = make_lattice(bs_model, 0.0, 4, 0.0, substeps=25)
    dpp = dpp_check(bs_model, 0.0, 0.0, [0.0], 0.5, lat_dpp, 100000, 3, policy=bs_surf)
    want = bs_call_spread(1.0, 1.0, 1.4, 0.2, 1.0)
    dpp_ok = dpp.difference <= 2.0 * dpp.combined_std_error + 0.01 * want

    knots_ok = True
    prev = None
    knot_vals = []
    for nk in (2, 4, 8):
        lat = make_lattice(uv_model, 0.0, nk, 0.0, substeps=25)
        est = dual_value_lsmc(uv_model, 0.0, 0.0, [0.0], lat, 2, 100000, 19, policy=uv_surf)
        knot_vals.append(est.value)
        if prev is not None:
            noise = 2.0 * float(np.hypot(prev.std_error, est.std_error))
            if est.value < prev.value - noise:
                knots_ok = False
        prev = est

    ok = all(r[3] for r in results) and dpp_ok and knots_ok
    report(8, ok,
           f"singleton dual {results[0][0].value:.6f} vs PDE {results[0][1]:.6f} "
           f"(diff {results[0][2]:.2e} <= 2se+1%); "
           f"uncertain-vol dual {results[1][0].value:.6f} vs PDE {results[1][1]:.6f} "
           f"(diff {results[1][2]:.2e}); dpp diff {dpp.difference:.2e} "
           f"<= 2x{dpp.combined_std_error:.2e}+1%; knot ladder {knot_vals} "
           f"nondecreasing within noise: {knots_ok}")


def test_criterion_9_determinism(tmp_path):
    cfg = {
        "model": {
            "kind": "finance", "dim": 1, "A_points": [[0.1], [0.3]],
            "horizon_T": 1.0, "lipschitz_K": 0.3,
            "finance": {
                "mu": {"type": "constant", "value": 0.0},
                "sigma": {"type": "affine_in_a"},
                "r_lend": {"type": "constant", "value": 0.0},
                "r_borrow": {"type": "constant", "value": 0.0},
            },
            "payoff": {"type": "call_spread", "strike": 1.0, "cap": 1.4},
        },
        "grid": {"t_steps": 150, "x_min": [-1.5], "x_max": [1.5], "x_steps": [60]},
        "sim": {"paths": 1000, "steps": 150, "seed": 21},
        "dual": {"knots": 2, "degree": 2, "paths": 2000, "eps": 0.0,
                 "seed": 9, "substeps": 10},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    outs = []
    for name in ("runA", "runB"):
        out = tmp_path / name
        assert cli_main(["solve", "-c", str(path), "--out", str(out)]) == 0
        assert cli_main(["simulate", "-c", str(path), "--out", str(out / "sim"),
                         "--surface", str(out / "surface.bin")]) == 0
        assert cli_main(["dual", "-c", str(path), "--out", str(out / "dual")]) == 0
        outs.append(out)
    artifacts = ["surface.csv", "surface.bin", "summary.json",
                 "sim/simreport.json", "dual/dual.json"]
    identical = all((outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes()
                    for rel in artifacts)

    # the BLAS thread count, which OpenBLAS reads when numpy loads: child processes
    thread_payloads = []
    for threads in (1, 2):
        out = tmp_path / f"thr{threads}"
        assert cli_in_child(["simulate", "-c", str(path), "--out", str(out),
                             "--surface", str(outs[0] / "surface.bin")], threads) == 0
        assert cli_in_child(["dual", "-c", str(path), "--out", str(out / "dual"), "--mid", "0.5"], threads) == 0
        thread_payloads.append((out / "simreport.json").read_bytes()
                               + (out / "dual" / "dual.json").read_bytes())
    threads_same = thread_payloads[0] == thread_payloads[1]

    report(9, identical and threads_same,
           f"repeated runs byte-identical on {artifacts}: {identical}; "
           f"BLAS thread count 1 vs 2 changes nothing: {threads_same}")

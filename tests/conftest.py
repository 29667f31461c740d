"""Shared fixtures and independent oracles for the test suite."""

import dataclasses
import math
import os
import subprocess
import sys
from itertools import product

import numpy as np
import pytest

import hedgegame
from hedgegame.model import FinanceSpec, make_finance_model, make_payoff


def norm_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def bs_call(spot: float, strike: float, vol: float, tau: float, rate: float = 0.0) -> float:
    """Black-Scholes call value, the closed-form pricing oracle."""
    if tau <= 0.0:
        return max(spot - strike, 0.0)
    sq = vol * math.sqrt(tau)
    d1 = (math.log(spot / strike) + (rate + 0.5 * vol * vol) * tau) / sq
    d2 = d1 - sq
    return spot * norm_cdf(d1) - strike * math.exp(-rate * tau) * norm_cdf(d2)


def bs_call_spread(spot, k1, k2, vol, tau, rate=0.0):
    return bs_call(spot, k1, vol, tau, rate) - bs_call(spot, k2, vol, tau, rate)


def bs_call_delta_logspace(spot, strike, vol, tau, rate=0.0):
    """d(value)/d(log S) = S * N(d1) for a call."""
    sq = vol * math.sqrt(tau)
    d1 = (math.log(spot / strike) + (rate + 0.5 * vol * vol) * tau) / sq
    return spot * norm_cdf(d1)


def cli_in_child(argv, blas_threads):
    """Exit code of ``python -m hedgegame.cli argv`` in a new process whose
    OpenBLAS runs ``blas_threads`` threads (read when numpy loads, so only a
    new process can change it), on the package under test."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(hedgegame.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=str(blas_threads))
    return subprocess.run([sys.executable, "-m", "hedgegame.cli", *argv], env=env,
                          capture_output=True, timeout=600).returncode


def constant_rate(value: float):
    return lambda t, x, a: np.full(np.asarray(x).shape[:-1], float(value))


def constant_mu(dim: int, value: float = 0.0):
    return lambda t, x, a: np.full(np.asarray(x).shape[:-1] + (dim,), float(value))


def sigma_from_a(dim: int):
    """Volatility matrix a[0] * I, the uncertain-volatility family."""

    def sigma(t, x, a):
        s = float(np.asarray(a).reshape(-1)[0])
        return np.broadcast_to(s * np.eye(dim), np.asarray(x).shape[:-1] + (dim, dim))

    return sigma


def finance_spec(dim=1, mu=0.0, r_lend=0.0, r_borrow=0.0):
    return FinanceSpec(
        mu=constant_mu(dim, mu),
        sigma=sigma_from_a(dim),
        r_lend=constant_rate(r_lend),
        r_borrow=constant_rate(r_borrow),
    )


def bs_singleton_model(vol=0.2, strike=1.0, cap=1.4, T=1.0, payoff_kind="call_spread"):
    """Single-volatility zero-rate market with a spread (or other) payoff."""
    if payoff_kind == "call_spread":
        payoff = make_payoff("call_spread", strike=strike, cap=cap)
    else:
        payoff = make_payoff(payoff_kind, strike=strike)
    return make_finance_model(
        finance_spec(), payoff, dim=1, A_points=[np.array([vol])],
        horizon_T=T, lipschitz_K=vol,
    )


def uncertain_vol_model(vols=(0.1, 0.3), payoff_kind="call", strike=1.0, T=1.0,
                        r_lend=0.0, r_borrow=0.0, dim=1):
    payoff = make_payoff(payoff_kind, strike=strike)
    return make_finance_model(
        finance_spec(dim=dim, r_lend=r_lend, r_borrow=r_borrow),
        payoff, dim=dim,
        A_points=[np.array([v]) for v in vols],
        horizon_T=T, lipschitz_K=max(vols),
    )


def readme_sketch_model(r_lend=0.02, r_borrow=0.05):
    """The README config sketch's model: the call spread 1 / 1.4 under
    uncertain vol {0.1, 0.3}, lending at r_lend and borrowing at r_borrow."""
    return make_finance_model(
        finance_spec(r_lend=r_lend, r_borrow=r_borrow),
        make_payoff("call_spread", strike=1.0, cap=1.4), 1,
        [np.array([0.1]), np.array([0.3])], 1.0, 0.3,
    )


def x_varying_vol_model(time_factor=False):
    """Uncertain vol {0.1, 0.3} scaled by 1 + 0.1 sin(x), and by 1 + t with
    ``time_factor``, so every x-shift (and time shift) reads its own vol."""

    def sigma(t, x, a):
        s = float(a[0]) * (1.0 + 0.1 * np.sin(np.asarray(x)[..., 0]))
        if time_factor:
            s = s * (1.0 + t)
        return s[..., None, None] * np.eye(1)

    fin = dataclasses.replace(finance_spec(r_lend=0.01, r_borrow=0.04), sigma=sigma)
    return make_finance_model(fin, make_payoff("call", strike=1.0), 1,
                              [np.array([0.1]), np.array([0.3])], 1.0, 0.6)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260810)


# ---------------------------------------------------------------------------
# per-point mollifier oracle: subdivided Gauss-Legendre quadrature
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(5)
_C_SPACE = 315.0 / 256.0
_C_TIME = 315.0 / 128.0


def _bump(s):
    v = 1.0 - s * s
    return np.where(np.abs(s) <= 1.0, v**4, 0.0)


def _bump_d1(s):
    v = 1.0 - s * s
    return np.where(np.abs(s) <= 1.0, -8.0 * s * v**3, 0.0)


def _bump_d2(s):
    v = 1.0 - s * s
    return np.where(np.abs(s) <= 1.0, -8.0 * v**3 + 48.0 * s * s * v**2, 0.0)


def _subdivide(lo, hi, knots):
    """Gauss-Legendre nodes/weights on [lo, hi] split at interior knots."""
    inner = knots[(knots > lo + 1e-15) & (knots < hi - 1e-15)]
    edges = np.concatenate([[lo], np.sort(inner), [hi]])
    nodes = []
    wgts = []
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        nodes.append(mid + half * _GL_NODES)
        wgts.append(half * _GL_WEIGHTS)
    return np.concatenate(nodes), np.concatenate(wgts)


def _interp_clamped(t_nodes, axes, values, tq, xq):
    """Multilinear interpolation with constant extension outside the grid."""
    d = len(axes)
    out_idx = []
    out_w = []
    for coords, q in [(t_nodes, tq)] + [(axes[i], xq[..., i]) for i in range(d)]:
        h = coords[1] - coords[0]
        pos = np.clip((q - coords[0]) / h, 0.0, len(coords) - 1.0)
        idx = np.minimum(pos.astype(int), len(coords) - 2)
        out_idx.append(idx)
        out_w.append(np.clip(pos - idx, 0.0, 1.0))
    res = np.zeros(np.asarray(tq).shape)
    for corner in product((0, 1), repeat=1 + d):
        wgt = np.ones_like(res)
        sel = []
        for j, c in enumerate(corner):
            wgt = wgt * (out_w[j] if c else (1.0 - out_w[j]))
            sel.append(out_idx[j] + c)
        res += wgt * values[tuple(sel)]
    return res


def mollifier_oracle(smooth, t, x):
    """(value, gradient, hessian, time derivative) of a SmoothSurface at one
    point: the differentiated kernel integrated against the multilinearly
    interpolated nodes, split at grid lines so every piece is a polynomial
    of degree <= 9 that the 5-point rule integrates exactly. The kernel
    takes a constant to itself and its derivatives take it to zero, so the
    rule integrates the nodes less their value at the point: the same
    integrals, without the roundoff of a large constant summed against a
    kernel of width delta."""
    d = smooth.dim
    dl = smooth.delta
    x = np.asarray(x, dtype=float).reshape(d)
    t = float(t)
    tq, tw = _subdivide(t - dl, t, smooth.t_nodes)
    xqs = [_subdivide(x[i] - dl, x[i] + dl, smooth.axes[i]) for i in range(d)]
    grids = np.meshgrid(tq, *[q for q, _ in xqs], indexing="ij")
    wgts = np.meshgrid(tw, *[w for _, w in xqs], indexing="ij")
    pts_t = grids[0].reshape(-1)
    pts_x = np.stack([g.reshape(-1) for g in grids[1:]], axis=-1)
    weight = np.ones_like(pts_t)
    for w in wgts:
        weight = weight * w.reshape(-1)
    W = _interp_clamped(smooth.t_nodes, smooth.axes, smooth.node_values, pts_t, pts_x)

    st = (pts_t - t) / dl
    sx = [(pts_x[:, i] - x[i]) / dl for i in range(d)]
    kt = _C_TIME * _bump(2.0 * st + 1.0)
    kx = [_C_SPACE * _bump(s) for s in sx]
    k1 = [_C_SPACE * _bump_d1(s) / dl for s in sx]
    c = _interp_clamped(smooth.t_nodes, smooth.axes, smooth.node_values,
                        np.array([t]), x[None])[0]
    base = weight * (W - c) * dl ** (-(d + 1))

    def integral(time_factor, factors):
        fac = time_factor
        for f in factors:
            fac = fac * f
        return float(np.sum(base * fac))

    value = c + integral(kt, kx)
    q = -integral(_C_TIME * 2.0 * _bump_d1(2.0 * st + 1.0) / dl, kx)
    p = np.array([-integral(kt, kx[:i] + [k1[i]] + kx[i + 1:]) for i in range(d)])
    M = np.zeros((d, d))
    for i in range(d):
        M[i, i] = integral(kt, kx[:i] + [_C_SPACE * _bump_d2(sx[i]) / dl**2] + kx[i + 1:])
    if d == 2:
        M[0, 1] = M[1, 0] = integral(kt, k1)
    return value, p, M, q


# ---------------------------------------------------------------------------
# inf-convolution oracle: every source of every line, one axis at a time
# ---------------------------------------------------------------------------


def inf_convolution_oracle(values, k, coords):
    """O(n^2) per axis: (envelope, argmin multi-index) of ``inf_convolution``.

    Along each axis, node p's candidates w[..., q] + k (c[p] - c[q])^2 over
    every source q are reduced with ``min`` and ``argmin`` (first index on
    ties); the earlier axes' argmins are gathered through the new one.
    """
    out = np.asarray(values, dtype=float)
    args = []
    for ax, c in enumerate(coords):
        c = np.asarray(c, dtype=float)
        cand = np.moveaxis(out, ax, -1)[..., None, :] + k * (c[:, None] - c[None, :]) ** 2
        out = np.moveaxis(cand.min(axis=-1), -1, ax)
        win = np.moveaxis(cand.argmin(axis=-1), -1, ax)
        args = [np.take_along_axis(a, win, axis=ax) for a in args] + [win]
    return out, np.stack(args, axis=-1)


# ---------------------------------------------------------------------------
# per-pair sweep oracle: the backward sweep with one read of mu_X, sigma_X and
# both rates per (adverse point, shake) pair and layer, each straight from the
# closures (never a frozen coefficient read), and La in closed form pair by pair
# ---------------------------------------------------------------------------


def make_single_rate_model(finance, rate, payoff_g, dim, A_points, horizon_T, lipschitz_K):
    """Linear-financing oracle model: rho replaced by rate*(y - u.1)."""
    r = rate if callable(rate) else constant_rate(rate)
    fin = FinanceSpec(mu=finance.mu, sigma=finance.sigma, r_lend=r, r_borrow=r)
    return make_finance_model(fin, payoff_g, dim, tuple(A_points), horizon_T, lipschitz_K)


def closure_form_la(model, t, X, y, q, p, M, a):
    """La at (t, X) from the closures: mu_Y(., u_hat(., sigma^T p, .), .) - q
    - mu.p - 1/2 Sig_ii M_ii - Sig_01 (M_01 + M_10)/2, the hedge map and mu
    included, against which the closed form is checked."""
    mu = np.asarray(model.mu_X(t, X, a), dtype=float)
    sig = np.asarray(model.sigma_X(t, X, a), dtype=float)
    Sig = np.einsum("...ik,...jk->...ij", sig, sig)
    z = np.einsum("...ji,...j->...i", sig, p)
    la = np.asarray(model.mu_Y(t, X, y, model.u_hat(t, X, y, z, a), a), dtype=float) - q
    for i in range(X.shape[-1]):
        la = la - mu[..., i] * p[..., i] - 0.5 * Sig[..., i, i] * M[..., i, i]
    if X.shape[-1] == 2:
        la = la - Sig[..., 0, 1] * (0.5 * (M[..., 0, 1] + M[..., 1, 0]))
    return la


def _pad_linear(v):
    """Add one ghost node per side and axis by linear extrapolation, one
    concatenation per side and axis."""
    out = v
    for ax in range(v.ndim):
        lo = 2.0 * np.take(out, [0], axis=ax) - np.take(out, [1], axis=ax)
        hi = 2.0 * np.take(out, [-1], axis=ax) - np.take(out, [-2], axis=ax)
        out = np.concatenate([lo, out, hi], axis=ax)
    return out


class _OracleLayerOps:
    """Central differences p and M of one known layer, shared across
    adverse points, on a freshly concatenated padding."""

    def __init__(self, v, dx):
        from hedgegame.hjb import _shift

        d = v.ndim
        vp = _pad_linear(v)
        self.p_cen = np.stack([(_shift(vp, i, +1, d) - _shift(vp, i, -1, d)) / (2.0 * dx[i])
                               for i in range(d)], axis=-1)
        self.M = np.zeros(v.shape + (d, d))
        for i in range(d):
            self.M[..., i, i] = (_shift(vp, i, +1, d) - 2.0 * v + _shift(vp, i, -1, d)) / (dx[i] ** 2)
        if d == 2:
            cross = (vp[2:, 2:] + vp[:-2, :-2] - vp[2:, :-2] - vp[:-2, 2:]) / (4.0 * dx[0] * dx[1])
            self.M[..., 0, 1] = self.M[..., 1, 0] = cross


def _oracle_rows(model, pairs, t, X, y, q, p, M):
    """La of every (a, b) pair at its shifted base point, one row per pair,
    each from its own mu_X, sigma_X and rate reads, in closed form at the
    delta hedge u = p in the generator's order: c = y - p.1, then
    r_lend c+ - r_borrow c- - q, plus 1/2 Sig_ii (p_i - M_ii) axis by axis,
    less Sig_01 (M_01 + M_10)/2; NaN where mu is not finite."""
    from hedgegame.model import base_point

    rows = []
    for a, b in pairs:
        t_b, X_b = base_point(t, X, b, model.horizon_T)
        mu = np.asarray(model.mu_X(t_b, X_b, a), dtype=float)
        sig = np.asarray(model.sigma_X(t_b, X_b, a), dtype=float)
        rl = np.asarray(model.finance.r_lend(t_b, X_b, a), dtype=float)
        rb = np.asarray(model.finance.r_borrow(t_b, X_b, a), dtype=float)
        Sig = np.einsum("...ik,...jk->...ij", sig, sig)
        c = y - p.sum(axis=-1)
        la = rl * np.maximum(c, 0.0) - rb * np.maximum(-c, 0.0) - q
        for i in range(X.shape[-1]):
            la = la + 0.5 * Sig[..., i, i] * (p[..., i] - M[..., i, i])
        if X.shape[-1] == 2:
            la = la - Sig[..., 0, 1] * (0.5 * (M[..., 0, 1] + M[..., 1, 0]))
        rows.append(np.where(np.isfinite(mu).all(axis=-1), la, np.nan))
    return np.stack(rows)


def sweep_oracle(model, grid, *, pad_layers=0, shake_points=None):
    """(values, policy) of ``hjb.solve`` evaluated pair by pair: every
    (adverse point, shake) pair reads its coefficients on its own, on
    mesh-shaped batches, with the wealth term explicit: layer k is
    v_{k+1} - dt min_j La_j(v_{k+1}) (``_oracle_rows``). No validation or
    CFL check."""
    from hedgegame.model import adverse_pairs

    T = model.horizon_T
    dt = T / grid.t_steps
    n_layers = grid.t_steps + pad_layers
    t_vals = np.concatenate([T - dt * np.arange(n_layers, 0, -1), [T]])
    X = grid.mesh()
    pairs = adverse_pairs(model, shake_points)
    values = np.empty((n_layers + 1,) + X.shape[:-1])
    policy = np.zeros((n_layers + 1,) + X.shape[:-1], dtype=np.int32)
    values[-1] = np.asarray(model.payoff_g(X), dtype=float)
    for k in range(n_layers - 1, -1, -1):
        v_next = values[k + 1]
        ops = _OracleLayerOps(v_next, grid.dx)
        stack = _oracle_rows(model, pairs, float(t_vals[k]), X, v_next, 0.0, ops.p_cen, ops.M)
        values[k] = v_next - dt * stack.min(axis=0)
        policy[k] = np.argmin(stack, axis=0).astype(np.int32)
    return values, policy


def _oracle_min_generator(model, t, X, y, q, p, M):
    """Worst-case generator over the unshaken adverse set, pair by pair
    (``_oracle_rows``): (min, argmin)."""
    from hedgegame.model import adverse_pairs

    rows = _oracle_rows(model, adverse_pairs(model), t, X, y, q, p, M)
    return np.min(rows, axis=0), np.argmin(rows, axis=0)


def residual_oracle(surface, model):
    """The residual grid that ``hjb.residual`` reduces, NaN at boundary and
    terminal nodes, with the differences taken layer by layer on the
    interior nodes, each from explicit slices: the central first
    difference, the compact second difference (v[i+1] - 2 v[i] + v[i-1]) / h^2
    and in d = 2 the 4-point cross difference, all on the grid's h. The
    generator is read pair by pair from the closures, in closed form."""
    v = surface.values
    t = surface.t
    dt = float(t[1] - t[0])
    d = surface.dim
    dx = surface.grid.dx
    X = np.stack(np.meshgrid(*surface.axes, indexing="ij"), axis=-1)
    out = np.full(v.shape, np.nan)
    interior = tuple(slice(1, -1) for _ in range(d))
    for k in range(1, v.shape[0] - 1):
        q = (v[k + 1] - v[k - 1]) / (2.0 * dt)
        layer = v[k]

        def near(i, off):
            sl = list(interior)
            sl[i] = slice(1 + off, layer.shape[i] - 1 + off)
            return layer[tuple(sl)]

        p = np.zeros(layer.shape + (d,))
        M = np.zeros(layer.shape + (d, d))
        for i in range(d):
            p[interior + (i,)] = (near(i, 1) - near(i, -1)) / (2.0 * dx[i])
            M[interior + (i, i)] = (near(i, 1) - 2.0 * layer[interior] + near(i, -1)) / dx[i] ** 2
        if d == 2:
            cr = layer[2:, 2:] + layer[:-2, :-2] - layer[2:, :-2] - layer[:-2, 2:]
            cr = cr / (4.0 * dx[0] * dx[1])
            M[interior + (0, 1)] = cr
            M[interior + (1, 0)] = cr
        best, _ = _oracle_min_generator(model, float(t[k]), X, layer, q, p, M)
        res = np.full(layer.shape, np.nan)
        res[interior] = best[interior]
        out[k] = res
    return out


def surface_fields_oracle(surf):
    """(p, M, q) of every layer of a grid surface at once: one
    ``hjb._LayerOps`` bound to all its layers, and q the central time
    difference, second-order one-sided on the first and last layer."""
    from hedgegame.hjb import _LayerOps

    v, dt = surf.values, float(surf.t[1] - surf.t[0])
    ops = _LayerOps(np.empty(v.shape[:1] + tuple(n + 2 for n in v.shape[1:])), surf.grid.dx).load(v)
    q = np.empty_like(v)
    q[1:-1] = (v[2:] - v[:-2]) / (2.0 * dt)
    q[0] = -1.5 / dt * v[0] + 2.0 / dt * v[1] - 0.5 / dt * v[2]
    q[-1] = 0.5 / dt * v[-3] - 2.0 / dt * v[-2] + 1.5 / dt * v[-1]
    return ops.p_cen, ops.M, q


# ---------------------------------------------------------------------------
# per-group game oracle: each adverse point's paths read the hedge rule and
# then mu_X, sigma_X, mu_Y and sigma_Y, each straight from the closures
# (never a frozen coefficient read), with the gradient read on the group's
# paths alone and Y diffusing with sigma_Y(u)
# ---------------------------------------------------------------------------


def controls_from_draws(switch_u, choice_u, n_points, p_switch):
    """The random adversary's whole (n_steps, n_paths) plan from its two
    blocks of draws, one ``PiecewiseRandomAdversary.step`` per row."""
    from hedgegame.game import PiecewiseRandomAdversary

    out = np.empty(switch_u.shape, dtype=np.int64)
    current = None
    for n in range(len(out)):
        current = PiecewiseRandomAdversary.step(current, switch_u[n], choice_u[n], n_points, p_switch)
        out[n] = current
    return out


def simulate_oracle(model, strategy, adversary, t0, x0, y0, n_paths, n_steps, seed):
    """(terminal gap, excluded paths, clamped queries) of ``game.simulate``
    stepped group by group through the closures. A clamped time counts once
    per group here, once per step in ``game.simulate``."""
    from hedgegame.game import ConstantAdversary, PiecewiseRandomAdversary

    T = model.horizon_T
    d = model.dim
    n_A = len(model.A_points)
    dt = (T - t0) / n_steps
    brown_ss, adv_ss = np.random.SeedSequence(int(seed)).spawn(2)
    dW = np.random.Generator(np.random.Philox(brown_ss)).standard_normal((n_steps, n_paths, d)) \
        * np.sqrt(dt)
    if isinstance(adversary, ConstantAdversary):
        plan = np.full((n_steps, n_paths), adversary.a_index, dtype=np.int64)
    elif isinstance(adversary, PiecewiseRandomAdversary):
        rng_a = np.random.Generator(np.random.Philox(adv_ss))
        switch_u = rng_a.random((n_steps, n_paths))
        choice_u = rng_a.random((n_steps, n_paths))
        p_switch = 1.0 - np.exp(-adversary.switch_rate * dt)
        plan = controls_from_draws(switch_u, choice_u, n_A, p_switch)
    else:
        plan = None

    def rule(t, xs, ys, a):
        grad = strategy.gradient(t, xs)
        sig = np.asarray(model.sigma_X(t, xs, a), dtype=float)
        z = np.einsum("...ji,...j->...i", sig, grad)
        if not np.any(z):
            return np.zeros_like(z)
        return np.asarray(model.u_hat(t, xs, np.asarray(ys, dtype=float), z, a), dtype=float)

    X = np.tile(np.asarray(x0, dtype=float).reshape(1, d), (n_paths, 1))
    Y = np.full(n_paths, float(y0))
    clamp_before = strategy.clamped
    for n in range(n_steps):
        t_n = t0 + n * dt
        if plan is not None:
            a_idx = plan[n]
        else:
            a_idx = adversary.surface.policy_at(t_n, X)
        for j in range(n_A):
            mask = a_idx == j
            if not np.any(mask):
                continue
            a = model.A_points[j]
            xm, ym, wm = X[mask], Y[mask], dW[n][mask]
            u = rule(t_n, xm, ym, a)
            mu = np.asarray(model.mu_X(t_n, xm, a), dtype=float)
            sig = np.asarray(model.sigma_X(t_n, xm, a), dtype=float)
            muY = np.asarray(model.mu_Y(t_n, xm, ym, u, a), dtype=float)
            sgY = np.asarray(model.sigma_Y(t_n, xm, ym, u, a), dtype=float)
            X[mask] = xm + mu * dt + np.einsum("...ij,...j->...i", sig, wm)
            Y[mask] = ym + muY * dt + np.einsum("...i,...i->...", sgY, wm)
    finite = np.isfinite(Y) & np.all(np.isfinite(X), axis=1)
    gap = Y[finite] - np.asarray(model.payoff_g(X[finite]), dtype=float)
    return gap, int(n_paths - finite.sum()), strategy.clamped - clamp_before


# ---------------------------------------------------------------------------
# masked dual oracle: every control's paths gathered through a boolean mask
# and scattered back, also where one control holds every path
# ---------------------------------------------------------------------------


def advance_oracle(model, lattice, j, X, pick, rng):
    """Knot interval j with one Euler segment per control that has paths,
    on the paths that ``pick`` gives it, in control order."""
    from hedgegame.dual import _euler_segment

    knots = lattice.time_knots
    X_next, dW = np.empty(X.shape), np.empty(X.shape)
    for i, gamma in enumerate(lattice.gamma_points):
        mask = pick == i
        if np.any(mask):
            X_next[mask], dW[mask] = _euler_segment(
                model, gamma, knots[j], knots[j + 1], X[mask], lattice.substeps, rng)
    return X_next, dW


def rollout_oracle(model, lattice, X, policy, rng):
    """(states, picks, dWs) of the feedback rollout: at each knot every path
    reads ``policy(t, X)``, and each interval runs through the masked loop."""
    states, picks, dWs = [X], [], []
    for j in range(len(lattice.time_knots) - 1):
        picks.append(np.asarray(policy(lattice.time_knots[j], X)))
        X, dW = advance_oracle(model, lattice, j, X, picks[-1], rng)
        states.append(X)
        dWs.append(dW)
    return states, picks, dWs


def policy_value_oracle(model, lattice, states, picks, dWs, terminal_fn, degree):
    """Backward BSDE values along frozen-policy paths, each control's paths
    read through a mask: the y fit, the per-path delta targets
    sigma^-T (Y - y) dW / dtau (a division in d = 1), the delta fit on the y
    fit's design matrix and the driver at delta; the lists are left as they
    are."""
    from hedgegame.dual import _Basis, _driver, _fit, _lstsq
    from hedgegame.model import base_point

    knots, d = lattice.time_knots, states[0].shape[1]
    Y = np.asarray(terminal_fn(states[-1]), dtype=float)
    for j in range(len(knots) - 2, -1, -1):
        xj, dtau = states[j], knots[j + 1] - knots[j]
        _, _, yhat, B = _fit(_Basis(xj, degree), xj, Y)
        w = (Y - yhat)[:, None] * dWs[j] / dtau
        masks = []
        for i, (a, b) in enumerate(lattice.gamma_points):
            mask = picks[j] == i
            if np.any(mask):
                t_b, x_b = base_point(knots[j], xj[mask], b, model.horizon_T)
                sig = np.broadcast_to(np.asarray(model.finance.sigma(t_b, x_b, a), dtype=float),
                                      (int(mask.sum()), d, d))
                w[mask] = (w[mask] / sig[:, 0, :] if d == 1 else
                           np.linalg.solve(np.swapaxes(sig, -1, -2), w[mask][..., None])[..., 0])
                masks.append((i, mask))
        delta = np.stack([_lstsq(B, w[:, k])[2] for k in range(d)], axis=-1)
        f = np.empty(xj.shape[0])
        for i, mask in masks:
            f[mask] = _driver(model, lattice.gamma_points[i], knots[j], xj[mask], yhat[mask], delta[mask])
        Y = Y - dtau * f
    return Y

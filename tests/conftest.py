"""Shared fixtures and independent oracles for the test suite."""

import math
from itertools import product

import numpy as np
import pytest

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
    of degree <= 9 that the 5-point rule integrates exactly."""
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
    base = weight * W * dl ** (-(d + 1))

    def integral(time_factor, factors):
        fac = time_factor
        for f in factors:
            fac = fac * f
        return float(np.sum(base * fac))

    value = integral(kt, kx)
    q = -integral(_C_TIME * 2.0 * _bump_d1(2.0 * st + 1.0) / dl, kx)
    p = np.array([-integral(kt, kx[:i] + [k1[i]] + kx[i + 1:]) for i in range(d)])
    M = np.zeros((d, d))
    for i in range(d):
        M[i, i] = integral(kt, kx[:i] + [_C_SPACE * _bump_d2(sx[i]) / dl**2] + kx[i + 1:])
    if d == 2:
        M[0, 1] = M[1, 0] = integral(kt, k1)
    return value, p, M, q

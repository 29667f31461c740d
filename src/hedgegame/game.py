"""Feedback hedging strategies and adversarial Monte Carlo verification.

A strategy map turns a solved (or certified smooth) surface into the
Markovian hedge u = u_hat(t, X, Y, sigma_X^T Dw, a); in the finance preset
this collapses to the delta rule u = Dw independently of wealth and of
the adverse control. Simulation runs the game under Euler-Maruyama with
shared Brownian increments against constant, randomly switching and
worst-case-feedback adversaries, and reports terminal shortfall statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import hjb, regularize
from .model import HedgeGameError, ModelSpec


class StrategyMap:
    """Feedback rule (t, x, y, a) -> hedge control, read off a surface.

    Gradient queries outside the surface domain are clamped to its boundary
    and counted in ``clamped``.
    """

    def __init__(self, source, model: ModelSpec):
        self.model = model
        self.source = source
        self.clamped = 0
        if isinstance(source, regularize.SmoothSurface):
            self._t_lo = max(float(source.t_nodes[0]) + source.delta, 0.0)
        elif isinstance(source, hjb.ValueSurface):
            self._t_lo = max(source.t_start, 0.0)
        else:
            raise HedgeGameError(f"unsupported strategy source {type(source)!r}")
        self._t_hi = source.horizon_T
        self._x_lo = np.array([a[0] for a in source.axes])
        self._x_hi = np.array([a[-1] for a in source.axes])

    def _clamp(self, t, xs):
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        tc = min(max(float(t), self._t_lo), self._t_hi)
        xc = np.clip(xs, self._x_lo, self._x_hi)
        hits = int(np.sum(np.any(xc != xs, axis=1))) + int(tc != float(t))
        self.clamped += hits
        return tc, xc

    def value(self, t, x) -> float:
        tc, xc = self._clamp(t, x)
        if isinstance(self.source, regularize.SmoothSurface):
            v, _ = self.source.fast_value_grad(tc, xc)
            return float(v[0])
        return float(self.source.value(tc, xc)[0])

    def gradient(self, t, xs) -> np.ndarray:
        tc, xc = self._clamp(t, xs)
        return self.source.gradient(tc, xc)

    def rule(self, t, xs, ys, a) -> np.ndarray:
        """Hedge controls for a batch of paths under one adverse point."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        grad = self.gradient(t, xs)
        sig = np.asarray(self.model.sigma_X(t, xs, a), dtype=float)
        z = np.einsum("...ji,...j->...i", sig, grad)
        if not np.any(z):
            return np.zeros_like(z)
        return np.asarray(self.model.u_hat(t, xs, np.asarray(ys, dtype=float), z, a), dtype=float)


def make_strategy(source, model: ModelSpec) -> StrategyMap:
    """Wrap a value surface or smooth supersolution as a feedback hedge."""
    return StrategyMap(source, model)


# ---------------------------------------------------------------------------
# adversaries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantAdversary:
    a_index: int

    def label(self):
        return f"constant:{self.a_index}"


@dataclass(frozen=True)
class PiecewiseRandomAdversary:
    """Controls jump to a uniformly drawn adverse point at rate switch_rate."""

    switch_rate: float = 4.0

    def label(self):
        return f"random:{self.switch_rate:g}"

    @staticmethod
    def controls_from_draws(switch_u, choice_u, n_points, p_switch):
        """Pure mapping draws -> control indices; step n uses draws[:n+1].

        Non-anticipativity holds by construction: permuting draws after
        step n cannot change the controls up to n.
        """
        n_steps, n_paths = switch_u.shape
        out = np.empty((n_steps, n_paths), dtype=np.int64)
        current = np.minimum((choice_u[0] * n_points).astype(np.int64), n_points - 1)
        out[0] = current
        for n in range(1, n_steps):
            flip = switch_u[n] < p_switch
            fresh = np.minimum((choice_u[n] * n_points).astype(np.int64), n_points - 1)
            current = np.where(flip, fresh, current)
            out[n] = current
        return out


@dataclass(frozen=True)
class MarkovWorstAdversary:
    """Plays the argmin field of a solved surface (the worst-case policy)."""

    surface: hjb.ValueSurface

    def label(self):
        return "worst"


def _worst_lookup(surface: hjb.ValueSurface, t, xs):
    dt = float(surface.t[1] - surface.t[0])
    k = int(np.clip(round((t - surface.t_start) / dt), 0, len(surface.t) - 1))
    idx = []
    for i, ax in enumerate(surface.axes):
        h = ax[1] - ax[0]
        idx.append(np.clip(np.round((xs[:, i] - ax[0]) / h).astype(np.int64), 0, len(ax) - 1))
    return surface.policy[(k,) + tuple(idx)]


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


@dataclass
class SimReport:
    n_paths: int
    n_steps: int
    seed: int
    t0: float
    x0: tuple
    y0: float
    adversary: str
    shortfall_mean: float
    quantiles: dict
    excluded_paths: int
    clamped_queries: int
    shortfall: np.ndarray = field(repr=False)
    terminal_gap: np.ndarray = field(repr=False)

    def shortfall_prob(self, tol: float) -> float:
        if self.shortfall.size == 0:
            return 0.0
        return float(np.mean(self.shortfall > tol))

    def to_dict(self, tol: float | None = None):
        d = {
            "n_paths": self.n_paths,
            "n_steps": self.n_steps,
            "seed": self.seed,
            "t0": self.t0,
            "x0": list(self.x0),
            "y0": self.y0,
            "adversary": self.adversary,
            "shortfall_mean": self.shortfall_mean,
            "quantiles": self.quantiles,
            "excluded_paths": self.excluded_paths,
            "clamped_queries": self.clamped_queries,
        }
        if tol is not None:
            d["shortfall_prob"] = self.shortfall_prob(tol)
            d["tol"] = tol
        return d


_QUANTS = (0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99)


def simulate(model: ModelSpec, strategy: StrategyMap, adversary, t0, x0, y0,
             n_paths: int, n_steps: int, seed: int) -> SimReport:
    """Euler-Maruyama game run with shared Brownian increments per path.

    Each step the adversary emits its control from (t_n, X_n) and its own
    random stream, the strategy reacts through the feedback rule, then X and
    Y advance on the same increments. Non-finite paths are excluded and
    counted.
    """
    if n_steps < 1:
        raise HedgeGameError("n_steps must be >= 1")
    T = model.horizon_T
    d = model.dim
    n_A = len(model.A_points)
    dt = (T - t0) / n_steps
    sqdt = np.sqrt(dt)
    ss = np.random.SeedSequence(int(seed))
    brown_ss, adv_ss = ss.spawn(2)
    rng_w = np.random.Generator(np.random.Philox(brown_ss))
    dW = rng_w.standard_normal((n_steps, n_paths, d)) * sqdt

    if isinstance(adversary, ConstantAdversary):
        if not 0 <= adversary.a_index < n_A:
            raise HedgeGameError(f"adversary index {adversary.a_index} out of range")
        plan = np.full((n_steps, n_paths), adversary.a_index, dtype=np.int64)
    elif isinstance(adversary, PiecewiseRandomAdversary):
        rng_a = np.random.Generator(np.random.Philox(adv_ss))
        switch_u = rng_a.random((n_steps, n_paths))
        choice_u = rng_a.random((n_steps, n_paths))
        p_switch = 1.0 - np.exp(-adversary.switch_rate * dt)
        plan = PiecewiseRandomAdversary.controls_from_draws(switch_u, choice_u, n_A, p_switch)
    elif isinstance(adversary, MarkovWorstAdversary):
        if adversary.surface.a_count != n_A:
            raise HedgeGameError("worst-case adversary needs an unshaken policy surface")
        plan = None
    else:
        raise HedgeGameError(f"unknown adversary {adversary!r}")

    X = np.tile(np.asarray(x0, dtype=float).reshape(1, d), (n_paths, 1))
    Y = np.full(n_paths, float(y0))
    clamp_before = strategy.clamped
    for n in range(n_steps):
        t_n = t0 + n * dt
        if plan is not None:
            a_idx = plan[n]
        else:
            a_idx = _worst_lookup(adversary.surface, t_n, X)
        for j in range(n_A):
            mask = a_idx == j
            if not np.any(mask):
                continue
            a = model.A_points[j]
            xm, ym, wm = X[mask], Y[mask], dW[n][mask]
            u = strategy.rule(t_n, xm, ym, a)
            mu = np.asarray(model.mu_X(t_n, xm, a), dtype=float)
            sig = np.asarray(model.sigma_X(t_n, xm, a), dtype=float)
            muY = np.asarray(model.mu_Y(t_n, xm, ym, u, a), dtype=float)
            sgY = np.asarray(model.sigma_Y(t_n, xm, ym, u, a), dtype=float)
            X[mask] = xm + mu * dt + np.einsum("...ij,...j->...i", sig, wm)
            Y[mask] = ym + muY * dt + np.einsum("...i,...i->...", sgY, wm)

    finite = np.isfinite(Y) & np.all(np.isfinite(X), axis=1)
    excluded = int(n_paths - finite.sum())
    g = np.asarray(model.payoff_g(X[finite]), dtype=float)
    gap = Y[finite] - g
    shortfall = np.maximum(-gap, 0.0)
    quants = {f"q{int(100 * q):02d}": float(np.quantile(gap, q)) for q in _QUANTS} if gap.size else {}
    return SimReport(
        n_paths=n_paths,
        n_steps=n_steps,
        seed=int(seed),
        t0=float(t0),
        x0=tuple(np.asarray(x0, dtype=float).reshape(-1)),
        y0=float(y0),
        adversary=adversary.label(),
        shortfall_mean=float(shortfall.mean()) if shortfall.size else 0.0,
        quantiles=quants,
        excluded_paths=excluded,
        clamped_queries=strategy.clamped - clamp_before,
        shortfall=shortfall,
        terminal_gap=gap,
    )


# ---------------------------------------------------------------------------
# super-hedge verification
# ---------------------------------------------------------------------------


@dataclass
class SimParams:
    x0: Sequence
    t0: float = 0.0
    paths: int = 10_000
    steps: int = 400
    seed: int = 7
    tol_sim: float = 0.02
    p_sim: float = 0.05
    switch_rate: float = 4.0

    def to_dict(self):
        return {
            "x0": list(np.asarray(self.x0, dtype=float).reshape(-1)),
            "t0": self.t0, "paths": self.paths, "steps": self.steps,
            "seed": self.seed, "tol_sim": self.tol_sim, "p_sim": self.p_sim,
            "switch_rate": self.switch_rate,
        }


@dataclass
class CheckReport:
    passed: bool
    y0: float
    margin: float
    tol_sim: float
    p_sim: float
    reports: list

    def to_dict(self):
        return {
            "passed": bool(self.passed),
            "y0": self.y0,
            "margin": self.margin,
            "tol_sim": self.tol_sim,
            "p_sim": self.p_sim,
            "runs": [r.to_dict(self.tol_sim) for r in self.reports],
        }


def superhedge_check(model: ModelSpec, source, margin: float, sim: SimParams,
                     policy_surface: hjb.ValueSurface | None = None) -> CheckReport:
    """Start from the surface value plus margin and face every adversary.

    Runs the feedback hedge against each constant adverse point, a randomly
    switching adversary and the worst-case policy feedback, all on the same
    Brownian increments (shared-seed coupling). PASS iff every run keeps
    shortfall_prob(tol_sim) <= p_sim over at least one path, with no
    excluded paths; a run without a finite path is no evidence and fails.
    """
    strategy = make_strategy(source, model)
    y0 = strategy.value(sim.t0, np.asarray(sim.x0, dtype=float).reshape(1, -1)) + margin
    adversaries = [ConstantAdversary(i) for i in range(len(model.A_points))]
    adversaries.append(PiecewiseRandomAdversary(sim.switch_rate))
    pol_src = policy_surface
    if pol_src is None and isinstance(source, hjb.ValueSurface) \
            and source.a_count == len(model.A_points):
        pol_src = source
    if pol_src is not None:
        adversaries.append(MarkovWorstAdversary(pol_src))
    reports = []
    ok = True
    for adv in adversaries:
        rep = simulate(model, strategy, adv, sim.t0, np.asarray(sim.x0, dtype=float),
                       y0, sim.paths, sim.steps, sim.seed)
        reports.append(rep)
        if rep.excluded_paths > 0 or rep.shortfall.size == 0 \
                or rep.shortfall_prob(sim.tol_sim) > sim.p_sim:
            ok = False
    return CheckReport(ok, float(y0), float(margin), sim.tol_sim, sim.p_sim, reports)

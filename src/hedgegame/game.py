"""Feedback hedging strategies and adversarial Monte Carlo verification.

A strategy map turns a solved (or certified smooth) surface into the
Markovian hedge u = u_hat(t, X, Y, z, a) whose wealth-diffusion row is
z = sigma_X^T Dw; in the finance preset this collapses to the delta rule
u = Dw independently of wealth and of the adverse control. Simulation runs
the game under Euler-Maruyama with shared Brownian increments against
constant, randomly switching and worst-case-feedback adversaries, and
reports terminal shortfall statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import hjb, regularize
from .model import HedgeGameError, ModelSpec, coefficients_at


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
        return float(self.source.value(tc, xc[0]))

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

    The increments are drawn from ``seed`` before play, so every adversary
    run with one seed meets the same draws. Each step the adversary emits
    its control from (t_n, X_n) and its own random stream, the strategy
    reads the surface gradient once for all paths, then each adverse
    point's paths make one frozen coefficient read (``coefficients_at``)
    and X and Y advance on the same increments. Paths are split per adverse
    point by integer indices, and not at all when one point holds them all.
    Y diffuses with z = sigma_X^T Dw, the row the hedge u_hat(z) matches
    (``validate_assumptions``: ``inversion_u_hat``), and drifts with the
    hedged drift at z. Non-finite paths are excluded and counted. A run
    needs n_paths >= 1.
    """
    if n_paths < 1:
        raise HedgeGameError(f"a game run needs n_paths >= 1, got {n_paths}")
    dW = _increments(model, t0, n_paths, n_steps, seed)
    return _play(model, strategy, adversary, t0, x0, y0, dW, seed)


def _increments(model: ModelSpec, t0, n_paths, n_steps, seed):
    """The (n_steps, n_paths, d) Brownian increments of a game run on
    [t0, T]: the first stream spawned from ``seed``."""
    if n_steps < 1 or n_paths < 0:
        raise HedgeGameError(f"n_steps >= 1 and n_paths >= 0 required, got {n_steps} and {n_paths}")
    T = model.horizon_T
    if not t0 < T:
        raise HedgeGameError(f"start time t0 = {t0} must be below the horizon T = {T}")
    brown_ss, _ = np.random.SeedSequence(int(seed)).spawn(2)
    dW = np.random.Generator(np.random.Philox(brown_ss)).standard_normal((n_steps, n_paths, model.dim))
    dW *= np.sqrt((T - t0) / n_steps)
    return dW


def _play(model, strategy, adversary, t0, x0, y0, dW, seed) -> SimReport:
    """``simulate`` on the increments ``dW``; the adversary draws from the
    second stream spawned from ``seed``."""
    n_steps, n_paths, d = dW.shape
    n_A = len(model.A_points)
    dt = (model.horizon_T - t0) / n_steps

    _check_adversary(adversary, n_A)
    if isinstance(adversary, ConstantAdversary):
        controls = lambda n, X: adversary.a_index
    elif isinstance(adversary, PiecewiseRandomAdversary):
        _, adv_ss = np.random.SeedSequence(int(seed)).spawn(2)
        rng_a = np.random.Generator(np.random.Philox(adv_ss))
        switch_u = rng_a.random((n_steps, n_paths))
        choice_u = rng_a.random((n_steps, n_paths))
        p_switch = 1.0 - np.exp(-adversary.switch_rate * dt)
        plan = PiecewiseRandomAdversary.controls_from_draws(switch_u, choice_u, n_A, p_switch)
        controls = lambda n, X: plan[n]
    elif isinstance(adversary, MarkovWorstAdversary):
        controls = lambda n, X: _worst_lookup(adversary.surface, t0 + n * dt, X)
    else:
        raise HedgeGameError(f"unknown adversary {adversary!r}")

    X = np.tile(np.asarray(x0, dtype=float).reshape(1, d), (n_paths, 1))
    Y = np.full(n_paths, float(y0))
    clamp_before = strategy.clamped
    for n in range(n_steps):
        t_n = t0 + n * dt
        a_idx = controls(n, X)
        grad = strategy.gradient(t_n, X)
        for j, rows in _split(a_idx, n_A):
            xm, ym, wm = X[rows], Y[rows], dW[n][rows]
            mu, sig, drift = coefficients_at(model, t_n, xm, model.A_points[j])
            z = np.einsum("...ji,...j->...i", sig, grad[rows])
            # Y first: xm is a view of X when one point holds every path, and a
            # closure may return views of its x, which the drift's read keeps
            Y[rows] = ym + drift(ym, z) * dt + np.einsum("...i,...i->...", z, wm)
            X[rows] = xm + mu * dt + np.einsum("...ij,...j->...i", sig, wm)

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


def _check_adversary(adversary, n_A):
    """Raise HedgeGameError for an adversary that cannot play n_A adverse points."""
    if isinstance(adversary, ConstantAdversary) and not 0 <= adversary.a_index < n_A:
        raise HedgeGameError(f"adversary index {adversary.a_index} out of range")
    if isinstance(adversary, MarkovWorstAdversary) and adversary.surface.a_count != n_A:
        raise HedgeGameError("worst-case adversary needs an unshaken policy surface")


def _split(a_idx, n_A):
    """(adverse index, path rows) for each adverse point that holds paths
    under the controls ``a_idx``: integer indices, or a slice of every path
    (a view, no gather) when one point holds them all."""
    if np.ndim(a_idx) == 0:
        return [(int(a_idx), slice(None))]
    parts = []
    for j in range(n_A):
        rows = np.flatnonzero(a_idx == j)
        if rows.size == a_idx.size:
            return [(j, slice(None))]
        if rows.size:
            parts.append((j, rows))
    return parts


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
    Brownian increments, drawn once: each run is the ``simulate`` run with
    the same arguments, bit for bit. With one adverse point every adversary
    plays it, so the check plays once and reports that run per adversary.
    PASS iff every run keeps shortfall_prob(tol_sim) <= p_sim over at least
    one path, with no excluded paths; a run without a finite path (zero
    paths included) is no evidence and fails.
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
    dW = _increments(model, sim.t0, sim.paths, sim.steps, sim.seed)
    x0 = np.asarray(sim.x0, dtype=float)
    if len(model.A_points) == 1:
        # every adversary plays the one adverse point on the same increments
        for adv in adversaries:
            _check_adversary(adv, 1)
        rep = _play(model, strategy, adversaries[0], sim.t0, x0, y0, dW, sim.seed)
        reports = [replace(rep, adversary=adv.label()) for adv in adversaries]
    else:
        reports = [_play(model, strategy, adv, sim.t0, x0, y0, dW, sim.seed) for adv in adversaries]
    ok = not any(rep.excluded_paths > 0 or rep.shortfall.size == 0
                 or rep.shortfall_prob(sim.tol_sim) > sim.p_sim for rep in reports)
    return CheckReport(ok, float(y0), float(margin), sim.tol_sim, sim.p_sim, reports)

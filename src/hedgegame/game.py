"""Feedback hedging strategies and adversarial Monte Carlo verification.

A strategy map turns a solved (or certified smooth) surface into the
Markovian hedge u = u_hat(t, X, Y, sigma_X^T Dw, a), which in the two-rate
market is the delta u = Dw, whatever the wealth and the adverse control:
the game hedges with the surface gradient itself. Simulation runs
the game under Euler-Maruyama with shared Brownian increments against
constant, randomly switching and worst-case-feedback adversaries, and
reports terminal shortfall statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import hjb, regularize
from .model import HedgeGameError, ModelSpec, _regular, market_read, plain, read_site, wealth_drift


class StrategyMap:
    """Feedback rule (t, x, y, a) -> hedge control, read off a surface.

    Gradient queries outside the surface domain are clamped to its boundary
    and counted in ``clamped``.
    """

    def __init__(self, source):
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
        """Hedge controls for a batch of paths under one adverse point: the
        delta, the surface gradient, whatever the wealth ys and the point a."""
        return self.gradient(t, xs)


def make_strategy(source) -> StrategyMap:
    """Wrap a value surface or smooth supersolution as a feedback hedge."""
    return StrategyMap(source)


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
    def step(current, switch_u, choice_u, n_points, p_switch):
        """One step of the switching rule on one row of draws per path:
        a path whose switch draw falls below p_switch (every path at the
        first step, ``current`` None) takes the point its choice draw picks.

        Non-anticipativity holds by construction: step n reads only the
        draws of steps up to n.
        """
        fresh = np.minimum((choice_u * n_points).astype(np.int64), n_points - 1)
        return fresh if current is None else np.where(switch_u < p_switch, fresh, current)


@dataclass(frozen=True)
class MarkovWorstAdversary:
    """Plays the argmin field of a solved surface (the worst-case policy),
    read at the nearest node (``ValueSurface.policy_at``)."""

    surface: hjb.ValueSurface

    def label(self):
        return "worst"


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
        return float(np.mean(~(self.shortfall <= tol)))  # a NaN tol counts every path

    def to_dict(self, tol: float | None = None):
        """The run without its per-path arrays; with a tol, also its shortfall probability at tol."""
        return plain(self) if tol is None else plain(self, shortfall_prob=self.shortfall_prob(tol), tol=tol)


_QUANTS = (0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99)


def simulate(model: ModelSpec, strategy: StrategyMap, adversary, t0, x0, y0,
             n_paths: int, n_steps: int, seed: int) -> SimReport:
    """Euler-Maruyama game run with shared Brownian increments per path.

    The increments are drawn step by step as play goes, from one stream of
    ``seed`` (``_increments``), so every adversary run with one seed meets
    the same draws. Each step the adversary emits its control from
    (t_n, X_n) and its own random stream, the strategy reads the surface
    gradient once for all paths, then each adverse point's paths make one
    frozen coefficient read (``market_read``) and X and Y advance on the
    same increments. Paths are split per adverse point by integer indices,
    and not at all when one point holds them all. The hedge is the delta
    u = Dw: with dX = mu dt + sigma dW, Y moves by the wealth drift at u
    times dt plus u.(sigma dW). A singular sigma on a path raises ModelError
    naming its (t, x, a). Non-finite paths are excluded and counted. A run
    needs n_paths >= 1.
    """
    if n_paths < 1:
        raise HedgeGameError(f"a game run needs n_paths >= 1, got {n_paths}")
    return _play(model, strategy, [adversary], t0, x0, y0, n_paths, n_steps, seed)[0]


def _increments(model: ModelSpec, t0, n_paths, n_steps, seed):
    """The Brownian increments of a game run on [t0, T]: a generator of one
    (n_paths, d) array per step, each drawn when it is read, from the first
    stream spawned from ``seed``. They are the rows of the
    (n_steps, n_paths, d) block that stream gives in one draw, bit for bit.
    The arguments are checked on the call, before any step is read."""
    if n_steps < 1 or n_paths < 0:
        raise HedgeGameError(f"n_steps >= 1 and n_paths >= 0 required, got {n_steps} and {n_paths}")
    T = model.horizon_T
    if not t0 < T:
        raise HedgeGameError(f"start time t0 = {t0} must be below the horizon T = {T}")
    brown_ss, _ = np.random.SeedSequence(int(seed)).spawn(2)
    rng = np.random.Generator(np.random.Philox(brown_ss))
    scale = np.sqrt((T - t0) / n_steps)

    def steps():
        for _ in range(n_steps):
            w = rng.standard_normal((n_paths, model.dim))
            w *= scale
            yield w

    return steps()


def _controls(adversary, n_A, t0, dt, n_paths, n_steps, seed):
    """The adversary's rule (n, X_n) -> adverse indices, read once per step
    in step order. The random adversary draws from the second stream
    spawned from ``seed``: its switch rows for every step, then its choice
    rows. Two Philox generators read that stream step by step, the second
    skipped past the switch rows (``advance`` counts blocks of four 64-bit
    outputs, one per uniform), so the rows are those of the two
    (n_steps, n_paths) blocks the stream gives in one draw, bit for bit."""
    if isinstance(adversary, ConstantAdversary):
        return lambda n, X: adversary.a_index
    if isinstance(adversary, MarkovWorstAdversary):
        return lambda n, X: adversary.surface.policy_at(t0 + n * dt, X)
    if not isinstance(adversary, PiecewiseRandomAdversary):
        raise HedgeGameError(f"unknown adversary {adversary!r}")
    _, adv_ss = np.random.SeedSequence(int(seed)).spawn(2)
    switch = np.random.Generator(np.random.Philox(adv_ss))
    choice = np.random.Generator(np.random.Philox(adv_ss).advance(n_steps * n_paths // 4))
    choice.random(n_steps * n_paths % 4)
    p_switch = 1.0 - np.exp(-adversary.switch_rate * dt)
    current = None

    def controls(n, X):
        nonlocal current
        current = PiecewiseRandomAdversary.step(current, switch.random(n_paths),
                                                choice.random(n_paths), n_A, p_switch)
        return current

    return controls


def _play(model, strategy, adversaries, t0, x0, y0, n_paths, n_steps, seed) -> list:
    """One ``simulate`` report per adversary, every run advanced in one loop
    over steps: each step's increments are drawn once and every run meets
    them. With one adverse point every adversary plays it, so one run plays
    and its report goes out under each adversary's label. A clamped query
    counts in the run that made it."""
    steps = _increments(model, t0, n_paths, n_steps, seed)
    n_A = len(model.A_points)
    dt = (model.horizon_T - t0) / n_steps
    for adv in adversaries:
        _check_adversary(adv, n_A)
    runs = adversaries[:1] if n_A == 1 else adversaries
    controls = [_controls(adv, n_A, t0, dt, n_paths, n_steps, seed) for adv in runs]
    start = np.asarray(x0, dtype=float).reshape(1, model.dim)
    Xs = [np.tile(start, (n_paths, 1)) for _ in runs]
    Ys = [np.full(n_paths, float(y0)) for _ in runs]
    clamped = [0] * len(runs)
    for n, w in enumerate(steps):
        t_n = t0 + n * dt
        for r, (X, Y) in enumerate(zip(Xs, Ys)):
            a_idx = controls[r](n, X)
            before = strategy.clamped
            grad = strategy.gradient(t_n, X)
            clamped[r] += strategy.clamped - before
            for j, rows in _split(a_idx, n_A):
                xm, ym, u, a = X[rows], Y[rows], grad[rows], model.A_points[j]
                read = market_read(model.finance, t_n, xm, a)
                dx = np.einsum("...ij,...j->...i", _regular(read[1], *read_site(t_n, xm, a)), w[rows])
                # Y first: xm is a view of X when one point holds every path, and a
                # closure may return views of its x, which the read keeps
                Y[rows] = ym + wealth_drift(*read)(ym, u) * dt + np.einsum("...i,...i->...", u, dx)
                X[rows] = xm + read[0] * dt + dx
    reports = [_report(model, adv, t0, x0, y0, X, Y, n_steps, seed, c)
               for adv, X, Y, c in zip(runs, Xs, Ys, clamped)]
    if n_A == 1:
        reports = [replace(reports[0], adversary=adv.label()) for adv in adversaries]
    return reports


def _report(model, adversary, t0, x0, y0, X, Y, n_steps, seed, clamped) -> SimReport:
    n_paths = len(Y)
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
        clamped_queries=clamped,
        shortfall=shortfall,
        terminal_gap=gap,
    )


def _check_adversary(adversary, n_A):
    """Raise HedgeGameError for an adversary that cannot play n_A adverse points."""
    if isinstance(adversary, ConstantAdversary) and not 0 <= adversary.a_index < n_A:
        raise HedgeGameError(f"adversary index {adversary.a_index} out of range")
    if isinstance(adversary, MarkovWorstAdversary) and getattr(adversary.surface, "a_count", 0) != n_A:
        raise HedgeGameError("worst-case adversary needs the policy grid of an unshaken solve")


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


@dataclass
class CheckReport:
    passed: bool
    y0: float
    margin: float
    tol_sim: float
    p_sim: float
    reports: list

    def to_dict(self):
        """The check with its ``reports`` under "runs", each with its shortfall probability at tol_sim."""
        d = plain(self, runs=[r.to_dict(self.tol_sim) for r in self.reports])
        del d["reports"]
        return d


def superhedge_check(model: ModelSpec, source, margin: float, sim: SimParams,
                     policy_surface: hjb.ValueSurface | None = None, *,
                     y0: float | None = None) -> CheckReport:
    """Start from y0, by default the surface value plus margin, and face every adversary.

    Runs the feedback hedge against each constant adverse point, a randomly
    switching adversary and the worst-case policy feedback. All runs advance
    in one loop over steps, and each step's Brownian increments are drawn
    once, from the one stream of the seed, and shared by every run: each
    run is the ``simulate`` run with the same arguments, bit for bit. With
    one adverse point every adversary plays it, so the check plays once and
    reports that run per adversary.
    PASS iff every run keeps shortfall_prob(tol_sim) <= p_sim over at least
    one path, with no excluded paths; a run without a finite path (zero
    paths included) is no evidence and fails, and so does a NaN p_sim or
    tol_sim.
    """
    strategy = make_strategy(source)
    if y0 is None:
        y0 = strategy.value(sim.t0, np.asarray(sim.x0, dtype=float).reshape(1, -1)) + margin
    adversaries = [ConstantAdversary(i) for i in range(len(model.A_points))]
    adversaries.append(PiecewiseRandomAdversary(sim.switch_rate))
    pol_src = policy_surface
    if pol_src is None and isinstance(source, hjb.ValueSurface) \
            and source.a_count == len(model.A_points):
        pol_src = source
    if pol_src is not None:
        adversaries.append(MarkovWorstAdversary(pol_src))
    reports = _play(model, strategy, adversaries, sim.t0, np.asarray(sim.x0, dtype=float), y0,
                    sim.paths, sim.steps, sim.seed)
    ok = not any(rep.excluded_paths > 0 or rep.shortfall.size == 0
                 or not rep.shortfall_prob(sim.tol_sim) <= sim.p_sim for rep in reports)
    return CheckReport(ok, float(y0), float(margin), sim.tol_sim, sim.p_sim, reports)

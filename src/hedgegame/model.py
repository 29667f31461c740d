"""Coefficient model of the worst-case hedging game.

The controlled state is (X, Y): X in R^d holds the log-prices and reacts
only to the adverse control a, the scalar wealth Y reacts to both the hedge
u (in R^d) and a. The adverse control ranges over a finite list
``A_points``; the hedge control is never enumerated, because the hedge
(sigma^-1)^T z is the unique u whose wealth-diffusion row is z.

A model is its ``FinanceSpec``: the drift, volatility and two cash rates of
a two-rate market, each a function of (t, x, a) vectorised over the leading
axes of x (x: (n, d) -> mu (n, d), sigma (n, d, d), rates (n,)). ``t`` is a
python float and ``a`` one entry of ``A_points``. Closures must be row-wise
pure: row i of the output depends only on row i of the inputs, because a
batch may stack probes or gather a subset of paths. Every solver reads a
model through ``market_read`` once per (t, x, a) for all fixed-point rounds
(``coefficients_at``; the sweep compares each pair's raw read with the kept
reads of its adverse point and with the pair's read of the last layer that
kept it, and derives the hedged drift with ``market_drift`` only when that
read changed, so the arrays the spec's closures return must not be written
to later). ``coefficients_at`` and ``min_generator_field`` also take a 1-d
numpy array of times; they still call every closure once per time, with
that time as a python float.

``make_finance_model`` also builds the closure form of the game,

    mu_X(t, x, a)           x: (n, d)            -> (n, d)
    sigma_X(t, x, a)        x: (n, d)            -> (n, d, d)
    mu_Y(t, x, y, u, a)     y: (n,), u: (n, d)   -> (n,)
    sigma_Y(t, x, y, u, a)                       -> (n, d)
    u_hat(t, x, y, z, a)    z: (n, d)            -> (n, d)

and no solver reads it. Its readers are ``ModelSpec.hash`` (for a model
without a config), the standing-assumption checks (``frozen_read_matches``
checks the closures against the read, so a ``dataclasses.replace`` copy that
changes a closure but keeps ``finance`` fails ``validate_assumptions``),
``StrategyMap.rule``, test oracles and call tracers.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np


class HedgeGameError(Exception):
    """Base class for errors raised by this package."""


class ModelError(HedgeGameError):
    """Ill-posed model definition (singular volatility, bad shapes, ...)."""


# ---------------------------------------------------------------------------
# core data types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FinanceSpec:
    """Market inputs of the two-rate preset.

    ``mu`` and ``sigma`` are the drift/volatility of the log-prices,
    ``r_lend``/``r_borrow`` the cash rates, all functions of (t, x, a).
    ``sigma`` must be invertible wherever it is evaluated.
    """

    mu: Callable
    sigma: Callable
    r_lend: Callable
    r_borrow: Callable


@dataclass(frozen=True)
class ModelSpec:
    dim: int
    mu_X: Callable
    sigma_X: Callable
    mu_Y: Callable
    sigma_Y: Callable
    u_hat: Callable
    payoff_g: Callable
    A_points: tuple
    horizon_T: float
    lipschitz_K: float
    finance: FinanceSpec
    config: dict | None = field(default=None, compare=False)

    def __post_init__(self):
        if not isinstance(self.finance, FinanceSpec):
            raise ModelError(f"a model needs a FinanceSpec, got {type(self.finance).__name__}")
        if self.dim < 1:
            raise ModelError("dim must be a positive integer")
        if len(self.A_points) == 0:
            raise ModelError("A_points must be nonempty")
        if not self.horizon_T > 0:
            raise ModelError("horizon_T must be positive")
        if not self.lipschitz_K > 0:
            raise ModelError("lipschitz_K must be positive")
        pts = tuple(np.asarray(a, dtype=float).reshape(-1) for a in self.A_points)
        object.__setattr__(self, "A_points", pts)

    @cached_property
    def hash(self) -> str:
        """Stable fingerprint: the canonical config when the model was built
        from one, else coefficient samples at fixed probe points."""
        if self.config is not None:
            blob = json.dumps(self.config, sort_keys=True).encode()
            return hashlib.sha256(blob).hexdigest()[:16]
        rng = np.random.default_rng(1234567)
        n = 8
        x = rng.normal(0.0, 1.0, (n, self.dim))
        y = rng.normal(0.0, 1.0, n)
        z = rng.normal(0.0, 1.0, (n, self.dim))
        u = rng.normal(0.0, 1.0, (n, self.dim))
        chunks = [np.asarray([self.dim, self.horizon_T, self.lipschitz_K], dtype=float)]
        chunks.extend(self.A_points)
        for t in (0.0, 0.5 * self.horizon_T):
            for a in self.A_points:
                chunks.append(np.asarray(self.mu_X(t, x, a), dtype=float).ravel())
                chunks.append(np.asarray(self.sigma_X(t, x, a), dtype=float).ravel())
                chunks.append(np.asarray(self.mu_Y(t, x, y, u, a), dtype=float).ravel())
                chunks.append(np.asarray(self.sigma_Y(t, x, y, u, a), dtype=float).ravel())
                chunks.append(np.asarray(self.u_hat(t, x, y, z, a), dtype=float).ravel())
        chunks.append(np.asarray(self.payoff_g(x), dtype=float).ravel())
        h = hashlib.sha256()
        for c in chunks:
            h.update(np.ascontiguousarray(c, dtype="<f8").tobytes())
        return h.hexdigest()[:16]


@dataclass(frozen=True)
class DerivativePack:
    """Value/derivative bundle (y, q, p, M) fed to the generators.

    y is the candidate value, q its time derivative, p the spatial gradient
    and M the (symmetric) spatial Hessian.
    """

    y: float
    q: float
    p: np.ndarray
    M: np.ndarray

    def __post_init__(self):
        p = np.atleast_1d(np.asarray(self.p, dtype=float))
        M = np.atleast_2d(np.asarray(self.M, dtype=float))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "M", M)
        if M.shape[0] != M.shape[1] or M.shape[0] != p.shape[0]:
            raise ModelError(f"inconsistent pack shapes p={p.shape} M={M.shape}")
        if np.max(np.abs(M - M.T)) > 1e-12:
            raise ModelError("Hessian M must be symmetric to 1e-12")


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def rho(t, x, y, u, finance: FinanceSpec, a=None):
    """Cash financing term: lend the positive balance, borrow the negative.

    Returns [y - u.1]+ r_lend - [y - u.1]- r_borrow with the rates taken at
    (t, x, a); the adverse point may also be baked into the rate closures by
    the caller, in which case ``a`` stays None.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    cash = np.asarray(y, dtype=float) - u.sum(axis=-1)
    rl = np.asarray(finance.r_lend(t, x, a), dtype=float)
    rb = np.asarray(finance.r_borrow(t, x, a), dtype=float)
    return _financing(cash, rl, rb)


def _financing(cash, rl, rb):
    return np.maximum(cash, 0.0) * rl - np.maximum(-cash, 0.0) * rb


def _per_time(f, t, x, a):
    """f(t, x, a) as a float array; a 1-d array ``t`` calls f once per time,
    with a python float, and stacks the results on a leading time axis."""
    if not isinstance(t, np.ndarray):
        return np.asarray(f(t, x, a), dtype=float)
    return np.stack([np.asarray(f(float(s), x, a), dtype=float) for s in t])


def market_read(finance: FinanceSpec, t, x, a):
    """The raw market read (mu, sigma, r_lend, r_borrow) at (t, x, a), float
    arrays; every coefficient of a finance model derives from it."""
    return (_per_time(finance.mu, t, x, a), _per_time(finance.sigma, t, x, a),
            _per_time(finance.r_lend, t, x, a), _per_time(finance.r_borrow, t, x, a))


def _wealth(mu, sig, rl, rb):
    """The wealth drift u -> (y -> u.(mu + gamma/2) + rho) of one market read;
    the terms in u alone are computed once per u."""
    mg = mu + 0.5 * np.einsum("...ij,...ij->...i", sig, sig)

    def wealth(u):
        gain, held = (u * mg).sum(axis=-1), u.sum(axis=-1)
        return lambda y: gain + _financing(np.asarray(y, dtype=float) - held, rl, rb)

    return wealth


def _hedge_map(sig, t, x, a):
    """z -> (sigma^-1)^T z on the batch axes x.shape[:-1], led by a time axis
    for a 1-d array t, z rows or a stack of them: a division in d = 1, else
    a LAPACK solve. A singular sigma raises ModelError naming its time and
    node."""
    x2 = np.atleast_2d(np.asarray(x, dtype=float))
    lead = (len(t),) if isinstance(t, np.ndarray) else ()
    batch = lead + x2.shape[:-1]
    if sig.shape[:-2] != batch:
        sig = np.broadcast_to(sig, batch + sig.shape[-2:])

    def singular(flat):
        i = np.unravel_index(flat, batch)
        at = float(t[i[0]]) if lead else t
        return ModelError(f"singular volatility at t={at}, x={x2[i[len(lead):]]}, a={np.asarray(a)}")

    if sig.shape[-1] == 1:
        s = sig[..., 0, 0][..., None]
        zero = s[..., 0] == 0.0
        if np.any(zero):
            raise singular(int(np.argmax(zero)))
        return lambda z: z / s

    def solve(z):
        try:
            return np.linalg.solve(np.swapaxes(sig, -1, -2), z[..., None])[..., 0]
        except np.linalg.LinAlgError:
            raise singular(int(np.argmin(np.abs(np.linalg.det(sig))))) from None

    return solve


def u_hat_finance(t, x, y, z, a, finance: FinanceSpec):
    """Hedge recovering diffusion row z: u = (sigma^-1)^T z."""
    x2 = np.atleast_2d(np.asarray(x, dtype=float))
    sig = np.asarray(finance.sigma(t, x2, a), dtype=float)
    return _hedge_map(sig, t, x2, a)(np.atleast_2d(np.asarray(z, dtype=float)))


def coefficients_at(model: ModelSpec, t, x, a):
    """(mu, sigma, drift) of the market read at (t, x, a), drift(y, z) the
    hedged wealth drift on z rows or on a stack (k,) + x.shape of them. A
    1-d array ``t`` adds a leading time axis to the coefficients, and y and
    z carry it in front of x's rows: the read is once per time, the drift
    one expression for all times."""
    x = np.asarray(x, dtype=float)
    read = market_read(model.finance, t, x, a)
    at = market_drift(read, t, x, a)
    return read[0], read[1], lambda y, z: at(z)(y)


def market_drift(read, t, x, a):
    """The hedged wealth drift z -> (y -> drift) of a finance model's
    ``market_read`` at (t, x, a): the hedge and the terms in it alone are
    computed once per z, so a round at a fixed z redoes only rho."""
    wealth, hedge = _wealth(*read), _hedge_map(read[1], t, x, a)
    return lambda z: wealth(hedge(z))


def mu_Y_hat(t, x, y, z, a, model: ModelSpec):
    """Wealth drift at the z-matching hedge: mu_Y(., u_hat(., z, .), .)."""
    return coefficients_at(model, t, x, a)[2](y, z)


def base_point(t, x, b, T):
    """Base point (t, x) + b with time clamped to [0, T]; b None is no shift.
    ``t`` is a float or a 1-d numpy array of times.

    The clamp extends every coefficient constantly in time past the horizon.
    """
    if b is not None:
        t, x = t + b[0], x + b[1:]
    return (np.clip(t, 0.0, T) if isinstance(t, np.ndarray) else min(max(t, 0.0), T)), x


def shake_lattice(eps: float, dim: int) -> np.ndarray:
    """Discretised shake ball: {-eps, 0, eps}^(dim+1) cut to radius eps.

    Always contains the origin; for eps = 0 it is exactly {0}.
    """
    if eps < 0:
        raise ModelError("eps must be nonnegative")
    if eps == 0.0:
        return np.zeros((1, dim + 1))
    axes = [np.array([-eps, 0.0, eps])] * (dim + 1)
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim + 1)
    keep = np.sqrt((mesh**2).sum(axis=1)) <= eps + 1e-15
    pts = mesh[keep]
    order = np.lexsort(pts.T[::-1])
    return pts[order]


def adverse_pairs(model: ModelSpec, shake_points=None) -> list:
    """(a, b) pairs in A-major order, b None without ``shake_points``.

    Policy and argmin indices of the solve and the generator index this list.
    """
    if shake_points is None:
        return [(a, None) for a in model.A_points]
    shakes = np.atleast_2d(np.asarray(shake_points, dtype=float))
    return [(a, b) for a in model.A_points for b in shakes]


def min_generator_field(model: ModelSpec, t, X, y, q, p, M, pairs=None):
    """Worst-case generator over a field of derivative packs: (min, argmin).

    Each pair (a, b) contributes La at the shifted base point (t, X) + b:
    mu_Y_hat(., y, sigma_X^T p, a) - q - mu_X.p - 1/2 sigma_X sigma_X^T : M.
    The transposed volatility in the z-slot is what makes the finance preset
    collapse to the delta rule u = p. ``pairs`` defaults to the unshaken
    adverse set, giving L = min_a La; the pairs of a shake lattice give
    H_eps. Ties break to the lowest pair index.

    ``t`` may be a 1-d numpy array of layer times, with a leading layer axis
    on y, q, p and M over the one field X: each pair then reads its
    coefficients once per time and evaluates La once for all of them.
    """
    if pairs is None:
        pairs = adverse_pairs(model)
    best = idx = None
    for j, (a, b) in enumerate(pairs):
        t_b, X_b = base_point(t, X, b, model.horizon_T)
        mu, sig, drift = coefficients_at(model, t_b, X_b, a)
        Sig = np.einsum("...ik,...jk->...ij", sig, sig)
        z = np.einsum("...ji,...j->...i", sig, p)
        f = np.asarray(drift(y, z), dtype=float)
        val = f - q - np.einsum("...i,...i->...", mu, p) - 0.5 * np.einsum("...ij,...ij->...", Sig, M)
        if best is None:
            best, idx = val, np.zeros(val.shape, dtype=np.int32)
        else:
            take = val < best
            best = np.where(take, val, best)
            idx = np.where(take, j, idx)
    return best, idx


def _one_node(t, x, pack: DerivativePack, model: ModelSpec, pairs):
    """min_generator_field at the single node x, as (float, int)."""
    best, idx = min_generator_field(model, t, np.asarray(x, dtype=float).reshape(1, -1),
                                    np.asarray([pack.y]), pack.q, pack.p[None], pack.M[None], pairs)
    return float(best[0]), int(idx[0])


def operator_La(t, x, pack: DerivativePack, a, model: ModelSpec) -> float:
    """One-adversary generator La applied to a derivative pack."""
    return _one_node(t, x, pack, model, [(a, None)])[0]


def operator_L(t, x, pack: DerivativePack, model: ModelSpec):
    """Worst case over the adverse set: (min_a La, argmin index).

    Ties break to the lowest index in ``A_points`` so policy surfaces are
    deterministic.
    """
    return _one_node(t, x, pack, model, None)


def operator_H_eps(t, x, pack: DerivativePack, eps, shake_points, model: ModelSpec) -> float:
    """Shaken generator: min of La over adverse points and shifted base points.

    Shifted times are clamped to [0, horizon_T] (see ``base_point``).
    """
    if shake_points is None:
        shake_points = shake_lattice(eps, model.dim)
    shake_points = np.atleast_2d(np.asarray(shake_points, dtype=float))
    norms = np.sqrt((shake_points**2).sum(axis=1))
    if np.any(norms > eps + 1e-12):
        raise ModelError("shake_points must lie in the closed ball of radius eps")
    return _one_node(t, x, pack, model, adverse_pairs(model, shake_points))[0]


# ---------------------------------------------------------------------------
# finance preset
# ---------------------------------------------------------------------------


def make_finance_model(
    finance: FinanceSpec,
    payoff_g: Callable,
    dim: int,
    A_points: Sequence,
    horizon_T: float,
    lipschitz_K: float,
    config: dict | None = None,
) -> ModelSpec:
    """Two-rate market: X are log-prices, Y the wealth of the hedge.

    dY = u.(mu + gamma/2) dt + rho(., Y, u, .) dt + u^T sigma dW, so the
    diffusion row is sigma^T u and the matching hedge is (sigma^-1)^T z.
    """

    def mu_Y(t, x, y, u, a):
        wealth = _wealth(*market_read(finance, t, np.atleast_2d(np.asarray(x, dtype=float)), a))
        return wealth(np.atleast_2d(np.asarray(u, dtype=float)))(y)

    def sigma_Y(t, x, y, u, a):
        u2 = np.atleast_2d(np.asarray(u, dtype=float))
        x2 = np.atleast_2d(np.asarray(x, dtype=float))
        sig = np.asarray(finance.sigma(t, x2, a), dtype=float)
        out = np.einsum("...ji,...j->...i", sig, u2)
        return out if np.asarray(u).ndim > 1 else out[0]

    return ModelSpec(
        dim=dim,
        mu_X=lambda t, x, a: np.asarray(finance.mu(t, np.asarray(x, dtype=float), a), dtype=float),
        sigma_X=lambda t, x, a: np.asarray(finance.sigma(t, np.asarray(x, dtype=float), a), dtype=float),
        mu_Y=mu_Y,
        sigma_Y=sigma_Y,
        u_hat=lambda t, x, y, z, a: u_hat_finance(t, x, y, z, a, finance),
        payoff_g=payoff_g,
        A_points=tuple(A_points),
        horizon_T=horizon_T,
        lipschitz_K=lipschitz_K,
        finance=finance,
        config=config,
    )


def make_single_rate_model(finance: FinanceSpec, rate, payoff_g, dim, A_points,
                           horizon_T, lipschitz_K) -> ModelSpec:
    """Linear-financing oracle model: rho replaced by rate*(y - u.1)."""
    r = rate if callable(rate) else (lambda t, x, a, _r=rate: np.full(np.asarray(x).shape[:-1], float(_r)))
    fin = FinanceSpec(mu=finance.mu, sigma=finance.sigma, r_lend=r, r_borrow=r)
    return make_finance_model(fin, payoff_g, dim, tuple(A_points), horizon_T, lipschitz_K)


# ---------------------------------------------------------------------------
# named payoffs (price space; X holds log-prices, the first axis is priced)
# ---------------------------------------------------------------------------


def make_payoff(kind: str, **params) -> Callable:
    """Named terminal payoffs as functions of the first log-price.

    call/put/call_spread/covered_call carry ``strike`` (and ``cap``),
    digital_smoothed carries ``level`` and ``width``, constant a ``level``.
    """
    if kind == "constant":
        level = float(params["level"])
        return lambda x: np.full(np.asarray(x).shape[:-1], level)
    if kind == "call":
        k = float(params["strike"])
        return lambda x: np.maximum(np.exp(np.asarray(x, dtype=float)[..., 0]) - k, 0.0)
    if kind == "put":
        k = float(params["strike"])
        return lambda x: np.maximum(k - np.exp(np.asarray(x, dtype=float)[..., 0]), 0.0)
    if kind == "call_spread":
        k1 = float(params["strike"])
        k2 = float(params["cap"])
        if not k2 > k1:
            raise ModelError("call_spread needs cap > strike")

        def spread(x):
            s = np.exp(np.asarray(x, dtype=float)[..., 0])
            return np.maximum(s - k1, 0.0) - np.maximum(s - k2, 0.0)

        return spread
    if kind == "covered_call":
        k = float(params["strike"])
        return lambda x: np.minimum(np.exp(np.asarray(x, dtype=float)[..., 0]), k)
    if kind == "digital_smoothed":
        level = float(params["level"])
        width = float(params.get("width", 0.05))
        return lambda x: 1.0 / (1.0 + np.exp(-(np.exp(np.asarray(x, dtype=float)[..., 0]) - level) / width))
    if kind == "tabulated":
        xs = np.asarray(params["x"], dtype=float)
        vs = np.asarray(params["values"], dtype=float)
        if xs.ndim != 1 or xs.shape != vs.shape or len(xs) < 2:
            raise ModelError("tabulated payoff needs matching 1-d x/values")
        return lambda x: np.interp(np.asarray(x, dtype=float)[..., 0], xs, vs)
    raise ModelError(f"unknown payoff kind {kind!r}")


def _coeff_from_config(spec: dict, dim: int, kind: str, allow_tabulated: bool):
    """Build one named coefficient closure from its config stanza."""
    ctype = spec.get("type")
    if ctype == "constant":
        val = np.asarray(spec["value"], dtype=float)
        if kind == "sigma":
            mat = val * np.eye(dim) if val.ndim == 0 else val.reshape(dim, dim)
            return lambda t, x, a, _m=mat: np.broadcast_to(
                _m, np.asarray(x).shape[:-1] + (dim, dim)
            )
        if kind == "mu":
            vec = np.full(dim, float(val)) if val.ndim == 0 else val.reshape(dim)
            return lambda t, x, a, _v=vec: np.broadcast_to(_v, np.asarray(x).shape[:-1] + (dim,))
        return lambda t, x, a, _s=float(val): np.full(np.asarray(x).shape[:-1], _s)
    if ctype == "affine_in_a":
        if kind == "sigma":
            def sig(t, x, a):
                av = np.asarray(a, dtype=float).reshape(-1)
                d = np.diag(av) if av.size == dim else float(av[0]) * np.eye(dim)
                return np.broadcast_to(d, np.asarray(x).shape[:-1] + (dim, dim))
            return sig
        if kind == "mu":
            def mu(t, x, a):
                av = np.asarray(a, dtype=float).reshape(-1)
                v = av if av.size == dim else np.full(dim, float(av[0]))
                return np.broadcast_to(v, np.asarray(x).shape[:-1] + (dim,))
            return mu
        return lambda t, x, a: np.full(np.asarray(x).shape[:-1], float(np.asarray(a).reshape(-1)[0]))
    if ctype == "tabulated_x" and allow_tabulated:
        xs = np.asarray(spec["x"], dtype=float)
        vs = np.asarray(spec["values"], dtype=float)
        if kind == "sigma":
            def sig(t, x, a):
                s = np.interp(np.asarray(x, dtype=float)[..., 0], xs, vs)
                return s[..., None, None] * np.eye(dim)
            return sig
        if kind == "mu":
            def mu(t, x, a):
                s = np.interp(np.asarray(x, dtype=float)[..., 0], xs, vs)
                return np.broadcast_to(s[..., None], s.shape + (dim,))
            return mu
        return lambda t, x, a: np.interp(np.asarray(x, dtype=float)[..., 0], xs, vs)
    raise ModelError(f"unsupported coefficient type {spec.get('type')!r} for {kind}")


def model_from_config(cfg: dict) -> ModelSpec:
    """Build a ModelSpec from the ``model`` section of a run config."""
    kind = cfg.get("kind")
    if kind not in ("finance", "custom-tabulated"):
        raise ModelError(f"model.kind must be 'finance' or 'custom-tabulated', got {kind!r}")
    allow_tab = kind == "custom-tabulated"
    dim = int(cfg["dim"])
    A_points = [np.asarray(a, dtype=float) for a in cfg["A_points"]]
    fin_cfg = cfg["finance"]
    finance = FinanceSpec(
        mu=_coeff_from_config(fin_cfg["mu"], dim, "mu", allow_tab),
        sigma=_coeff_from_config(fin_cfg["sigma"], dim, "sigma", allow_tab),
        r_lend=_coeff_from_config(fin_cfg["r_lend"], dim, "rate", allow_tab),
        r_borrow=_coeff_from_config(fin_cfg["r_borrow"], dim, "rate", allow_tab),
    )
    pay_cfg = dict(cfg["payoff"])
    pay_kind = pay_cfg.pop("type")
    if pay_kind == "tabulated" and not allow_tab:
        raise ModelError("tabulated payoff requires model.kind == 'custom-tabulated'")
    payoff = make_payoff(pay_kind, **pay_cfg)
    return make_finance_model(
        finance,
        payoff,
        dim,
        A_points,
        float(cfg["horizon_T"]),
        float(cfg["lipschitz_K"]),
        config=json.loads(json.dumps(cfg)),
    )


# ---------------------------------------------------------------------------
# assumption validation
# ---------------------------------------------------------------------------


@dataclass
class AssumptionCheck:
    id: str
    passed: bool
    worst: float
    threshold: float
    witness: tuple | None = None

    def to_dict(self):
        return {
            "id": self.id,
            "passed": bool(self.passed),
            "worst": float(self.worst),
            "threshold": float(self.threshold),
            "witness": None if self.witness is None else [repr(w) for w in self.witness],
        }


@dataclass
class ValidationReport:
    checks: list

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self):
        return [c for c in self.checks if not c.passed]

    def __getitem__(self, cid: str) -> AssumptionCheck:
        for c in self.checks:
            if c.id == cid:
                return c
        raise KeyError(cid)

    def to_dict(self):
        return {"ok": self.ok, "checks": [c.to_dict() for c in self.checks]}

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            tag = "ok  " if c.passed else "FAIL"
            lines.append(f"{tag} {c.id:<28} worst={c.worst:.3e} thr={c.threshold:.3e}")
        return "\n".join(lines)


def validate_assumptions(model: ModelSpec, sample_count: int = 256, rng_seed: int = 0,
                         x_box: tuple = (-3.0, 3.0), y_range: tuple = (-5.0, 5.0)) -> ValidationReport:
    """Empirical spot-checks of the standing coefficient conditions.

    Samples random points/pairs and reports worst-case constants: Lipschitz
    and boundedness of (mu_X, sigma_X), y-Lipschitz and growth of
    (mu_Y, sigma_Y), the drift-to-diffusion ratio, linear growth of the
    hedged drift, midpoint concavity of (y,p) -> La(t,x,y,0,p,0), the z
    inversion identity, the closures against the read, rate ordering and the
    market-price-of-risk bounds. Violations are reported, not raised.
    """
    if sample_count < 1:
        raise ModelError("sample_count must be >= 1")
    rng = np.random.default_rng(rng_seed)
    n = int(sample_count)
    d = model.dim
    K = model.lipschitz_K
    T = model.horizon_T
    lo, hi = x_box
    ts = rng.uniform(0.0, T, 3)
    x1 = rng.uniform(lo, hi, (n, d))
    x2 = rng.uniform(lo, hi, (n, d))
    y1 = rng.uniform(*y_range, n)
    y2 = rng.uniform(*y_range, n)
    u = rng.normal(0.0, 2.0, (n, d))
    z = rng.normal(0.0, 2.0, (n, d))
    checks = []

    def _norm_rows(v):
        return np.sqrt((np.asarray(v, dtype=float) ** 2).sum(axis=-1))

    def _opnorm(mats):
        return np.linalg.norm(np.asarray(mats, dtype=float), ord=2, axis=(-2, -1))

    # Lipschitz in x and boundedness of the X coefficients
    worst_lip, worst_bound, wit_lip, wit_bound = 0.0, 0.0, None, None
    for t in ts:
        for a in model.A_points:
            m1, m2 = model.mu_X(t, x1, a), model.mu_X(t, x2, a)
            s1, s2 = model.sigma_X(t, x1, a), model.sigma_X(t, x2, a)
            dx = _norm_rows(x1 - x2)
            num = _norm_rows(m1 - m2) + _opnorm(s1 - s2)
            ratio = num / np.maximum(dx, 1e-12)
            i = int(np.argmax(ratio))
            if ratio[i] > worst_lip:
                worst_lip, wit_lip = float(ratio[i]), (t, x1[i], x2[i], a)
            bound = _norm_rows(m1) + _opnorm(s1)
            j = int(np.argmax(bound))
            if bound[j] > worst_bound:
                worst_bound, wit_bound = float(bound[j]), (t, x1[j], a)
    checks.append(AssumptionCheck("x_lipschitz_muX_sigmaX", worst_lip <= K + 1e-9, worst_lip, K, wit_lip))
    checks.append(AssumptionCheck("bound_muX_sigmaX", worst_bound <= K + 1e-9, worst_bound, K, wit_bound))

    # y-Lipschitz and (1 + |u| + |y|) growth of the Y coefficients
    worst_ylip, worst_gro, wit_ylip, wit_gro = 0.0, 0.0, None, None
    worst_ratio, wit_ratio = 0.0, None
    for t in ts:
        for a in model.A_points:
            mu1 = np.asarray(model.mu_Y(t, x1, y1, u, a), dtype=float)
            mu2 = np.asarray(model.mu_Y(t, x1, y2, u, a), dtype=float)
            sg1 = model.sigma_Y(t, x1, y1, u, a)
            sg2 = model.sigma_Y(t, x1, y2, u, a)
            dy = np.maximum(np.abs(y1 - y2), 1e-12)
            ratio = (np.abs(mu1 - mu2) + _norm_rows(np.asarray(sg1) - np.asarray(sg2))) / dy
            i = int(np.argmax(ratio))
            if ratio[i] > worst_ylip:
                worst_ylip, wit_ylip = float(ratio[i]), (t, x1[i], y1[i], y2[i], a)
            gro = (np.abs(mu1) + _norm_rows(sg1)) / (1.0 + _norm_rows(u) + np.abs(y1))
            j = int(np.argmax(gro))
            if gro[j] > worst_gro:
                worst_gro, wit_gro = float(gro[j]), (t, x1[j], y1[j], u[j], a)
            dratio = np.abs(mu1) / (1.0 + _norm_rows(sg1))
            k_ = int(np.argmax(dratio))
            if dratio[k_] > worst_ratio:
                worst_ratio, wit_ratio = float(dratio[k_]), (t, x1[k_], y1[k_], u[k_], a)
    checks.append(AssumptionCheck("y_lipschitz_muY_sigmaY", worst_ylip <= K + 1e-9, worst_ylip, K, wit_ylip))
    checks.append(AssumptionCheck("growth_muY_sigmaY", worst_gro <= K + 1e-9, worst_gro, K, wit_gro))
    # only locally bounded is required; flag clearly degenerate blow-ups
    thr_ratio = 10.0 * K * (1.0 + max(map(abs, y_range)))
    checks.append(AssumptionCheck("mu_over_sigma_bounded", worst_ratio <= thr_ratio, worst_ratio, thr_ratio, wit_ratio))

    # linear growth of the hedged drift in (y, z)
    worst_hat, wit_hat = 0.0, None
    for t in ts:
        for a in model.A_points:
            f = np.asarray(mu_Y_hat(t, x1, y1, z, a, model), dtype=float)
            gro = np.abs(f) / (1.0 + np.abs(y1) + _norm_rows(z))
            i = int(np.argmax(gro))
            if gro[i] > worst_hat:
                worst_hat, wit_hat = float(gro[i]), (t, x1[i], y1[i], z[i], a)
    thr_hat = 10.0 * K
    checks.append(AssumptionCheck("growth_muY_hat", worst_hat <= thr_hat, worst_hat, thr_hat, wit_hat))

    # inversion identity sigma_Y(., u_hat(., z, .), .) == z
    worst_inv, wit_inv = 0.0, None
    for t in ts:
        for a in model.A_points:
            uh = model.u_hat(t, x1, y1, z, a)
            zz = np.asarray(model.sigma_Y(t, x1, y1, uh, a), dtype=float)
            err = _norm_rows(zz - z)
            i = int(np.argmax(err))
            if err[i] > worst_inv:
                worst_inv, wit_inv = float(err[i]), (t, x1[i], y1[i], z[i], a)
    checks.append(AssumptionCheck("inversion_u_hat", worst_inv <= 1e-10, worst_inv, 1e-10, wit_inv))

    # the read through finance equals the closures (a copy that replaced a closure but kept finance)
    worst_fr, wit_fr = 0.0, None
    for t, a in ((t, a) for t in ts for a in model.A_points):
        mu, sig, drift = coefficients_at(model, t, x1, a)
        for got, ref in ((mu, model.mu_X(t, x1, a)), (sig, model.sigma_X(t, x1, a)),
                         (drift(y1, z), model.mu_Y(t, x1, y1, model.u_hat(t, x1, y1, z, a), a))):
            err = float(np.max(np.nan_to_num(np.abs(got - ref) / (1.0 + np.abs(ref)), nan=np.inf)))
            if err > worst_fr:
                worst_fr, wit_fr = err, (t, a)
    checks.append(AssumptionCheck("frozen_read_matches", worst_fr <= 1e-12, worst_fr, 1e-12, wit_fr))

    # midpoint concavity of (y, p) -> La(t, x, y, 0, p, 0)
    p1 = rng.normal(0.0, 2.0, (n, d))
    p2 = rng.normal(0.0, 2.0, (n, d))
    zero_M = np.zeros((n, d, d))
    worst_conc, wit_conc = np.inf, None
    for t in ts:
        for a in model.A_points:
            def la(yb, pb):
                return min_generator_field(model, t, x1, yb, 0.0, pb, zero_M, [(a, None)])[0]

            mid = la(0.5 * (y1 + y2), 0.5 * (p1 + p2))
            avg = 0.5 * (la(y1, p1) + la(y2, p2))
            defect = mid - avg
            i = int(np.argmin(defect))
            if defect[i] < worst_conc:
                worst_conc, wit_conc = float(defect[i]), (t, x1[i], y1[i], y2[i], p1[i], p2[i], a)
    checks.append(AssumptionCheck("concavity_La", worst_conc >= -1e-9, worst_conc, -1e-9, wit_conc))

    fin = model.finance
    worst_gap, wit_gap = 0.0, None
    worst_lam, worst_dep = 0.0, 0.0
    wit_lam, wit_dep = None, None
    ones = np.ones(d)
    for t in ts:
        for a in model.A_points:
            rl = np.asarray(fin.r_lend(t, x1, a), dtype=float)
            rb = np.asarray(fin.r_borrow(t, x1, a), dtype=float)
            gap = rl - rb
            i = int(np.argmax(gap))
            if gap[i] > worst_gap:
                worst_gap, wit_gap = float(gap[i]), (t, x1[i], a)
            sig = np.asarray(fin.sigma(t, x1, a), dtype=float)
            if sig.ndim == 2:
                sig = np.broadcast_to(sig, (n, d, d))
            mu = np.asarray(fin.mu(t, x1, a), dtype=float)
            gam = np.einsum("...ij,...ij->...i", sig, sig)
            for r in (rb, rl):
                lam = np.linalg.solve(sig, (mu + 0.5 * gam - r[..., None] * ones)[..., None])[..., 0]
                mag = _norm_rows(lam)
                j = int(np.argmax(mag))
                if mag[j] > worst_lam:
                    worst_lam, wit_lam = float(mag[j]), (t, x1[j], a)
                dep = float(np.max(_norm_rows(lam - lam[0])))
                if dep > worst_dep:
                    worst_dep, wit_dep = dep, (t, a)
    checks.append(AssumptionCheck("rates_order_rb_ge_rl", worst_gap <= 1e-12, worst_gap, 0.0, wit_gap))
    thr_lam = 100.0 * (1.0 + K)
    checks.append(AssumptionCheck("lambda_bounded", worst_lam <= thr_lam, worst_lam, thr_lam, wit_lam))
    checks.append(AssumptionCheck("lambda_x_independent", worst_dep <= 1e-9, worst_dep, 1e-9, wit_dep))

    return ValidationReport(checks)

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
batch may gather a subset of paths. Every solver reads a model through
``market_read`` once per (t, x, a) (``coefficients_at``; the sweep compares
each pair's raw read with the kept reads of its adverse point, and derives
the hedged drift of the kept reads, stacked on a pair axis, with
``market_drift`` only when the kept pairs or their reads changed, so the
arrays the spec's closures return must not be written to later).
``coefficients_at`` and ``min_generator_field`` also take a 1-d numpy array
of times; they still call every closure once per time, with that time as a
python float.

The generators of the game, La, L = min_a La and the shaken H_eps, exist
once, as the field kernel ``min_generator_field``; a single node is a
one-row field.

``make_finance_model`` also builds the closure form of the game,

    mu_X(t, x, a)           x: (n, d)            -> (n, d)
    sigma_X(t, x, a)        x: (n, d)            -> (n, d, d)
    mu_Y(t, x, y, u, a)     y: (n,), u: (n, d)   -> (n,)
    sigma_Y(t, x, y, u, a)                       -> (n, d)
    u_hat(t, x, y, z, a)    z: (n, d)            -> (n, d)

and no solver reads it. Its readers are ``ModelSpec.hash`` (for a model
without a config), ``StrategyMap.rule``, test oracles, call tracers, and of
the standing-assumption checks only the two that compare it with the spec:
``inversion_u_hat`` and ``frozen_read_matches`` (a ``dataclasses.replace``
copy that changes a closure but keeps ``finance`` fails the latter).
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
        if not 0 < self.horizon_T < np.inf:
            raise ModelError(f"horizon_T must be positive and finite, got {self.horizon_T}")
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


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


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
    """The wealth drift (y, u) -> u.(mu + gamma/2) + rho(y - u.1) of one
    market read."""
    mg = mu + 0.5 * np.einsum("...ij,...ij->...i", sig, sig)
    return lambda y, u: ((u * mg).sum(axis=-1)
                         + _financing(np.asarray(y, dtype=float) - u.sum(axis=-1), rl, rb))


def read_site(t, x, a):
    """(batch axes, namer) of a read at (t, x, a): the axes x.shape[:-1],
    led by a time axis for a 1-d array t, and the namer i -> "t=.., x=..,
    a=.." of a batch index i."""
    x2 = np.atleast_2d(np.asarray(x, dtype=float))
    lead = (len(t),) if isinstance(t, np.ndarray) else ()

    def where(i):
        at = float(t[i[0]]) if lead else t
        return f"t={at}, x={x2[i[len(lead):]]}, a={np.asarray(a)}"

    return lead + x2.shape[:-1], where


def _hedge_map(sig, batch, where):
    """z -> (sigma^-1)^T z on the batch axes ``batch``, for z rows or a
    stack of them: a division in d = 1, else a LAPACK solve. A singular
    sigma raises ModelError naming the site ``where(i)`` of its batch index
    i (``read_site``)."""
    if sig.shape[:-2] != batch:
        sig = np.broadcast_to(sig, batch + sig.shape[-2:])

    def singular(flat):
        return ModelError(f"singular volatility at {where(np.unravel_index(flat, batch))}")

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


def coefficients_at(model: ModelSpec, t, x, a):
    """(mu, sigma, drift) of the market read at (t, x, a), drift(y, z) the
    hedged wealth drift on z rows or on a stack (k,) + x.shape of them. A
    1-d array ``t`` adds a leading time axis to the coefficients, and y and
    z carry it in front of x's rows: the read is once per time, the drift
    one expression for all times."""
    x = np.asarray(x, dtype=float)
    read = market_read(model.finance, t, x, a)
    return read[0], read[1], market_drift(read, read_site(t, x, a))


def market_drift(read, site):
    """The hedged wealth drift (y, z) -> u.(mu + gamma/2) + rho(y - u.1) at
    the hedge u = (sigma^-1)^T z of a finance model's ``market_read``, on
    the batch axes of ``site`` = (batch, namer), the ``read_site`` of the
    read's (t, x, a). The sweep passes its kept reads stacked on a leading
    pair axis, with a namer that names each pair's own site."""
    wealth, hedge = _wealth(*read), _hedge_map(read[1], *site)
    return lambda y, z: wealth(y, hedge(z))


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
    if not 0 <= eps < np.inf:
        raise ModelError(f"eps must be nonnegative and finite, got {eps}")
    if eps == 0.0:
        return np.zeros((1, dim + 1))
    axes = [np.array([-eps, 0.0, eps])] * (dim + 1)
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim + 1)
    keep = np.sqrt((mesh**2).sum(axis=1)) <= eps + 1e-15
    pts = mesh[keep]
    order = np.lexsort(pts.T[::-1])
    return pts[order]


def shaken_payoff(model: ModelSpec, eps: float):
    """Terminal data g + 2 eps of the shaken solve and of the dual."""
    return lambda x: np.asarray(model.payoff_g(x), dtype=float) + 2.0 * eps


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
    adverse set, giving L = min_a La; ``[(a, None)]`` gives La alone and the
    pairs of a shake lattice give H_eps. Ties break to the lowest pair
    index. A single node x is the one-row field X = x[None], y and q of
    shape (1,), p of shape (1, d) and M of shape (1, d, d); M enters only
    through its symmetric part.

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
        return wealth(y, np.atleast_2d(np.asarray(u, dtype=float)))

    def sigma_Y(t, x, y, u, a):
        u2 = np.atleast_2d(np.asarray(u, dtype=float))
        x2 = np.atleast_2d(np.asarray(x, dtype=float))
        sig = np.asarray(finance.sigma(t, x2, a), dtype=float)
        out = np.einsum("...ji,...j->...i", sig, u2)
        return out if np.asarray(u).ndim > 1 else out[0]

    def u_hat(t, x, y, z, a):
        x2 = np.atleast_2d(np.asarray(x, dtype=float))
        sig = np.asarray(finance.sigma(t, x2, a), dtype=float)
        return _hedge_map(sig, *read_site(t, x2, a))(np.atleast_2d(np.asarray(z, dtype=float)))

    return ModelSpec(
        dim=dim,
        mu_X=lambda t, x, a: np.asarray(finance.mu(t, np.asarray(x, dtype=float), a), dtype=float),
        sigma_X=lambda t, x, a: np.asarray(finance.sigma(t, np.asarray(x, dtype=float), a), dtype=float),
        mu_Y=mu_Y,
        sigma_Y=sigma_Y,
        u_hat=u_hat,
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


_Y_RANGE = (-5.0, 5.0)  # the wealth levels y that validate_assumptions samples


class _Worst:
    """Running worst of one check over the (t, a) samples: the largest value
    (the smallest with ``lower``) and the witness of its first occurrence. A
    NaN counts as the worst value there is, so a sample that cannot be
    evaluated fails its check and is its witness."""

    def __init__(self, cid, threshold, slack=0.0, lower=False):
        self.cid, self.threshold, self.slack = cid, threshold, slack
        self.sign = -1.0 if lower else 1.0
        self.top, self.witness = (-np.inf if lower else 0.0), None  # top = sign * worst

    def add(self, t, a, vals, *cols):
        """Take (t, a)'s values; sample i's witness is (t, col[i] per col, a)."""
        v = self.sign * np.atleast_1d(np.asarray(vals, dtype=float))
        v[np.isnan(v)] = np.inf
        i = int(np.argmax(v))
        if v[i] > self.top:
            self.top, self.witness = float(v[i]), (t, *(c[i] for c in cols), a)

    def check(self) -> AssumptionCheck:
        worst = self.sign * self.top
        passed = worst >= self.threshold if self.sign < 0 else worst <= self.threshold + self.slack
        return AssumptionCheck(self.cid, passed, worst, self.threshold, self.witness)


def _norm_rows(v):
    return np.sqrt((np.asarray(v, dtype=float) ** 2).sum(axis=-1))


def _opnorm(mats):
    return np.linalg.norm(np.asarray(mats, dtype=float), ord=2, axis=(-2, -1))


def validate_assumptions(model: ModelSpec, sample_count: int = 256, rng_seed: int = 0,
                         x_box: tuple = (-3.0, 3.0)) -> ValidationReport:
    """Empirical spot-checks of the standing coefficient conditions.

    Samples random points/pairs and reports worst-case constants: Lipschitz
    and boundedness of (mu_X, sigma_X), y-Lipschitz and growth of
    (mu_Y, sigma_Y), the drift-to-diffusion ratio, linear growth of the
    hedged drift, midpoint concavity of (y,p) -> La(t,x,y,0,p,0), the z
    inversion identity, the closures against the read, rate ordering and the
    market-price-of-risk bounds. Each (t, a) reads the spec once on each
    sample set (``market_read``) and derives every check from those reads;
    only ``inversion_u_hat`` and ``frozen_read_matches`` call the closure
    copy, and the concavity check evaluates La(t, x, y, 0, p, 0) =
    drift(y, sigma^T p) - mu.p from the same read. A NaN value fails its
    check. Violations are reported, not raised.
    """
    if sample_count < 1:
        raise ModelError("sample_count must be >= 1")
    rng = np.random.default_rng(rng_seed)
    n, d, K = int(sample_count), model.dim, model.lipschitz_K
    ts = rng.uniform(0.0, model.horizon_T, 3)
    x1, x2 = rng.uniform(*x_box, (n, d)), rng.uniform(*x_box, (n, d))
    y1, y2 = rng.uniform(*_Y_RANGE, n), rng.uniform(*_Y_RANGE, n)
    u, z, p1, p2 = (rng.normal(0.0, 2.0, (n, d)) for _ in range(4))
    checks = lip, bound, ylip, gro, ratio, hat, inv, frozen, conc, gap, lam, dep = (
        _Worst("x_lipschitz_muX_sigmaX", K, 1e-9), _Worst("bound_muX_sigmaX", K, 1e-9),
        _Worst("y_lipschitz_muY_sigmaY", K, 1e-9), _Worst("growth_muY_sigmaY", K, 1e-9),
        # only locally bounded is required; flag clearly degenerate blow-ups
        _Worst("mu_over_sigma_bounded", 10.0 * K * (1.0 + max(map(abs, _Y_RANGE)))),
        _Worst("growth_muY_hat", 10.0 * K), _Worst("inversion_u_hat", 1e-10),
        _Worst("frozen_read_matches", 1e-12), _Worst("concavity_La", -1e-9, lower=True),
        _Worst("rates_order_rb_ge_rl", 0.0, 1e-12), _Worst("lambda_bounded", 100.0 * (1.0 + K)),
        _Worst("lambda_x_independent", 1e-9))
    dx = np.maximum(_norm_rows(x1 - x2), 1e-12)
    dy = np.maximum(np.abs(y1 - y2), 1e-12)
    for t in ts:
        for a in model.A_points:
            mu, sig, rl, rb = read = market_read(model.finance, t, x1, a)
            mu2, sig2 = market_read(model.finance, t, x2, a)[:2]
            lip.add(t, a, (_norm_rows(mu - mu2) + _opnorm(sig - sig2)) / dx, x1, x2)
            bound.add(t, a, _norm_rows(mu) + _opnorm(sig), x1)

            # Y coefficients at the hedge u: mu_Y from the wealth drift, sigma_Y = sigma^T u (no y in it)
            wealth = _wealth(*read)
            mu_y, sig_y = wealth(y1, u), _norm_rows(np.einsum("...ji,...j->...i", sig, u))
            ylip.add(t, a, np.abs(mu_y - wealth(y2, u)) / dy, x1, y1, y2)
            gro.add(t, a, (np.abs(mu_y) + sig_y) / (1.0 + _norm_rows(u) + np.abs(y1)), x1, y1, u)
            ratio.add(t, a, np.abs(mu_y) / (1.0 + sig_y), x1, y1, u)
            at = market_drift(read, read_site(t, x1, a))
            drift = at(y1, z)
            hat.add(t, a, np.abs(drift) / (1.0 + np.abs(y1) + _norm_rows(z)), x1, y1, z)

            # the closure copy against the spec: sigma_Y(., u_hat(., z, .), .) == z, and the read itself
            uh = model.u_hat(t, x1, y1, z, a)
            inv.add(t, a, _norm_rows(np.asarray(model.sigma_Y(t, x1, y1, uh, a), dtype=float) - z), x1, y1, z)
            for got, ref in ((mu, model.mu_X(t, x1, a)), (sig, model.sigma_X(t, x1, a)),
                             (drift, model.mu_Y(t, x1, y1, uh, a))):
                frozen.add(t, a, np.max(np.nan_to_num(np.abs(got - ref) / (1.0 + np.abs(ref)), nan=np.inf)))

            # midpoint concavity of (y, p) -> La(t, x, y, 0, p, 0)
            def la(yb, pb):
                return at(yb, np.einsum("...ji,...j->...i", sig, pb)) - np.einsum("...i,...i->...", mu, pb)

            mid = la(0.5 * (y1 + y2), 0.5 * (p1 + p2))
            conc.add(t, a, mid - 0.5 * (la(y1, p1) + la(y2, p2)), x1, y1, y2, p1, p2)

            # rate order and the market prices of risk sigma^-1 (mu + gamma/2 - r) at either rate
            gap.add(t, a, rl - rb, x1)
            excess = mu + 0.5 * np.einsum("...ij,...ij->...i", sig, sig)
            for r in (rb, rl):
                lam_r = np.linalg.solve(sig, (excess - r[..., None])[..., None])[..., 0]
                lam.add(t, a, _norm_rows(lam_r), x1)
                dep.add(t, a, np.max(_norm_rows(lam_r - lam_r[0])))
    return ValidationReport([c.check() for c in checks])

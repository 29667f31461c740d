"""Coefficient model of the worst-case hedging game.

The controlled state is (X, Y): X in R^d holds the log-prices and reacts
only to the adverse control a, the scalar wealth Y reacts to both the hedge
u (in R^d) and a. The adverse control ranges over a finite list
``A_points``; the hedge control is never enumerated, because the hedge
(sigma^-1)^T z is the unique u whose wealth-diffusion row is z. At
z = sigma^T p that is the delta u = p, which the game, the dual and the
generator hedge with directly (``wealth_drift`` takes u itself). There mu
cancels: ``Generator`` evaluates La as sum_i 1/2 Sig_ii (p_i - M_ii)
- Sig_01 (M_01 + M_10)/2 + r_lend c+ - r_borrow c- - q with c = y - p.1 and
Sig = sigma sigma^T.

A model is its ``FinanceSpec``: the drift, volatility and two cash rates of
a two-rate market, each a function of (t, x, a) vectorised over the leading
axes of x (x: (n, d) -> mu (n, d), sigma (n, d, d), rates (n,)). ``t`` is a
python float and ``a`` one entry of ``A_points``. Closures must be row-wise
pure: row i of the output depends only on row i of the inputs, because a
batch may gather a subset of paths. Every solver reads a model through
``market_read`` once per (t, x, a). ``Generator`` also takes a 1-d numpy
array of times; it still calls every closure once per time, with that time
as a python float.

The generators of the game, La, L = min_a La and the shaken H_eps, exist
once, as ``Generator``: the sweep, the residual, certification and the
concavity check call it; the tests call its one-shot form
``min_generator_field``. A ``Generator`` keeps the arrays of its kept
reads, so the arrays the spec's closures return must not be written to.

``make_finance_model`` also builds the closure form of the game,

    mu_X(t, x, a)           x: (n, d)            -> (n, d)
    sigma_X(t, x, a)        x: (n, d)            -> (n, d, d)
    mu_Y(t, x, y, u, a)     y: (n,), u: (n, d)   -> (n,)
    sigma_Y(t, x, y, u, a)                       -> (n, d)
    u_hat(t, x, y, z, a)    z: (n, d)            -> (n, d)

and no solver reads it. Its readers are ``ModelSpec.hash`` (for a model
without a config), test oracles, call tracers, and of the standing-assumption
checks only the two that compare it with the spec: ``inversion_u_hat`` and
``frozen_read_matches`` (a ``dataclasses.replace`` copy that changes a
closure but keeps ``finance`` fails the latter).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, is_dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np


class HedgeGameError(Exception):
    """Base class for errors raised by this package."""


class ModelError(HedgeGameError):
    """Ill-posed model definition (singular volatility, bad shapes, ...)."""


def plain(report, **extra) -> dict:
    """A report dataclass as JSON-ready values: its fields and the derived
    entries ``extra``. Numpy scalars become python values, tuples lists and
    nested dataclasses dicts; ndarray fields (per-path data) are left out."""
    items = {f.name: getattr(report, f.name) for f in fields(report)} | extra
    return {k: _plain(v) for k, v in items.items() if not isinstance(v, np.ndarray)}


def _plain(v):
    if is_dataclass(v):
        return plain(v)
    if isinstance(v, np.generic):
        return v.item()
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    if isinstance(v, dict):
        return {k: _plain(x) for k, x in v.items()}
    return v


# ---------------------------------------------------------------------------
# core data types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FinanceSpec:
    """Market inputs of the two-rate preset.

    ``mu`` and ``sigma`` are the drift/volatility of the log-prices,
    ``r_lend``/``r_borrow`` the cash rates, all functions of (t, x, a).
    ``sigma`` must be invertible wherever it is evaluated.

    ``static`` is derived, never passed: true when ``model_from_config``
    built all four from stanzas that read neither t nor x, on which the dual
    takes one exact step per knot interval (``dual.make_lattice``). A
    closure-built spec, and any ``dataclasses.replace`` copy, counts as
    reading both.
    """

    mu: Callable
    sigma: Callable
    r_lend: Callable
    r_borrow: Callable
    static: bool = field(default=False, init=False)


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


def _per_time(f, t, x, a):
    """f(t, x, a) as a float array; a 1-d array ``t`` calls f once per time, with a
    python float, into one array on a leading time axis that a result must fit exactly."""
    if not isinstance(t, np.ndarray):
        return np.asarray(f(t, x, a), dtype=float)
    for i, s in enumerate(t.tolist()):
        r = np.asarray(f(s, x, a), dtype=float)
        out = np.empty(t.shape + r.shape) if i == 0 else out
        if r.shape != out.shape[1:]:
            raise ModelError(f"market read at t={s}, a={a} has shape {r.shape}, not {out[i].shape}")
        out[i] = r
    return out


class _Read(tuple):
    """A market read that keeps its compared form (``_compared``) once taken."""

    compared = None


def market_read(finance: FinanceSpec, t, x, a):
    """The raw market read (mu, sigma, r_lend, r_borrow) at (t, x, a), float
    arrays; every coefficient of a finance model derives from it."""
    return _Read((_per_time(finance.mu, t, x, a), _per_time(finance.sigma, t, x, a),
                  _per_time(finance.r_lend, t, x, a), _per_time(finance.r_borrow, t, x, a)))


def wealth_drift(mu, sig, rl, rb):
    """The wealth drift (y, u) -> u.(mu + gamma/2) + rho(y - u.1) of one
    market read, u the hedge itself (the delta, in the game and the dual)."""
    mg = mu + 0.5 * np.einsum("...ij,...ij->...i", sig, sig)

    def wealth(y, u):
        cash = np.asarray(y, dtype=float) - u.sum(axis=-1)
        return (u * mg).sum(axis=-1) + (np.maximum(cash, 0.0) * rl - np.maximum(-cash, 0.0) * rb)
    return wealth


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


def _regular(sig, batch, where):
    """sigma broadcast to the batch axes ``batch``; a determinant of 0 (in closed form for
    d <= 2) raises ModelError naming the site ``where(i)`` of its first batch index i."""
    if sig.shape[:-2] != batch:
        sig = np.broadcast_to(sig, batch + sig.shape[-2:])
    d = sig.shape[-1]
    zero = (sig[..., 0, 0] if d == 1 else np.linalg.det(sig) if d > 2 else
            sig[..., 0, 0] * sig[..., 1, 1] - sig[..., 0, 1] * sig[..., 1, 0]) == 0.0
    if np.any(zero):
        raise ModelError(f"singular volatility at {where(np.unravel_index(int(np.argmax(zero)), batch))}")
    return sig


def _hedge_map(sig, batch, where):
    """z -> (sigma^-1)^T z on the batch axes ``batch``, for z rows or a stack of
    them: a division in d = 1, else a LAPACK solve. A singular sigma raises
    ModelError (``_regular``), also at a zero pivot the determinant rounds past."""
    sig = _regular(sig, batch, where)
    if sig.shape[-1] == 1:
        s = sig[..., 0, 0][..., None]
        return lambda z: z / s

    def solve(z):
        try:
            return np.linalg.solve(np.swapaxes(sig, -1, -2), z[..., None])[..., 0]
        except np.linalg.LinAlgError:
            flat = int(np.argmin(np.abs(np.linalg.det(sig))))
            raise ModelError(f"singular volatility at {where(np.unravel_index(flat, batch))}") from None

    return solve


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


_BYTES_COMPARED = 8192  # read arrays up to this size compare as copies, larger ones on views


def _compared(read):
    """A read as ``_same_read`` compares it: its shapes and the bytes of each array of up to
    ``_BYTES_COMPARED`` entries (None above), and int64 views of the larger arrays. A ``_Read``
    keeps it, so a read is converted once, however many reads it meets."""
    form = read.compared if type(read) is _Read else None
    if form is None:
        key = [r.shape for r in read]
        key += [r.tobytes() if r.size <= _BYTES_COMPARED else None for r in read]
        form = key, [r.view(np.int64) for r in read if r.size > _BYTES_COMPARED]
        if type(read) is _Read:
            read.compared = form
    return form


def _same_read(read, other) -> bool:
    """Two market reads with the same shapes and bits (-0.0 and 0.0 stay apart, equal NaN bits
    are equal): one layer's arrays as bytes, a block's on int64 views, the faster at each size."""
    (key, views), (other_key, other_views) = _compared(read), _compared(other)
    return key == other_key and not (views and any(np.count_nonzero(v != w)
                                                   for v, w in zip(views, other_views)))


class _Terms:
    """The kept reads (``kept_reads``) and what La takes from them, stacked on a leading
    pair axis in kept order: 0.5 Sig_ii, Sig_01 in d = 2, both rates and ``nan``, where
    mu is not finite (None if nowhere). A singular sigma names its pair's site."""

    def __init__(self, kept, reads, sites):
        batch, d = read_site(*sites[0])[0], reads[0][0].shape[-1]
        self.kept, self.kept_reads = kept, [_Read(map(np.ascontiguousarray, r)) for r in reads]
        Sig = [np.einsum("...ik,...jk->...ij", s, s)
               for s in (_regular(r[1], *read_site(*site)) for r, site in zip(reads, sites))]

        def stack(rows):
            return np.stack([np.broadcast_to(r, batch) for r in rows])

        self.half_var = [stack([0.5 * S[..., i, i] for S in Sig]) for i in range(d)]
        self.cov = stack([S[..., 0, 1] for S in Sig]) if d == 2 else None
        self.rates = tuple(stack([r[c] for r in reads]) for c in (2, 3))
        bad = stack([~np.isfinite(r[0]).all(axis=-1) for r in reads])
        self.nan = bad if bad.any() else None

    def rows(self, y, q, p, M, out):
        """La of each kept pair into ``out`` = (rows, tmp: (kept pairs,) + batch; c, diff:
        batch): r_lend c+ - r_borrow c- (c = y - p.1 once for all pairs), less q, plus
        1/2 Sig_ii (p_i - M_ii) axis by axis, less Sig_01 (M_01 + M_10)/2; NaN at ``nan``."""
        val, tmp, c, diff = out
        np.subtract(y, p[..., 0] if p.shape[-1] == 1 else p.sum(axis=-1), out=c)
        np.multiply(self.rates[0], np.maximum(c, 0.0, out=diff), out=val)
        val -= np.multiply(self.rates[1], np.maximum(np.negative(c, out=c), 0.0, out=c), out=tmp)
        val -= q
        for i, half_var in enumerate(self.half_var):
            val += np.multiply(half_var, np.subtract(p[..., i], M[..., i, i], out=diff), out=tmp)
        if self.cov is not None:
            np.multiply(np.add(M[..., 0, 1], M[..., 1, 0], out=diff), 0.5, out=diff)
            val -= np.multiply(self.cov, diff, out=tmp)
        if self.nan is not None:
            np.copyto(val, np.nan, where=self.nan)
        return val


class Generator:
    """The worst-case generator: a call ``(t, X, y, q, p, M) -> (min,
    argmin)`` over ``pairs`` of La, on a field of derivative packs.

    Pair (a, b) gives La at the shifted base point (t, X) + b:
    mu_Y_hat(., y, sigma_X^T p, a) - q - mu_X.p - 1/2 sigma_X sigma_X^T : M;
    the transposed volatility in the z-slot makes the hedge the delta rule
    u = p: mu cancels (a non-finite mu makes the row NaN) and La is the closed
    form of the module docstring (``_Terms.rows``). ``pairs`` defaults to the
    unshaken adverse set (L = min_a La); ``[(a, None)]`` gives La and a shake
    lattice's pairs H_eps. y and q take
    X's batch shape X.shape[:-1], p and M add axes of length d (q and M may
    broadcast; M enters through its symmetric part). A 1-d array ``t`` adds
    a leading layer axis to y, q, p and M over the one field X.

    A call reads every pair once. A pair whose read equals, bit for bit, a
    kept read of its adverse point is dropped: its La would be that pair's.
    ``terms`` (``_Terms``) is derived again only when the kept pairs or the
    bits of a kept read change. The minimum propagates NaN; the argmin keeps
    the lowest pair of a tie, and the first NaN pair at a NaN. The rows live in
    scratch kept until the kept pairs or the batch shape change; (min, argmin) are new.
    """

    def __init__(self, model: ModelSpec, pairs=None):
        self.model = model
        self.pairs = adverse_pairs(model) if pairs is None else list(pairs)
        self._point = [np.asarray(a, dtype=float).tobytes() for a, _ in self.pairs]
        self.terms = None
        self._scratch = [np.empty(0)] * 5  # rows, tmp: (kept pairs,) + batch; c, diff, eq: batch

    def __call__(self, t, X, y, q, p, M):
        kept, reads, sites, by_a = [], [], [], {}  # by_a: adverse point -> its kept reads
        for j, (a, b) in enumerate(self.pairs):
            t_b, X_b = base_point(t, X, b, self.model.horizon_T)
            read = market_read(self.model.finance, t_b, X_b, a)
            same_a = by_a.setdefault(self._point[j], [])
            if any(_same_read(read, other) for other in same_a):
                continue
            same_a.append(read)
            kept.append(j)
            reads.append(read)
            sites.append((t_b, X_b, a))
        last = self.terms
        if last is None or kept != last.kept or not all(
                _same_read(r, row) for r, row in zip(reads, last.kept_reads)):
            self.terms = _Terms(kept, reads, sites)
        del read, reads, by_a, same_a  # reads the terms did not keep go
        shape = self.terms.half_var[0].shape
        if self._scratch[0].shape != shape:
            self._scratch = [np.empty(s) for s in [shape] * 2 + [shape[1:]] * 2] + [np.empty(shape[1:], bool)]
        *out, eq = self._scratch
        rows = self.terms.rows(y, q, p, M, out)
        best = np.minimum(rows[0], rows[1]) if len(rows) > 1 else rows[0].copy()
        for row in rows[2:]:
            np.minimum(best, row, out=best)  # carries a NaN
        idx = np.full(best.shape, kept[-1])
        for row, j in zip(rows[-2::-1], kept[-2::-1]):  # down to the lowest pair of a tie
            np.copyto(idx, j, where=np.equal(row, best, out=eq))
        if len(kept) > 1 and np.isnan(best.min()):  # no row equals a NaN: take the first NaN row
            nan = np.isnan(best)
            idx[nan] = np.asarray(kept)[np.isnan(rows[:, nan]).argmax(axis=0)]
        return best, idx


def min_generator_field(model: ModelSpec, t, X, y, q, p, M, pairs=None):
    """One call of a fresh ``Generator(model, pairs)``; a single node x is
    the one-row field X = x[None]."""
    return Generator(model, pairs)(t, X, y, q, p, M)


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
        wealth = wealth_drift(*market_read(finance, t, np.atleast_2d(np.asarray(x, dtype=float)), a))
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
        return lambda t, x, a, _s=np.float64(float(val)): np.broadcast_to(_s, np.asarray(x).shape[:-1])
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
        return lambda t, x, a: np.broadcast_to(np.asarray(a, dtype=float).reshape(-1)[0], np.asarray(x).shape[:-1])
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
    object.__setattr__(finance, "static", all(fin_cfg[name]["type"] in ("constant", "affine_in_a")
                                              for name in ("mu", "sigma", "r_lend", "r_borrow")))
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
    copy, and the concavity check calls a's ``Generator`` once, with q = 0
    and M = 0, on the three packs of the first sample set. A NaN value
    fails its check. Violations are reported, not raised.
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
    x3 = np.broadcast_to(x1, (3, n, d))
    la = [Generator(model, [(a, None)]) for a in model.A_points]
    for t in ts:
        for j, a in enumerate(model.A_points):
            mu, sig, rl, rb = read = market_read(model.finance, t, x1, a)
            mu2, sig2 = market_read(model.finance, t, x2, a)[:2]
            lip.add(t, a, (_norm_rows(mu - mu2) + _opnorm(sig - sig2)) / dx, x1, x2)
            bound.add(t, a, _norm_rows(mu) + _opnorm(sig), x1)

            # Y coefficients at the hedge u: mu_Y from the wealth drift, sigma_Y = sigma^T u (no y in it)
            wealth = wealth_drift(*read)
            mu_y, sig_y = wealth(y1, u), _norm_rows(np.einsum("...ji,...j->...i", sig, u))
            ylip.add(t, a, np.abs(mu_y - wealth(y2, u)) / dy, x1, y1, y2)
            gro.add(t, a, (np.abs(mu_y) + sig_y) / (1.0 + _norm_rows(u) + np.abs(y1)), x1, y1, u)
            ratio.add(t, a, np.abs(mu_y) / (1.0 + sig_y), x1, y1, u)
            drift = wealth(y1, _hedge_map(sig, *read_site(t, x1, a))(z))
            hat.add(t, a, np.abs(drift) / (1.0 + np.abs(y1) + _norm_rows(z)), x1, y1, z)

            # the closure copy against the spec: sigma_Y(., u_hat(., z, .), .) == z, and the read itself
            uh = model.u_hat(t, x1, y1, z, a)
            inv.add(t, a, _norm_rows(np.asarray(model.sigma_Y(t, x1, y1, uh, a), dtype=float) - z), x1, y1, z)
            for got, ref in ((mu, model.mu_X(t, x1, a)), (sig, model.sigma_X(t, x1, a)),
                             (drift, model.mu_Y(t, x1, y1, uh, a))):
                frozen.add(t, a, np.max(np.nan_to_num(np.abs(got - ref) / (1.0 + np.abs(ref)), nan=np.inf)))

            # midpoint concavity of (y, p) -> La(t, x, y, 0, p, 0), the three packs on one field
            mid, la1, la2 = la[j](t, x3, np.stack([0.5 * (y1 + y2), y1, y2]), 0.0,
                                  np.stack([0.5 * (p1 + p2), p1, p2]), np.zeros((d, d)))[0]
            conc.add(t, a, mid - 0.5 * (la1 + la2), x1, y1, y2, p1, p2)

            # rate order and the market prices of risk sigma^-1 (mu + gamma/2 - r) at either rate
            gap.add(t, a, rl - rb, x1)
            excess = mu + 0.5 * np.einsum("...ij,...ij->...i", sig, sig)
            for r in (rb, rl):
                lam_r = np.linalg.solve(sig, (excess - r[..., None])[..., None])[..., 0]
                lam.add(t, a, _norm_rows(lam_r), x1)
                dep.add(t, a, np.max(_norm_rows(lam_r - lam_r[0])))
    return ValidationReport([c.check() for c in checks])

"""Command-line entry point: price, solve, regularize, simulate, dual.

A strict JSON config drives every run; flags act as dotted-path overrides.
Each run writes its artifacts plus a manifest (config hash, versions, seeds,
wall time) into the output directory. Exit codes: 0 ok, 2 config error,
3 numerical failure, 4 certification/acceptance failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np

from . import __version__, dual, game, hjb, regularize
from .model import HedgeGameError, model_from_config, shake_lattice, shaken_payoff
from .model import validate_assumptions  # noqa: F401  (perfbench reads cli.validate_assumptions)

SMOOTH_MAGIC = b"SMOOTH1\x00"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_CERT = 4


class ConfigError(HedgeGameError):
    pass


# ---------------------------------------------------------------------------
# config schema
# ---------------------------------------------------------------------------

_COEFF_KEYS = {"type", "value", "x", "values"}

_DEFAULTS = {
    "regularize": {
        "eps_ladder": list(regularize.DEFAULT_EPS_LADDER),
        "eta": 0.1,
        "tol": 1e-3,
        "B": None,
        "check_shape": [50, 100],
        "phi": "v-plus-margin:0.2",
    },
    "sim": {
        "paths": 10000, "steps": 400, "seed": 7, "tol_sim": 0.02, "p_sim": 0.05,
        "margin": 0.0, "t0": 0.0, "x0": None, "y0": "auto", "switch_rate": 4.0,
    },
    "dual": {
        "knots": 4, "degree": 2, "paths": 100000, "eps": 0.0, "seed": 11,
        "substeps": 25, "mid": None,
    },
    "output": {"directory": "out"},
}

# keys of the sections without defaults; a defaulted section allows its defaults' keys
_ALLOWED = {
    "model": {"kind", "dim", "A_points", "horizon_T", "lipschitz_K", "finance", "payoff"},
    "model.finance": {"mu", "sigma", "r_lend", "r_borrow"},
    "grid": {"t_steps", "x_min", "x_max", "x_steps"},
    "regularize.B": {"t", "x"},
}

_PAYOFF_KEYS = {"type", "strike", "cap", "level", "width", "x", "values"}


def _check_keys(section: dict, allowed: set, path: str):
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown config keys in {path}: {sorted(unknown)}")


def validate_config(raw: dict) -> dict:
    """Validate against the schema, reject unknown keys, apply defaults."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(raw, {"model", "grid", "regularize", "sim", "dual", "output"}, "<root>")
    for req in ("model", "grid"):
        if req not in raw:
            raise ConfigError(f"config section {req!r} is required")
    cfg = json.loads(json.dumps(raw))  # deep copy, normalised types

    m = cfg["model"]
    _check_keys(m, _ALLOWED["model"], "model")
    for req in ("kind", "dim", "A_points", "horizon_T", "lipschitz_K", "finance", "payoff"):
        if req not in m:
            raise ConfigError(f"model.{req} is required")
    _check_keys(m["finance"], _ALLOWED["model.finance"], "model.finance")
    for name, stanza in m["finance"].items():
        _check_keys(stanza, _COEFF_KEYS, f"model.finance.{name}")
    _check_keys(m["payoff"], _PAYOFF_KEYS, "model.payoff")

    g = cfg["grid"]
    _check_keys(g, _ALLOWED["grid"], "grid")
    for req in ("t_steps", "x_min", "x_max", "x_steps"):
        if req not in g:
            raise ConfigError(f"grid.{req} is required")

    for section, defaults in _DEFAULTS.items():
        body = cfg.setdefault(section, {})
        _check_keys(body, set(defaults), section)
        for key, val in defaults.items():
            body.setdefault(key, json.loads(json.dumps(val)))
    if cfg["regularize"]["B"] is not None:
        _check_keys(cfg["regularize"]["B"], _ALLOWED["regularize.B"], "regularize.B")
    if cfg["sim"]["x0"] is None:
        cfg["sim"]["x0"] = [0.0] * int(m["dim"])
    return cfg


def apply_overrides(cfg: dict, pairs) -> dict:
    for pair in pairs or ():
        if "=" not in pair:
            raise ConfigError(f"--set expects dotted.path=value, got {pair!r}")
        path, _, value = pair.partition("=")
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            parsed = value
        node = cfg
        keys = path.split(".")
        for key in keys[:-1]:
            if key not in node or not isinstance(node[key], dict):
                raise ConfigError(f"unknown override path {path!r}")
            node = node[key]
        if keys[-1] not in node:
            raise ConfigError(f"unknown override path {path!r}")
        node[keys[-1]] = parsed
    return cfg


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def load_config(path, overrides=None) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    cfg = validate_config(raw)
    if raw.get("sim", {}).get("x0") is None:
        cfg["sim"]["x0"] = None  # derived from model.dim after the overrides
    return validate_config(apply_overrides(cfg, overrides))


def grid_from_config(gcfg: dict) -> hjb.GridSpec:
    return hjb.GridSpec(
        t_steps=int(gcfg["t_steps"]),
        x_min=tuple(gcfg["x_min"]),
        x_max=tuple(gcfg["x_max"]),
        x_steps=tuple(gcfg["x_steps"]),
    )


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_manifest(out_dir, command, cfg, artifacts, t_start, seeds):
    manifest = {
        "command": command,
        "config_hash": config_hash(cfg),
        "package_version": __version__,
        "numpy_version": np.__version__,
        "seeds": seeds,
        "wall_time_s": round(time.monotonic() - t_start, 3),
        "artifacts": sorted(artifacts),
    }
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)


def save_smooth(smooth: regularize.SmoothSurface, path):
    header = {
        "eps": smooth.eps,
        "k": smooth.k,
        "delta": smooth.delta,
        "model_hash": smooth.model_hash,
        "n_t": len(smooth.t_nodes),
        "axes_n": [len(a) for a in smooth.axes],
        "meta": {k: v for k, v in smooth.meta.items() if isinstance(v, (int, float, str))},
    }
    arrays = [smooth.t_nodes, *smooth.axes, smooth.node_values]
    hjb.write_cache(path, SMOOTH_MAGIC, header,
                    [np.ascontiguousarray(arr, dtype="<f8") for arr in arrays])


def _smooth_from_cache(header, take) -> regularize.SmoothSurface:
    n_t, axes_n = header["n_t"], header["axes_n"]
    return regularize.SmoothSurface(
        take("<f8", (n_t,)), [take("<f8", (n,)) for n in axes_n], take("<f8", (n_t, *axes_n)),
        header["delta"], eps=header["eps"], k=header["k"], model_hash=header["model_hash"],
        meta=header.get("meta", {}),
    )


def load_smooth(path) -> regularize.SmoothSurface:
    return hjb.read_cache(path, SMOOTH_MAGIC, _smooth_from_cache)


def load_surface(path):
    """A ``surface.bin`` or ``smooth.bin`` cache, told apart by its magic."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
    return load_smooth(path) if magic == SMOOTH_MAGIC else hjb.load_binary(path)


def emit_plot_data(obj, kind: str, path, t0: float = 0.0):
    """Write gnuplot-ready TSV slices of surfaces, reports and certificates."""
    rows = []
    if kind == "value_slice":
        ax = obj.axes[0]
        others = [np.full_like(ax, 0.5 * (a[0] + a[-1])) for a in obj.axes[1:]]
        vals = obj.value(t0, np.stack([ax] + others, axis=-1))
        header = "x\tvalue"
        rows = [f"{x:.17g}\t{v:.17g}" for x, v in zip(ax, vals)]
    elif kind == "policy_map":
        header = "t\tx\tpolicy"
        for k, tv in enumerate(obj.t):
            for i, x in enumerate(obj.axes[0]):
                idx = (k, i) + (0,) * (obj.dim - 1)
                rows.append(f"{tv:.17g}\t{x:.17g}\t{obj.policy[idx]}")
    elif kind == "shortfall_hist":
        counts, edges = np.histogram(obj.shortfall, bins=50)
        header = "bin_left\tcount"
        rows = [f"{e:.17g}\t{c}" for e, c in zip(edges[:-1], counts)]
    elif kind == "eps_curve":
        header = "eps\tmax_B_gap\tpruned"
        rows = [f"{e:.17g}\t{c:.17g}\t{int(e in obj.pruned)}" for e, c in obj.c_curve]
    else:
        raise HedgeGameError(f"unknown plot kind {kind!r}")
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.write("\n".join(rows) + ("\n" if rows else ""))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


@contextmanager
def _config_values():
    """Report a config value of the wrong type or shape as a ConfigError."""
    try:
        yield
    except (TypeError, ValueError, KeyError, IndexError, AttributeError) as exc:
        raise ConfigError(f"invalid config value: {exc!r}") from None


def _prepare(args):
    """Parse the run once: config, output directory, model, grid and the typed
    values of every section. The --margin, --y0 and --mid flags are --set
    entries applied after the others, so the manifest's config hash covers
    them. Bad values and a start point outside [0, T) x R^d are ConfigErrors."""
    with _config_values():
        cfg = load_config(args.config, (args.set or []) + (args.shorthands or []))
        model = model_from_config(cfg["model"])
        grid = grid_from_config(cfg["grid"])
        s, r, d = cfg["sim"], cfg["regularize"], cfg["dual"]
        sim = game.SimParams(
            x0=tuple(float(v) for v in s["x0"]), t0=float(s["t0"]),
            paths=int(s["paths"]), steps=int(s["steps"]), seed=int(s["seed"]),
            tol_sim=float(s["tol_sim"]), p_sim=float(s["p_sim"]),
            switch_rate=_switch_rate(s["switch_rate"], "sim.switch_rate"),
        )
        if len(sim.x0) != model.dim or not np.all(np.isfinite(sim.x0)):
            raise ConfigError(f"sim.x0 needs {model.dim} finite entries, got {list(sim.x0)}")
        margin = float(s["margin"])
        if not np.all(np.isfinite([sim.p_sim, sim.tol_sim, margin])):
            raise ConfigError("sim.p_sim, sim.tol_sim and sim.margin must be finite, got "
                              f"{[sim.p_sim, sim.tol_sim, margin]}")
        if not sim.t0 < model.horizon_T:
            raise ConfigError(f"sim.t0 {sim.t0} must be below horizon_T {model.horizon_T}")
        if r["B"] is None:  # central half of the grid in every axis, full time range
            box = regularize.Box(
                0.0, model.horizon_T,
                tuple(lo + 0.25 * (hi - lo) for lo, hi in zip(grid.x_min, grid.x_max)),
                tuple(hi - 0.25 * (hi - lo) for lo, hi in zip(grid.x_min, grid.x_max)))
        else:
            box = regularize.Box(float(r["B"]["t"][0]), float(r["B"]["t"][1]),
                                 [lo for lo, _ in r["B"]["x"]], [hi for _, hi in r["B"]["x"]])
            if len(box.x_lo) != model.dim:
                raise ConfigError(f"regularize.B.x needs {model.dim} intervals, got {len(box.x_lo)}")
        if sim.seed < 0 or int(d["seed"]) < 0:
            raise ConfigError(f"sim.seed and dual.seed must be >= 0, got {sim.seed} and {d['seed']}")
        if int(d["paths"]) < 1 or int(d["degree"]) < 0 or int(d["substeps"]) < 1:
            raise ConfigError(f"dual.paths >= 1, dual.degree >= 0 and dual.substeps >= 1 required, "
                              f"got {d['paths']}, {d['degree']} and {d['substeps']}")
        if not isinstance(r["phi"], str):
            raise ConfigError(f"unsupported regularize.phi {r['phi']!r}")
        check_shape = tuple(int(n) for n in r["check_shape"])
        if len(check_shape) != 2 or min(check_shape) < 1:
            raise ConfigError(f"regularize.check_shape needs two entries >= 1, got {list(check_shape)}")
        run = SimpleNamespace(
            cfg=cfg, out_dir=args.out or cfg["output"]["directory"], model=model, grid=grid,
            sim=sim, margin=margin,
            # an explicit start level is taken verbatim, margin applies to auto only
            y0=None if s["y0"] == "auto" else float(s["y0"]),
            box=box, eta=float(r["eta"]), tol=float(r["tol"]),
            eps_ladder=tuple(float(e) for e in r["eps_ladder"]),
            check_shape=check_shape,
            adversary=_parse_adversary(getattr(args, "adversary", "all"), len(model.A_points)),
            # phi = v + margin, v the solved surface (path None) or a surface.bin file
            phi=((None, float(r["phi"].split(":", 1)[1]))
                 if r["phi"].startswith("v-plus-margin:") else (r["phi"], 0.0)),
            dual=SimpleNamespace(
                **{key: int(d[key]) for key in ("knots", "degree", "paths", "seed", "substeps")},
                eps=float(d["eps"]), mid=None if d["mid"] is None else float(d["mid"])),
        )
        os.makedirs(run.out_dir, exist_ok=True)
    return run


def _solve_summary(run, args):
    """Validated solve of the run's model (unless --override-assumptions) and
    the summary that ``price`` and ``solve`` write: the price at (t0, x0),
    the CFL number, the residual and the hashes."""
    surface = hjb.solve(run.model, run.grid, validate=not args.override_assumptions)
    res = hjb.residual(surface, run.model)
    summary = {
        "price": surface.value(run.sim.t0, np.asarray(run.sim.x0, dtype=float)),
        "cfl": surface.meta["cfl"],
        "residual_max_abs": res.max_abs,
        "residual_min": res.min_value,
        "model_hash": surface.model_hash,
        "grid_hash": config_hash(run.cfg["grid"]),
    }
    return surface, summary


def cmd_price(args):
    t_start = time.monotonic()
    run = _prepare(args)
    _, summary = _solve_summary(run, args)
    summary.update(t0=run.sim.t0, x0=list(run.sim.x0))
    _write_json(os.path.join(run.out_dir, "price.json"), summary)
    write_manifest(run.out_dir, "price", run.cfg, ["price.json"], t_start, {})
    print(f"{summary['price']:.10g}")
    return EXIT_OK


def cmd_solve(args):
    t_start = time.monotonic()
    run = _prepare(args)
    out_dir, t0 = run.out_dir, run.sim.t0
    surface, summary = _solve_summary(run, args)
    artifacts = ["surface.csv", "surface.bin", "summary.json"]
    hjb.save_csv(surface, os.path.join(out_dir, "surface.csv"))
    hjb.save_binary(surface, os.path.join(out_dir, "surface.bin"))
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    if args.plots:
        emit_plot_data(surface, "value_slice", os.path.join(out_dir, "value_slice.tsv"), t0=t0)
        emit_plot_data(surface, "policy_map", os.path.join(out_dir, "policy_map.tsv"))
        artifacts += ["value_slice.tsv", "policy_map.tsv"]
    write_manifest(out_dir, "solve", run.cfg, artifacts, t_start, {})
    return EXIT_OK


def cmd_regularize(args):
    t_start = time.monotonic()
    run = _prepare(args)
    cfg, out_dir, model = run.cfg, run.out_dir, run.model
    # an unusable ladder, a box without a grid node or an unreadable phi file fails before any solve
    regularize.box_nodes(model, run.grid, run.box,
                         regularize.ladder_pad_layers(model, run.grid, run.eps_ladder))
    phi_path, phi_margin = run.phi
    # with a phi file no solve of the config's grid is read: the ladder's base solve validates
    surface = (hjb.solve(model, run.grid, validate=not args.override_assumptions)
               if phi_path is None else hjb.load_binary(phi_path))
    smooth = regularize.build_smooth_supersolution(
        model, regularize.phi_from_surface(surface, phi_margin), run.box, run.eta, run.grid,
        eps_ladder=run.eps_ladder, tol=run.tol, check_shape=run.check_shape,
        validate=phi_path is not None and not args.override_assumptions,
    )
    artifacts = ["certificate.json", "smooth.bin"]
    _write_json(os.path.join(out_dir, "certificate.json"), smooth.certificate.to_dict())
    save_smooth(smooth, os.path.join(out_dir, "smooth.bin"))
    if args.plots:
        emit_plot_data(smooth.certificate, "eps_curve", os.path.join(out_dir, "eps_curve.tsv"))
        artifacts.append("eps_curve.tsv")
    write_manifest(out_dir, "regularize", cfg, artifacts, t_start, {})
    return EXIT_OK


def _switch_rate(value, name):
    """A switch rate of the random adversary: finite and >= 0, as a float."""
    rate = float(value)
    if not 0.0 <= rate < np.inf:
        raise ConfigError(f"{name} must be finite and >= 0, got {rate}")
    return rate


def _parse_adversary(spec: str, n_A: int):
    """The adversary of ``--adversary constant:<index>`` or ``random:<rate>``,
    else ``all`` or ``worst`` as given; a malformed spec or an index outside
    the n_A adverse points is a ConfigError."""
    if spec in ("all", "worst"):
        return spec
    kind, _, arg = spec.partition(":")
    try:
        if kind == "constant":
            if not 0 <= int(arg) < n_A:
                raise ConfigError(f"--adversary {spec}: index outside the {n_A} A_points")
            return game.ConstantAdversary(int(arg))
        if kind == "random":
            return game.PiecewiseRandomAdversary(_switch_rate(arg, f"--adversary {spec}: the rate"))
    except ValueError as exc:
        raise ConfigError(f"malformed --adversary {spec!r}: {exc}") from None
    raise ConfigError(f"unknown adversary {spec!r}")


def cmd_simulate(args):
    t_start = time.monotonic()
    run = _prepare(args)
    cfg, out_dir, model = run.cfg, run.out_dir, run.model
    sim, margin, y0 = run.sim, run.margin, run.y0
    if args.surface:
        source = load_surface(args.surface)
        if source.model_hash != model.hash:
            raise ConfigError("surface cache was built from a different model")
    else:
        source = hjb.solve(model, run.grid, validate=not args.override_assumptions)
    artifacts = ["simreport.json"]
    status = EXIT_OK
    if run.adversary == "all":
        check = game.superhedge_check(model, source, margin, sim, y0=y0)
        payload = check.to_dict()
        reports = check.reports
        if not check.passed:
            status = EXIT_CERT
    else:
        strategy = game.make_strategy(source)
        if y0 is None:
            y0 = strategy.value(sim.t0, np.asarray(sim.x0)) + margin
        adv = game.MarkovWorstAdversary(source) if run.adversary == "worst" else run.adversary
        rep = game.simulate(model, strategy, adv, sim.t0, np.asarray(sim.x0),
                            y0, sim.paths, sim.steps, sim.seed)
        payload = rep.to_dict(sim.tol_sim)
        reports = [rep]
    _write_json(os.path.join(out_dir, "simreport.json"), payload)
    if args.per_path_csv:
        path = os.path.join(out_dir, "paths.csv")
        with open(path, "w") as fh:
            fh.write("path_id,adversary,terminal_gap,shortfall\n")
            for rep in reports:
                for i, (gap, sf) in enumerate(zip(rep.terminal_gap, rep.shortfall)):
                    fh.write(f"{i},{rep.adversary},{gap:.17g},{sf:.17g}\n")
        artifacts.append("paths.csv")
    if args.plots:
        emit_plot_data(reports[0], "shortfall_hist", os.path.join(out_dir, "shortfall_hist.tsv"))
        artifacts.append("shortfall_hist.tsv")
    write_manifest(out_dir, "simulate", cfg, artifacts, t_start,
                   {"sim": sim.seed})
    return status


def cmd_dual(args):
    t_start = time.monotonic()
    run = _prepare(args)
    cfg, out_dir, model, dv = run.cfg, run.out_dir, run.model, run.dual
    t0, x0 = run.sim.t0, np.asarray(run.sim.x0, dtype=float)
    lattice = dual.make_lattice(model, t0, dv.knots, dv.eps, substeps=dv.substeps)
    if dv.mid is not None:
        dual.mid_knot(model, t0, dv.mid, lattice)  # a bad mid date fails before the solve
    # the worst-case feedback: the argmin of the shaken solve on the config's grid (at eps = 0
    # the plain solve, bit for bit); a solve that fails exits as `solve` does on the config
    surface = hjb.solve(model, run.grid, terminal=shaken_payoff(model, dv.eps),
                        shake_points=shake_lattice(dv.eps, model.dim))
    if dv.mid is not None:
        payload = dual.dpp_check(model, dv.eps, t0, x0, dv.mid, lattice, dv.paths, dv.seed, dv.degree,
                                 policy=surface).to_dict()
    else:
        payload = dual.dual_value_lsmc(model, dv.eps, t0, x0, lattice, dv.degree, dv.paths, dv.seed,
                                       policy=surface).to_dict()
    _write_json(os.path.join(out_dir, "dual.json"), payload)
    write_manifest(out_dir, "dual", cfg, ["dual.json"], t_start, {"dual": dv.seed})
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are ConfigErrors (exit 2, one
    JSON error object); its subcommand parsers share the class."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser():
    parser = _Parser(prog="hedgegame", description="worst-case super-hedging engine")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("price", cmd_price), ("solve", cmd_solve),
                     ("regularize", cmd_regularize), ("simulate", cmd_simulate),
                     ("dual", cmd_dual)):
        p = sub.add_parser(name)
        p.add_argument("-c", "--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--set", action="append", metavar="PATH=VALUE")
        if name in ("solve", "regularize", "simulate"):
            p.add_argument("--plots", action="store_true")
        if name != "dual":
            p.add_argument("--override-assumptions", action="store_true")
        p.set_defaults(func=fn, shorthands=None)
        if name == "simulate":
            p.add_argument("--surface", default=None)
            p.add_argument("--adversary", default="all")
            p.add_argument("--y0", **_shorthand("sim.y0"))
            p.add_argument("--margin", **_shorthand("sim.margin"))
            p.add_argument("--per-path-csv", action="store_true")
        if name == "dual":
            p.add_argument("--mid", **_shorthand("dual.mid"))
    return parser


def _shorthand(path):
    """A flag that stands for --set PATH=VALUE (see _prepare)."""
    return {"dest": "shorthands", "action": "append", "metavar": "VALUE",
            "type": lambda value: f"{path}={value}"}


def _emit_error(kind, code, message):
    payload = {"error": {"kind": kind, "code": code, "message": str(message)}}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        _emit_error("config", EXIT_CONFIG, exc)
        return EXIT_CONFIG
    except hjb.NumericsError as exc:
        _emit_error("numerical", EXIT_NUMERICAL, exc)
        return EXIT_NUMERICAL
    except regularize.CertificationError as exc:
        _emit_error("certification", EXIT_CERT, exc)
        return EXIT_CERT
    except (HedgeGameError, OSError) as exc:
        _emit_error("config", EXIT_CONFIG, exc)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

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

import numpy as np

from . import __version__, dual, game, hjb, regularize
from .model import HedgeGameError, model_from_config, validate_assumptions

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
    "output": {"directory": "out", "formats": ["csv", "json"]},
}

_ALLOWED = {
    "model": {"kind", "dim", "A_points", "horizon_T", "lipschitz_K", "finance", "payoff"},
    "model.finance": {"mu", "sigma", "r_lend", "r_borrow"},
    "grid": {"t_steps", "x_min", "x_max", "x_steps", "boundary_mode"},
    "regularize": {"eps_ladder", "eta", "tol", "B", "check_shape", "phi"},
    "regularize.B": {"t", "x"},
    "sim": {"paths", "steps", "seed", "tol_sim", "p_sim", "margin", "t0", "x0",
            "y0", "switch_rate"},
    "dual": {"knots", "degree", "paths", "eps", "seed", "substeps", "mid"},
    "output": {"directory", "formats"},
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
    g.setdefault("boundary_mode", "extrapolate_linear")

    for section, defaults in _DEFAULTS.items():
        body = cfg.setdefault(section, {})
        _check_keys(body, _ALLOWED[section], section)
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
    cfg = apply_overrides(cfg, overrides)
    return validate_config(cfg)


def grid_from_config(gcfg: dict) -> hjb.GridSpec:
    return hjb.GridSpec(
        t_steps=int(gcfg["t_steps"]),
        x_min=tuple(gcfg["x_min"]),
        x_max=tuple(gcfg["x_max"]),
        x_steps=tuple(gcfg["x_steps"]),
        boundary_mode=gcfg["boundary_mode"],
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
        header = "eps\tmax_B_gap"
        rows = [f"{e:.17g}\t{c:.17g}" for e, c in obj.c_curve]
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
    """Config, output directory, model and grid; bad values are ConfigErrors."""
    with _config_values():
        cfg = load_config(args.config, args.set)
        out_dir = args.out or cfg["output"]["directory"]
        os.makedirs(out_dir, exist_ok=True)
        model = model_from_config(cfg["model"])
        grid = grid_from_config(cfg["grid"])
    return cfg, out_dir, model, grid


def _checked_solve(model, grid, args):
    if not args.override_assumptions:
        rep = validate_assumptions(model, sample_count=256, rng_seed=0,
                                   x_box=(min(grid.x_min), max(grid.x_max)))
        if not rep.ok:
            raise ConfigError("model violates standing assumptions:\n" + rep.summary())
    return hjb.solve(model, grid, validate=False)


def cmd_price(args):
    t_start = time.monotonic()
    cfg, out_dir, model, grid = _prepare(args)
    with _config_values():
        x0, t0 = np.asarray(cfg["sim"]["x0"], dtype=float), float(cfg["sim"]["t0"])
    surface = _checked_solve(model, grid, args)
    price = surface.value(t0, x0)
    res = hjb.residual(surface, model)
    summary = {
        "price": price,
        "t0": t0,
        "x0": list(x0),
        "cfl": surface.meta["cfl"],
        "residual_max_abs": res.max_abs,
        "residual_min": res.min_value,
        "grid_hash": config_hash(cfg["grid"]),
        "model_hash": surface.model_hash,
    }
    _write_json(os.path.join(out_dir, "price.json"), summary)
    write_manifest(out_dir, "price", cfg, ["price.json"], t_start, {})
    print(f"{price:.10g}")
    return EXIT_OK


def cmd_solve(args):
    t_start = time.monotonic()
    cfg, out_dir, model, grid = _prepare(args)
    with _config_values():
        x0, t0 = np.asarray(cfg["sim"]["x0"], dtype=float), float(cfg["sim"]["t0"])
    surface = _checked_solve(model, grid, args)
    artifacts = ["surface.csv", "surface.bin", "summary.json"]
    hjb.save_csv(surface, os.path.join(out_dir, "surface.csv"))
    hjb.save_binary(surface, os.path.join(out_dir, "surface.bin"))
    res = hjb.residual(surface, model)
    _write_json(os.path.join(out_dir, "summary.json"), {
        "price": surface.value(t0, x0),
        "cfl": surface.meta["cfl"],
        "residual_max_abs": res.max_abs,
        "residual_min": res.min_value,
        "model_hash": surface.model_hash,
        "grid_hash": config_hash(cfg["grid"]),
    })
    if args.plots:
        emit_plot_data(surface, "value_slice", os.path.join(out_dir, "value_slice.tsv"), t0=t0)
        emit_plot_data(surface, "policy_map", os.path.join(out_dir, "policy_map.tsv"))
        artifacts += ["value_slice.tsv", "policy_map.tsv"]
    write_manifest(out_dir, "solve", cfg, artifacts, t_start, {})
    return EXIT_OK


def _phi_for(cfg, model, surface):
    spec = cfg["regularize"]["phi"]
    if isinstance(spec, str) and spec.startswith("v-plus-margin:"):
        margin = float(spec.split(":", 1)[1])
        return regularize.phi_from_surface(surface, margin)
    if isinstance(spec, str):
        other = hjb.load_binary(spec)
        return regularize.phi_from_surface(other, 0.0)
    raise ConfigError(f"unsupported regularize.phi {spec!r}")


def _box_for(cfg, grid, horizon_T):
    bcfg = cfg["regularize"]["B"]
    if bcfg is None:
        # central half of the grid in every axis, full time range
        x_lo = [lo + 0.25 * (hi - lo) for lo, hi in zip(grid.x_min, grid.x_max)]
        x_hi = [hi - 0.25 * (hi - lo) for lo, hi in zip(grid.x_min, grid.x_max)]
        return regularize.Box(0.0, horizon_T, tuple(x_lo), tuple(x_hi))
    with _config_values():
        return regularize.Box(float(bcfg["t"][0]), float(bcfg["t"][1]),
                              tuple(float(lo) for lo, _ in bcfg["x"]),
                              tuple(float(hi) for _, hi in bcfg["x"]))


def cmd_regularize(args):
    t_start = time.monotonic()
    cfg, out_dir, model, grid = _prepare(args)
    surface = _checked_solve(model, grid, args)
    box = _box_for(cfg, grid, model.horizon_T)
    rcfg = cfg["regularize"]
    with _config_values():
        eta, tol = float(rcfg["eta"]), float(rcfg["tol"])
        eps_ladder = tuple(float(e) for e in rcfg["eps_ladder"])
        check_shape = tuple(int(n) for n in rcfg["check_shape"])
    smooth = regularize.build_smooth_supersolution(
        model, _phi_for(cfg, model, surface), box, eta, grid,
        eps_ladder=eps_ladder, tol=tol, check_shape=check_shape, validate=False,
    )
    artifacts = ["certificate.json", "smooth.bin"]
    _write_json(os.path.join(out_dir, "certificate.json"), smooth.certificate.to_dict())
    save_smooth(smooth, os.path.join(out_dir, "smooth.bin"))
    if args.plots:
        emit_plot_data(smooth.certificate, "eps_curve", os.path.join(out_dir, "eps_curve.tsv"))
        artifacts.append("eps_curve.tsv")
    write_manifest(out_dir, "regularize", cfg, artifacts, t_start, {})
    return EXIT_OK


def _parse_adversary(spec: str, model, policy_surface):
    if spec.startswith("constant:"):
        return game.ConstantAdversary(int(spec.split(":", 1)[1]))
    if spec.startswith("random:"):
        return game.PiecewiseRandomAdversary(float(spec.split(":", 1)[1]))
    if spec == "worst":
        if not isinstance(policy_surface, hjb.ValueSurface):
            raise ConfigError("worst adversary needs a surface with a policy grid")
        return game.MarkovWorstAdversary(policy_surface)
    raise ConfigError(f"unknown adversary {spec!r}")


def cmd_simulate(args):
    t_start = time.monotonic()
    cfg, out_dir, model, grid = _prepare(args)
    scfg = cfg["sim"]
    if args.surface:
        source = load_surface(args.surface)
        if source.model_hash != model.hash:
            raise ConfigError("surface cache was built from a different model")
    else:
        source = _checked_solve(model, grid, args)
    with _config_values():
        margin = float(args.margin if args.margin is not None else scfg["margin"])
        sim = game.SimParams(
            x0=tuple(float(v) for v in scfg["x0"]), t0=float(scfg["t0"]),
            paths=int(scfg["paths"]), steps=int(scfg["steps"]), seed=int(scfg["seed"]),
            tol_sim=float(scfg["tol_sim"]), p_sim=float(scfg["p_sim"]),
            switch_rate=float(scfg["switch_rate"]),
        )
        # an explicit start level is taken verbatim, margin applies to auto only
        auto_y0 = str(scfg["y0"]) == "auto" and args.y0 is None
        y0 = None if auto_y0 else float(args.y0 if args.y0 is not None else scfg["y0"])
    artifacts = ["simreport.json"]
    status = EXIT_OK
    if args.adversary == "all":
        check = game.superhedge_check(model, source, margin, sim)
        payload = check.to_dict()
        reports = check.reports
        if not check.passed:
            status = EXIT_CERT
    else:
        strategy = game.make_strategy(source, model)
        if y0 is None:
            y0 = strategy.value(sim.t0, np.asarray(sim.x0)) + margin
        adv = _parse_adversary(args.adversary, model, source)
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
    cfg, out_dir, model, _ = _prepare(args)
    dcfg = cfg["dual"]
    with _config_values():
        t0, x0 = float(cfg["sim"]["t0"]), np.asarray(cfg["sim"]["x0"], dtype=float)
        knots, degree, paths, seed, substeps = (
            int(dcfg[key]) for key in ("knots", "degree", "paths", "seed", "substeps"))
        eps, mid = float(dcfg["eps"]), args.mid if args.mid is not None else dcfg["mid"]
        mid = None if mid is None else float(mid)
    lattice = dual.make_lattice(model, t0, knots, eps, substeps=substeps)
    if mid is not None:
        rep = dual.dpp_check(model, eps, t0, x0, mid, lattice, paths, seed, degree)
        payload = rep.to_dict()
    else:
        est = dual.dual_value_lsmc(model, eps, t0, x0, lattice, degree, paths, seed)
        payload = est.to_dict()
    _write_json(os.path.join(out_dir, "dual.json"), payload)
    write_manifest(out_dir, "dual", cfg, ["dual.json"], t_start,
                   {"dual": seed})
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(prog="hedgegame",
                                     description="worst-case super-hedging engine")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("price", cmd_price), ("solve", cmd_solve),
                     ("regularize", cmd_regularize), ("simulate", cmd_simulate),
                     ("dual", cmd_dual)):
        p = sub.add_parser(name)
        p.add_argument("-c", "--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--set", action="append", metavar="PATH=VALUE")
        p.add_argument("--plots", action="store_true")
        p.add_argument("--override-assumptions", action="store_true")
        p.set_defaults(func=fn)
        if name == "simulate":
            p.add_argument("--surface", default=None)
            p.add_argument("--adversary", default="all")
            p.add_argument("--y0", default=None)
            p.add_argument("--margin", type=float, default=None)
            p.add_argument("--per-path-csv", action="store_true")
        if name == "dual":
            p.add_argument("--mid", type=float, default=None)
    return parser


def _emit_error(kind, code, message):
    payload = {"error": {"kind": kind, "code": code, "message": str(message)}}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
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

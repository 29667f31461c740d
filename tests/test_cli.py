import json
import warnings

import numpy as np
import pytest

from hedgegame import cli
from hedgegame.cli import (
    ConfigError,
    apply_overrides,
    config_hash,
    emit_plot_data,
    load_smooth,
    main,
    save_smooth,
    validate_config,
)
from hedgegame.model import HedgeGameError
from hedgegame.regularize import SmoothSurface

from conftest import cli_in_child


def base_config(**model_overrides):
    cfg = {
        "model": {
            "kind": "finance",
            "dim": 1,
            "A_points": [[0.2]],
            "horizon_T": 1.0,
            "lipschitz_K": 0.2,
            "finance": {
                "mu": {"type": "constant", "value": 0.0},
                "sigma": {"type": "affine_in_a"},
                "r_lend": {"type": "constant", "value": 0.0},
                "r_borrow": {"type": "constant", "value": 0.0},
            },
            "payoff": {"type": "constant", "level": 1.0},
        },
        "grid": {"t_steps": 60, "x_min": [-1.0], "x_max": [1.0], "x_steps": [40]},
        "sim": {"paths": 200, "steps": 20, "seed": 5},
    }
    cfg["model"].update(model_overrides)
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestConfig:
    def test_roundtrip_stable(self):
        cfg = validate_config(base_config())
        again = validate_config(json.loads(json.dumps(cfg)))
        assert cfg == again

    def test_unknown_keys_rejected(self):
        raw = base_config()
        raw["grid"]["banana"] = 1
        with pytest.raises(ConfigError, match="banana"):
            validate_config(raw)

    def test_unknown_section_rejected(self):
        raw = base_config()
        raw["extra"] = {}
        with pytest.raises(ConfigError, match="extra"):
            validate_config(raw)

    def test_missing_required(self):
        raw = base_config()
        del raw["model"]["payoff"]
        with pytest.raises(ConfigError, match="payoff"):
            validate_config(raw)

    def test_overrides_parse_json(self):
        cfg = validate_config(base_config())
        apply_overrides(cfg, ["sim.paths=999", "regularize.phi=\"v-plus-margin:0.5\""])
        assert cfg["sim"]["paths"] == 999
        assert cfg["regularize"]["phi"] == "v-plus-margin:0.5"

    def test_override_unknown_path(self):
        cfg = validate_config(base_config())
        with pytest.raises(ConfigError, match="override"):
            apply_overrides(cfg, ["sim.nope=1"])

    def test_x0_default_follows_a_dim_set_by_an_override(self, tmp_path):
        # the default sim.x0 = [0] * dim is derived after --set; a set x0 stays
        path = write_config(tmp_path, base_config())
        assert cli.load_config(path, ["model.dim=2"])["sim"]["x0"] == [0.0, 0.0]
        assert cli.load_config(path)["sim"]["x0"] == [0.0]
        assert cli.load_config(path, ["model.dim=2", "sim.x0=[0.5,0.5]"])["sim"]["x0"] == [0.5, 0.5]
        cfg = base_config()
        cfg["sim"]["x0"] = [0.25]
        assert cli.load_config(write_config(tmp_path, cfg, "x0.json"), ["model.dim=2"])["sim"]["x0"] == [0.25]

    def test_hash_stable_under_key_order(self):
        a = validate_config(base_config())
        b = json.loads(json.dumps(a))
        shuffled = {k: b[k] for k in reversed(list(b))}
        assert config_hash(a) == config_hash(shuffled)


class TestPriceCommand:
    def test_constant_payoff_prints_one(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        rc = main(["price", "-c", path, "--out", str(tmp_path / "out")])
        assert rc == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(1.0, abs=1e-12)
        summary = json.loads((tmp_path / "out" / "price.json").read_text())
        assert summary["price"] == pytest.approx(1.0, abs=1e-12)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["config_hash"]
        assert "price.json" in manifest["artifacts"]

    def test_reversed_rates_exit_2(self, tmp_path, capsys):
        cfg = base_config()
        cfg["model"]["finance"]["r_lend"] = {"type": "constant", "value": 0.05}
        cfg["model"]["finance"]["r_borrow"] = {"type": "constant", "value": 0.02}
        path = write_config(tmp_path, cfg)
        rc = main(["price", "-c", path, "--out", str(tmp_path / "out")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"]["kind"] == "config"
        assert "assumption" in err["error"]["message"]

    def test_lipschitz_below_vol_bound_exit_2_unless_overridden(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(lipschitz_K=0.1))  # vol 0.2 > K
        rc = main(["price", "-c", path, "--out", str(tmp_path / "out")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"]["kind"] == "config"
        assert "standing assumptions" in err["error"]["message"]
        rc = main(["price", "-c", path, "--out", str(tmp_path / "out"), "--override-assumptions"])
        assert rc == 0
        assert json.loads((tmp_path / "out" / "price.json").read_text())["price"] \
            == pytest.approx(1.0, abs=1e-12)

    def test_cfl_violation_exit_3(self, tmp_path, capsys):
        cfg = base_config()
        cfg["grid"] = {"t_steps": 2, "x_min": [-1.0], "x_max": [1.0], "x_steps": [200]}
        path = write_config(tmp_path, cfg)
        rc = main(["price", "-c", path, "--out", str(tmp_path / "out")])
        assert rc == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"]["kind"] == "numerical"

    def test_missing_config_exit_2(self, tmp_path, capsys):
        rc = main(["price", "-c", str(tmp_path / "nope.json")])
        assert rc == 2

    def test_a_passive_second_axis_prices_the_1d_claim_bit_for_bit(self, tmp_path):
        # the tiny two-rate call spread (100 x 40) and the same config set to
        # d = 2 with a second axis the claim and the dynamics ignore, no
        # sim.x0 in either: the d = 2 sweep puts exact zeros on the passive axis
        cfg = base_config(A_points=[[0.1], [0.3]], lipschitz_K=0.3,
                          payoff={"type": "call_spread", "strike": 1.0, "cap": 1.4})
        cfg["model"]["finance"]["r_lend"]["value"] = 0.02
        cfg["model"]["finance"]["r_borrow"]["value"] = 0.05
        cfg["grid"] = {"t_steps": 100, "x_min": [-1.8], "x_max": [1.8], "x_steps": [40]}
        del cfg["sim"]
        path = write_config(tmp_path, cfg)
        prices = []
        for extra in ([], ["model.dim=2", "grid.x_min=[-1.8,-0.5]", "grid.x_max=[1.8,0.5]",
                           "grid.x_steps=[40,10]"]):
            out = tmp_path / f"out{len(extra)}"
            assert main(["price", "-c", path, "--out", str(out)] + [f"--set={s}" for s in extra]) == 0
            prices.append(json.loads((out / "price.json").read_text())["price"])
        assert prices[1] == prices[0]
        assert prices[0] == pytest.approx(0.13054676803271406, rel=1e-12)


class TestSolveSimulatePipeline:
    def test_solve_then_simulate_auto(self, tmp_path):
        cfg = base_config(payoff={"type": "call_spread", "strike": 1.0, "cap": 1.4})
        cfg["grid"] = {"t_steps": 120, "x_min": [-1.2], "x_max": [1.2], "x_steps": [60]}
        cfg["sim"] = {"paths": 500, "steps": 200, "seed": 5}
        path = write_config(tmp_path, cfg)
        out1 = str(tmp_path / "solve")
        assert main(["solve", "-c", path, "--out", out1, "--plots"]) == 0
        out2 = str(tmp_path / "sim")
        rc = main(["simulate", "-c", path, "--out", out2,
                   "--surface", f"{out1}/surface.bin", "--per-path-csv"])
        assert rc == 0
        rep = json.loads((tmp_path / "sim" / "simreport.json").read_text())
        assert rep["passed"] is True
        lines = (tmp_path / "sim" / "paths.csv").read_text().strip().split("\n")
        assert lines[0].startswith("path_id,")

    def test_simulate_single_adversary(self, tmp_path):
        cfg = base_config()
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "out")
        rc = main(["simulate", "-c", path, "--out", out,
                   "--adversary", "constant:0", "--plots"])
        assert rc == 0
        rep = json.loads((tmp_path / "out" / "simreport.json").read_text())
        assert rep["adversary"] == "constant:0"
        hist = (tmp_path / "out" / "shortfall_hist.tsv").read_text().strip().split("\n")
        counts = sum(int(line.split("\t")[1]) for line in hist[1:])
        assert counts == rep["n_paths"]

    def test_simulate_undercapitalized_exit_4(self, tmp_path):
        cfg = base_config(payoff={"type": "call_spread", "strike": 1.0, "cap": 1.4})
        cfg["grid"] = {"t_steps": 120, "x_min": [-1.2], "x_max": [1.2], "x_steps": [60]}
        cfg["sim"] = {"paths": 500, "steps": 200, "seed": 5, "margin": -0.1}
        path = write_config(tmp_path, cfg)
        rc = main(["simulate", "-c", path, "--out", str(tmp_path / "out")])
        assert rc == 4

    @pytest.mark.parametrize("adversary", ["all", "worst", "random:4", "constant:0"])
    def test_explicit_y0_is_the_start_level_for_every_adversary(self, tmp_path, adversary):
        # the constant claim pays 1 on every path: started from 0, every path falls short,
        # and --margin (which applies to y0 auto only) does not lift the start level
        path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        rc = main(["simulate", "-c", path, "--out", str(out), "--y0", "0", "--margin", "0.5",
                   "--adversary", adversary])
        assert rc == (4 if adversary == "all" else 0)
        rep = json.loads((out / "simreport.json").read_text())
        runs = rep.get("runs", [rep])
        assert rep["y0"] == 0.0 and all(run["y0"] == 0.0 for run in runs)
        assert adversary != "all" or rep["margin"] is None
        assert all(run["shortfall_prob"] == 1.0 for run in runs)

    def test_surface_model_mismatch(self, tmp_path, capsys):
        cfg = base_config(payoff={"type": "call_spread", "strike": 1.0, "cap": 1.4})
        cfg["grid"] = {"t_steps": 120, "x_min": [-1.2], "x_max": [1.2], "x_steps": [60]}
        path = write_config(tmp_path, cfg)
        out1 = str(tmp_path / "solve")
        assert main(["solve", "-c", path, "--out", out1]) == 0
        cfg2 = base_config(payoff={"type": "call", "strike": 1.0})
        cfg2["grid"] = cfg["grid"]
        path2 = write_config(tmp_path, cfg2, "cfg2.json")
        rc = main(["simulate", "-c", path2, "--out", str(tmp_path / "o2"),
                   "--surface", f"{out1}/surface.bin"])
        assert rc == 2


def error_payload(capsys):
    """The JSON error object of the last run, read from stderr."""
    return json.loads(capsys.readouterr().err.strip().split("\n")[-1])["error"]


class TestExitCodeContract:
    def test_zero_paths_fail_closed(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        rc = main(["simulate", "-c", path, "--out", str(out), "--set", "sim.paths=0"])
        assert rc == 4
        rep = json.loads((out / "simreport.json").read_text())
        assert rep["passed"] is False
        assert all(run["n_paths"] == 0 for run in rep["runs"])

    def test_non_integer_dim_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        rc = main(["price", "-c", path, "--out", str(tmp_path / "out"),
                   "--set", 'model.dim="x"'])
        assert rc == 2
        assert error_payload(capsys)["code"] == 2

    def test_non_numeric_grid_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        rc = main(["price", "-c", path, "--out", str(tmp_path / "out"),
                   "--set", 'grid.x_steps=["x"]'])
        assert rc == 2
        assert error_payload(capsys)["kind"] == "config"

    def test_truncated_surface_cache_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["solve", "-c", path, "--out", str(out)]) == 0
        blob = (out / "surface.bin").read_bytes()
        rng = np.random.default_rng(4242)
        cuts = sorted(set(rng.integers(0, len(blob), 18).tolist()) | {0, 300, len(blob) - 1})
        for cut in cuts:
            bad = tmp_path / f"cut{cut}.bin"
            bad.write_bytes(blob[:cut])
            capsys.readouterr()
            rc = main(["simulate", "-c", path, "--out", str(tmp_path / "sim"),
                       "--surface", str(bad)])
            assert rc == 2, f"truncation at byte {cut} exited {rc}"
            assert error_payload(capsys)["code"] == 2

    def test_garbled_surface_header_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["solve", "-c", path, "--out", str(out)]) == 0
        blob = bytearray((out / "surface.bin").read_bytes())
        blob[20:40] = b"\xff" * 20
        bad = tmp_path / "garbled.bin"
        bad.write_bytes(bytes(blob))
        rc = main(["simulate", "-c", path, "--out", str(tmp_path / "sim"), "--surface", str(bad)])
        assert rc == 2
        assert error_payload(capsys)["kind"] == "config"

    @pytest.mark.parametrize("entry", [2, -1])
    def test_policy_entry_outside_its_pairs_exit_2(self, tmp_path, capsys, entry):
        # two adverse points: a policy entry of 2 or -1 names no pair, so the worst-case
        # adversary would advance no path at it; the cache is corrupt
        cfg = base_config(A_points=[[0.1], [0.3]], lipschitz_K=0.3)
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["solve", "-c", path, "--out", str(out)]) == 0
        blob = bytearray((out / "surface.bin").read_bytes())
        policy_bytes = 61 * 41 * 4  # the <i4 policy section ends the file
        at = len(blob) - policy_bytes + 4 * (30 * 41 + 20)
        blob[at:at + 4] = np.array([entry], dtype="<i4").tobytes()
        bad = tmp_path / "bad-policy.bin"
        bad.write_bytes(bytes(blob))
        capsys.readouterr()
        rc = main(["simulate", "-c", path, "--out", str(tmp_path / "sim"), "--surface", str(bad),
                   "--adversary", "worst"])
        assert rc == 2
        lines = capsys.readouterr().err.strip().split("\n")
        err = json.loads(lines[0])["error"]
        assert len(lines) == 1 and err["code"] == 2 and "corrupt cache file" in err["message"]
        assert not (tmp_path / "sim" / "simreport.json").exists()

    @pytest.mark.parametrize("command, override", [
        ("simulate", 'sim.paths="x"'),
        ("dual", 'dual.knots="x"'),
        ("regularize", 'regularize.B={"t":[0],"x":[[0,1]]}'),
        ("regularize", 'regularize.B={"t":[0,1],"x":[[-0.5,0.5],[-0.5,0.5]]}'),
        ("regularize", 'regularize.B={"t":[0,1],"x":[]}'),
        ("price", 'sim.x0=["x"]'),
        ("solve", 'sim.t0="x"'),
        ("price", "sim.x0=[0.0,0.5]"),
        ("simulate", "sim.x0=[0.0,0.5]"),
        ("dual", "sim.x0=[0.0,0.5]"),
        ("solve", "sim.x0=[]"),
        ("simulate", "sim.t0=2.0"),
        ("price", 'grid.boundary_mode="clamp_payoff"'),
        ("solve", 'output.formats=["csv"]'),
        ("regularize", "regularize.check_shape=[0,100]"),
        ("regularize", "regularize.check_shape=[50,0]"),
        # one time step passes the CFL check on 4 cells but leaves no interior layer
        ("price", 'grid={"t_steps":1,"x_min":[-1.0],"x_max":[1.0],"x_steps":[4]}'),
        ("solve", 'grid={"t_steps":1,"x_min":[-1.0],"x_max":[1.0],"x_steps":[4]}'),
        # run sizes: negative path counts and seeds, no dual path, no usable eps
        ("simulate", "sim.paths=-1"),
        ("simulate", "sim.seed=-3"),
        ("dual", "dual.paths=-1"),
        ("dual", "dual.seed=-1"),
        ("dual", "dual.paths=0"),
        ("regularize", "regularize.eps_ladder=[]"),
        ("regularize", "regularize.eps_ladder=[0.0]"),
        # non-finite values
        ("price", "grid.x_min=[NaN]"),
        ("price", "grid.x_max=[Infinity]"),
        ("price", "model.horizon_T=Infinity"),
        ("price", "sim.x0=[NaN]"),
        ("regularize", "regularize.eta=NaN"),
        ("dual", "dual.eps=NaN"),
        ("dual", "dual.eps=Infinity"),
        ("simulate", "sim.p_sim=NaN"),
        ("simulate", "sim.tol_sim=NaN"),
        ("simulate", "sim.switch_rate=Infinity"),
        # a negative switch rate never switches
        ("simulate", "sim.switch_rate=-3"),
        ("simulate", "sim.margin=NaN"),
    ])
    def test_bad_section_value_exit_2(self, tmp_path, capsys, command, override):
        path = write_config(tmp_path, base_config())
        rc = main([command, "-c", path, "--out", str(tmp_path / "out"), "--set", override])
        assert rc == 2
        err = error_payload(capsys)
        assert err["kind"] == "config" and err["code"] == 2
        assert not (tmp_path / "out" / "dual.json").exists()

    @pytest.mark.parametrize("adversary", [
        "random:abc", "random:-3", "random:nan", "random:inf", "constant:x", "constant:1.5",
    ])
    def test_malformed_adversary_exit_2(self, tmp_path, capsys, adversary):
        path = write_config(tmp_path, base_config())
        rc = main(["simulate", "-c", path, "--out", str(tmp_path / "out"),
                   "--adversary", adversary])
        assert rc == 2
        lines = capsys.readouterr().err.strip().split("\n")
        err = json.loads(lines[0])["error"]
        assert len(lines) == 1 and err["kind"] == "config" and err["code"] == 2
        assert not (tmp_path / "out" / "simreport.json").exists()

    @pytest.mark.parametrize("adversary", ["random:abc", "constant:7"])
    def test_adversary_checked_before_the_solve(self, tmp_path, capsys, monkeypatch, adversary):
        # a malformed spec, or an index outside the one adverse point, exits 2 before any solve
        solves, solve = [], cli.hjb.solve
        monkeypatch.setattr(cli.hjb, "solve", lambda *a, **kw: solves.append(a) or solve(*a, **kw))
        path = write_config(tmp_path, base_config())
        rc = main(["simulate", "-c", path, "--out", str(tmp_path / "out"), "--adversary", adversary])
        assert rc == 2 and solves == []
        err = error_payload(capsys)
        assert err["kind"] == "config" and err["code"] == 2

    def test_single_adversary_zero_paths_exit_2(self, tmp_path, capsys):
        # one game run on no path measures nothing; the full check still fails closed (exit 4)
        path = write_config(tmp_path, base_config())
        rc = main(["simulate", "-c", path, "--out", str(tmp_path / "out"),
                   "--adversary", "constant:0", "--set", "sim.paths=0"])
        assert rc == 2
        assert error_payload(capsys)["code"] == 2
        assert not (tmp_path / "out" / "simreport.json").exists()

    @pytest.mark.parametrize("command, flag", [
        ("price", "--plots"), ("dual", "--plots"), ("dual", "--override-assumptions"),
    ])
    def test_flag_the_command_would_ignore_exit_2(self, tmp_path, capsys, command, flag):
        path = write_config(tmp_path, base_config())
        assert main([command, "-c", path, "--out", str(tmp_path / "out"), flag]) == 2
        err = capsys.readouterr().err.strip()
        payload = json.loads(err)  # one JSON object, no usage text
        assert payload["error"]["kind"] == "config" and payload["error"]["code"] == 2
        assert "unrecognized arguments" in payload["error"]["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [["--help"], ["price", "--help"]], ids=["top", "price"])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out = capsys.readouterr()
        assert out.out.startswith("usage: hedgegame") and out.err == ""

    @pytest.mark.parametrize("command, flag, override, artifact", [
        ("simulate", ["--margin", "0.1"], "sim.margin=0.1", "simreport.json"),
        ("simulate", ["--y0", "1.5"], "sim.y0=1.5", "simreport.json"),
        ("dual", ["--mid", "0.5"], "dual.mid=0.5", "dual.json"),
    ], ids=["margin", "y0", "mid"])
    def test_shorthand_flag_is_its_set_entry(self, tmp_path, command, flag, override, artifact):
        cfg = base_config()
        cfg["sim"]["paths"] = 50
        cfg["dual"] = {"knots": 4, "paths": 500, "substeps": 5}
        path = write_config(tmp_path, cfg)
        key = override.split("=")[0]
        runs = {}
        # the flag applies after every --set entry, wherever it stands
        for name, extra in (("none", []), ("set", ["--set", override]),
                            ("flag", flag + ["--set", f"{key}=0.25"])):
            out = tmp_path / name
            argv = [command, "-c", path, "--out", str(out)] + extra
            assert main(argv + (["--adversary", "constant:0"] if command == "simulate" else [])) == 0
            runs[name] = (json.loads((out / "manifest.json").read_text())["config_hash"],
                          json.loads((out / artifact).read_text()))
        assert runs["flag"] == runs["set"]
        assert runs["flag"][0] != runs["none"][0]
        assert runs["flag"][1] != runs["none"][1]

    def test_missing_surface_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        rc = main(["simulate", "-c", path, "--out", str(tmp_path / "sim"),
                   "--surface", str(tmp_path / "absent.bin")])
        assert rc == 2
        assert error_payload(capsys)["code"] == 2


class TestDualCommand:
    def test_dual_constant(self, tmp_path):
        cfg = base_config()
        cfg["dual"] = {"knots": 2, "degree": 2, "paths": 1000, "eps": 0.0,
                       "seed": 3, "substeps": 5}
        path = write_config(tmp_path, cfg)
        rc = main(["dual", "-c", path, "--out", str(tmp_path / "out")])
        assert rc == 0
        est = json.loads((tmp_path / "out" / "dual.json").read_text())
        assert est["value"] == pytest.approx(1.0, abs=1e-10)

    def test_dual_dpp_mode(self, tmp_path):
        cfg = base_config()
        cfg["dual"] = {"knots": 4, "degree": 2, "paths": 1000, "eps": 0.0,
                       "seed": 3, "substeps": 5}
        path = write_config(tmp_path, cfg)
        rc = main(["dual", "-c", path, "--out", str(tmp_path / "out"), "--mid", "0.5"])
        assert rc == 0
        rep = json.loads((tmp_path / "out" / "dual.json").read_text())
        assert rep["difference"] <= 1e-9

    @pytest.mark.parametrize("overrides", [
        ["grid.t_steps=2"],
        ["model.lipschitz_K=0.1"],
        ["model.A_points=[[0.03]]", 'model.finance.r_borrow={"type": "constant", "value": 0.05}'],
    ], ids=["cfl", "assumptions", "peclet"])
    def test_a_failing_solve_exits_as_solve_does(self, tmp_path, capsys, overrides):
        # dual plays the solve's argmin, so it fails where the solve fails,
        # with the same code and one JSON error object, before any path
        path = write_config(tmp_path, base_config())
        codes = []
        for command in ("solve", "dual"):
            sets = [arg for o in overrides for arg in ("--set", o)]
            codes.append(main([command, "-c", path, "--out", str(tmp_path / command)] + sets))
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1 and json.loads(err)["error"]["code"] == codes[-1]
        assert codes[0] == codes[1] != 0
        assert not (tmp_path / "dual" / "dual.json").exists()

    # base_config's coefficients read neither t nor x, so its lattice takes one step
    # whatever dual.substeps asks; a substeps below 1 is still refused
    @pytest.mark.parametrize("override", ["dual.paths=0", "dual.degree=-1", "dual.substeps=0"])
    def test_run_sizes_rejected_before_any_solve(self, tmp_path, capsys, monkeypatch, override):
        def solve(*args, **kwargs):
            raise AssertionError("dual solved before checking its run sizes")

        monkeypatch.setattr(cli.hjb, "solve", solve)
        path = write_config(tmp_path, base_config())
        for mid in ([], ["--mid", "0.5"]):
            assert main(["dual", "-c", path, "--out", str(tmp_path / "out"), "--set", override] + mid) == 2
            err = error_payload(capsys)
            assert err["kind"] == "config" and err["code"] == 2 and override.split("=")[0] in err["message"]
        assert not (tmp_path / "out" / "dual.json").exists()

    @pytest.mark.parametrize("mid", ["0.3", "1.5", "0.0"])
    def test_bad_mid_rejected_before_any_solve(self, tmp_path, capsys, monkeypatch, mid):
        # the 4-knot lattice's interior knots are 0.25, 0.5 and 0.75
        def solve(*args, **kwargs):
            raise AssertionError("dual solved before checking its mid date")

        monkeypatch.setattr(cli.hjb, "solve", solve)
        path = write_config(tmp_path, base_config())
        assert main(["dual", "-c", path, "--out", str(tmp_path / "out"), "--mid", mid]) == 2
        err = error_payload(capsys)
        assert err["kind"] == "config" and err["code"] == 2 and "mid_time" in err["message"]
        assert not (tmp_path / "out" / "dual.json").exists()

    def test_dpp_mode_honours_degree(self, tmp_path):
        cfg = base_config()
        cfg["dual"] = {"knots": 4, "degree": 2, "paths": 500, "eps": 0.0,
                       "seed": 3, "substeps": 5}
        path = write_config(tmp_path, cfg)
        rc = main(["dual", "-c", path, "--out", str(tmp_path / "out"),
                   "--set", "dual.degree=1", "--mid", "0.5"])
        assert rc == 0
        rep = json.loads((tmp_path / "out" / "dual.json").read_text())
        assert rep["direct"]["basis_degree"] == 1
        assert rep["composed"]["basis_degree"] == 1


class TestRegularizeCommand:
    def test_constant_model_certifies(self, tmp_path):
        cfg = base_config()
        cfg["grid"]["x_steps"] = [50]  # keep the mollifier above one cell
        cfg["regularize"] = {
            "eta": 0.5, "tol": 1e-3, "eps_ladder": [0.2, 0.1],
            "B": {"t": [0.0, 1.0], "x": [[-0.5, 0.5]]},
            "check_shape": [10, 20], "phi": "v-plus-margin:1.0",
        }
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "out")
        rc = main(["regularize", "-c", path, "--out", out, "--plots"])
        assert rc == 0
        cert = json.loads((tmp_path / "out" / "certificate.json").read_text())
        assert cert["passed"] is True
        curve = (tmp_path / "out" / "eps_curve.tsv").read_text().strip().split("\n")
        # monotone over the solved rungs; a pruned rung's entry is a bound
        gaps = [float(line.split("\t")[1]) for line in curve[1:] if line.endswith("\t0")]
        assert all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:]))
        # eps 0.2 is pruned (terminal gap 0.4 > eta/2), eps 0.1 is solved
        assert curve[0] == "eps\tmax_B_gap\tpruned"
        assert [line.split("\t")[2] for line in curve[1:]] == ["1", "0"]
        assert cert["pruned"] == [0.2] and cert["c_curve"][0] == pytest.approx([0.2, 0.4])
        smooth = load_smooth(tmp_path / "out" / "smooth.bin")
        assert smooth.eps == cert["eps"]

    def test_simulate_hedges_with_certified_smooth_surface(self, tmp_path, capsys):
        cfg = base_config()
        cfg["grid"]["x_steps"] = [50]
        cfg["regularize"] = {
            "eta": 0.5, "tol": 1e-3, "eps_ladder": [0.2, 0.1],
            "B": {"t": [0.0, 1.0], "x": [[-0.5, 0.5]]},
            "check_shape": [10, 20], "phi": "v-plus-margin:1.0",
        }
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["regularize", "-c", path, "--out", str(out)]) == 0
        smooth = str(out / "smooth.bin")
        rc = main(["simulate", "-c", path, "--out", str(tmp_path / "sim"), "--surface", smooth])
        assert rc == 0
        rep = json.loads((tmp_path / "sim" / "simreport.json").read_text())
        assert rep["passed"] is True
        assert [r["adversary"] for r in rep["runs"]] == ["constant:0", "random:4"]
        # the worst-case adversary reads a policy grid, which a smooth surface lacks
        capsys.readouterr()
        rc = main(["simulate", "-c", path, "--out", str(tmp_path / "worst"),
                   "--surface", smooth, "--adversary", "worst"])
        assert rc == 2
        assert "policy" in error_payload(capsys)["message"]
        # the model-hash check applies to smooth caches too
        other = base_config(payoff={"type": "constant", "level": 2.0})
        other["grid"] = cfg["grid"]
        rc = main(["simulate", "-c", write_config(tmp_path, other, "other.json"),
                   "--out", str(tmp_path / "o2"), "--surface", smooth])
        assert rc == 2
        assert "different model" in error_payload(capsys)["message"]

    def test_certification_failure_exit_4(self, tmp_path, capsys):
        # eta so tight no rung can satisfy the gap test
        cfg = base_config()
        cfg["regularize"] = {
            "eta": 0.001, "tol": 1e-3, "eps_ladder": [0.2, 0.1],
            "B": {"t": [0.0, 1.0], "x": [[-0.5, 0.5]]},
            "check_shape": [10, 20], "phi": "v-plus-margin:0.002",
        }
        path = write_config(tmp_path, cfg)
        rc = main(["regularize", "-c", path, "--out", str(tmp_path / "out")])
        assert rc == 4
        err = error_payload(capsys)
        assert err["kind"] == "certification" and "eps [0.2, 0.1] pruned" in err["message"]

    @pytest.mark.parametrize("box", [
        '{"t":[0.305,0.306],"x":[[-0.5,0.5]]}',  # between two of the 60 time steps
        '{"t":[0.0,1.0],"x":[[0.01,0.02]]}',  # between two of the 40 space cells
    ])
    def test_box_without_a_grid_node_exit_2_before_any_solve(self, tmp_path, capsys,
                                                               monkeypatch, box):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the box was checked")

        monkeypatch.setattr(cli.hjb, "solve", no_solve)
        path = write_config(tmp_path, base_config())
        rc = main(["regularize", "-c", path, "--out", str(tmp_path / "out"),
                   "--set", f"regularize.B={box}"])
        assert rc == 2
        lines = capsys.readouterr().err.strip().split("\n")
        err = json.loads(lines[0])["error"]
        assert len(lines) == 1 and err["code"] == 2
        assert "node of the solve grid" in err["message"]

    def _phi_file_config(self, tmp_path):
        """test_constant_model_certifies's config with phi read from a file:
        the solved surface of the level-2 payoff, one above the level-1 v."""
        cfg = base_config()
        cfg["grid"]["x_steps"] = [50]
        target = base_config(payoff={"type": "constant", "level": 2.0})
        target["grid"] = cfg["grid"]
        assert main(["solve", "-c", write_config(tmp_path, target, "target.json"),
                     "--out", str(tmp_path / "target")]) == 0
        cfg["regularize"] = {
            "eta": 0.5, "tol": 1e-3, "eps_ladder": [0.2, 0.1],
            "B": {"t": [0.0, 1.0], "x": [[-0.5, 0.5]]},
            "check_shape": [10, 20], "phi": str(tmp_path / "target" / "surface.bin"),
        }
        return write_config(tmp_path, cfg)

    def test_phi_file_solves_only_the_ladder(self, tmp_path, monkeypatch):
        # with a phi file nothing reads a solve of the config's grid, so the
        # ladder's base solve validates the model; against the former flow (a
        # validated solve of the config's grid, then the ladder without
        # validation) one solve fewer, the same artifacts byte for byte
        path = self._phi_file_config(tmp_path)
        calls, real_solve = [], cli.hjb.solve
        real_build = cli.regularize.build_smooth_supersolution

        def solve(*args, **kwargs):
            calls.append((kwargs.get("pad_layers", 0), kwargs.get("validate", True)))
            return real_solve(*args, **kwargs)

        def former_build(model, phi, box, eta, grid, **kwargs):
            cli.hjb.solve(model, grid, validate=True)
            return real_build(model, phi, box, eta, grid, **{**kwargs, "validate": False})

        monkeypatch.setattr(cli.hjb, "solve", solve)
        assert main(["regularize", "-c", path, "--out", str(tmp_path / "new")]) == 0
        new_calls = list(calls)
        calls.clear()
        monkeypatch.setattr(cli.regularize, "build_smooth_supersolution", former_build)
        assert main(["regularize", "-c", path, "--out", str(tmp_path / "former")]) == 0
        # every solve is the ladder's (padded below t = 0), and the first validates
        assert all(pad > 0 for pad, _ in new_calls) and new_calls[0][1] is True
        assert calls == [(0, True)] + [(pad, False) for pad, _ in new_calls]
        assert json.loads((tmp_path / "new" / "certificate.json").read_text())["passed"] is True
        for name in ("certificate.json", "smooth.bin"):
            assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "former" / name).read_bytes()

    @pytest.mark.parametrize("override, code", [
        ("model.lipschitz_K=0.1", 2), ("grid.t_steps=2", 3),
    ], ids=["assumptions", "cfl"])
    def test_phi_file_failing_model_exits_as_before(self, tmp_path, capsys, override, code):
        path = self._phi_file_config(tmp_path)
        capsys.readouterr()
        rc = main(["regularize", "-c", path, "--out", str(tmp_path / "out"), "--set", override])
        assert rc == code
        assert error_payload(capsys)["code"] == code
        assert not (tmp_path / "out" / "certificate.json").exists()

    def test_missing_phi_file_exit_2_before_any_solve(self, tmp_path, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the phi file was read")

        monkeypatch.setattr(cli.hjb, "solve", no_solve)
        path = write_config(tmp_path, base_config())
        missing = tmp_path / "nonexistent" / "surface.bin"
        rc = main(["regularize", "-c", path, "--out", str(tmp_path / "out"),
                   "--set", f"regularize.phi={missing}"])
        assert rc == 2
        err = error_payload(capsys)
        assert err["code"] == 2 and str(missing) in err["message"]
        assert not (tmp_path / "out" / "certificate.json").exists()


class TestReproducibility:
    def test_byte_identical_artifacts(self, tmp_path):
        cfg = base_config(payoff={"type": "call_spread", "strike": 1.0, "cap": 1.4})
        cfg["grid"] = {"t_steps": 120, "x_min": [-1.2], "x_max": [1.2], "x_steps": [60]}
        cfg["sim"] = {"paths": 300, "steps": 120, "seed": 21}
        path = write_config(tmp_path, cfg)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["solve", "-c", path, "--out", str(out)]) == 0
            assert main(["simulate", "-c", path, "--out", str(out / "sim"),
                         "--surface", str(out / "surface.bin")]) == 0
            outs.append(out)
        for rel in ("surface.csv", "surface.bin", "summary.json", "sim/simreport.json"):
            a = (outs[0] / rel).read_bytes()
            b = (outs[1] / rel).read_bytes()
            assert a == b, f"artifact {rel} differs between runs"

    def test_simulate_on_surface_file_matches_fresh_solve(self, tmp_path):
        # the CI tiny config: the loaded surface keeps the solve's time axis,
        # so the game reads the same gradients either way (20 steps on 200
        # paths fail the hedge check, exit 4, on both routes)
        cfg = base_config(A_points=[[0.1], [0.3]], lipschitz_K=0.3,
                          payoff={"type": "call_spread", "strike": 1.0, "cap": 1.4})
        cfg["model"]["finance"]["r_lend"]["value"] = 0.02
        cfg["model"]["finance"]["r_borrow"]["value"] = 0.05
        cfg["grid"] = {"t_steps": 100, "x_min": [-1.8], "x_max": [1.8], "x_steps": [40]}
        cfg["sim"] = {"paths": 200, "steps": 20}
        path = write_config(tmp_path, cfg)
        assert main(["solve", "-c", path, "--out", str(tmp_path / "solve")]) == 0
        reports = []
        cached = ["--surface", str(tmp_path / "solve" / "surface.bin")]
        for name, surface in (("fresh", []), ("file", cached)):
            out = tmp_path / name
            rc = main(["simulate", "-c", path, "--out", str(out)] + surface)
            reports.append((rc, (out / "simreport.json").read_bytes()))
        assert reports[0] == reports[1]

    def test_thread_env_does_not_change_results(self, tmp_path):
        # OpenBLAS reads its thread count when numpy loads, so each count runs in
        # its own process; the two-control call spread gives the regressions work
        cfg = base_config(A_points=[[0.1], [0.3]], lipschitz_K=0.3,
                          payoff={"type": "call_spread", "strike": 1.0, "cap": 1.4})
        cfg["grid"] = {"t_steps": 100, "x_min": [-1.8], "x_max": [1.8], "x_steps": [40]}
        cfg["dual"] = {"knots": 4, "degree": 2, "paths": 20000, "eps": 0.0, "seed": 3}
        path = write_config(tmp_path, cfg)
        payloads = []
        for threads in (1, 2):
            out = tmp_path / f"t{threads}"
            assert cli_in_child(["dual", "-c", path, "--out", str(out), "--mid", "0.5"], threads) == 0
            payloads.append((out / "dual.json").read_bytes())
        assert payloads[0] == payloads[1]


class TestPlotData:
    def test_constant_value_slice(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out = str(tmp_path / "out")
        assert main(["solve", "-c", path, "--out", out, "--plots"]) == 0
        lines = (tmp_path / "out" / "value_slice.tsv").read_text().strip().split("\n")
        assert lines[0] == "x\tvalue"
        vals = {line.split("\t")[1] for line in lines[1:]}
        assert vals == {"1"}

    def test_unknown_kind_rejected(self):
        with pytest.raises(Exception, match="plot kind"):
            emit_plot_data(None, "nope", "/dev/null")


class TestSmoothCache:
    def test_roundtrip(self, tmp_path):
        t = np.linspace(-0.1, 1.0, 23)
        ax = np.linspace(-1.0, 1.0, 17)
        vals = np.outer(1 + t, np.sin(ax))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            s = SmoothSurface(t, [ax], vals, 0.2, eps=0.05, k=100.0, model_hash="abc")
        path = tmp_path / "s.bin"
        save_smooth(s, path)
        back = load_smooth(path)
        assert np.array_equal(back.node_values, s.node_values)
        assert not any(a.flags.writeable for a in [back.t_nodes, back.node_values, *back.axes])
        assert back.delta == s.delta and back.eps == s.eps and back.k == s.k
        assert back.model_hash == "abc"

    def test_truncated_cache_rejected(self, tmp_path):
        t = np.linspace(-0.1, 1.0, 23)
        ax = np.linspace(-1.0, 1.0, 17)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            s = SmoothSurface(t, [ax], np.outer(1 + t, np.sin(ax)), 0.2, model_hash="abc")
        path = tmp_path / "s.bin"
        save_smooth(s, path)
        blob = path.read_bytes()
        rng = np.random.default_rng(77)
        for cut in sorted(set(rng.integers(8, len(blob), 12).tolist()) | {8, len(blob) - 1}):
            bad = tmp_path / "cut.bin"
            bad.write_bytes(blob[:cut])
            with pytest.raises(HedgeGameError):
                load_smooth(bad)

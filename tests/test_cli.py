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
        apply_overrides(cfg, ["sim.paths=999", "grid.boundary_mode=\"clamp_payoff\""])
        assert cfg["sim"]["paths"] == 999
        assert cfg["grid"]["boundary_mode"] == "clamp_payoff"

    def test_override_unknown_path(self):
        cfg = validate_config(base_config())
        with pytest.raises(ConfigError, match="override"):
            apply_overrides(cfg, ["sim.nope=1"])

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

    @pytest.mark.parametrize("command, override", [
        ("simulate", 'sim.paths="x"'),
        ("dual", 'dual.knots="x"'),
        ("regularize", 'regularize.B={"t":[0],"x":[[0,1]]}'),
        ("price", 'sim.x0=["x"]'),
        ("solve", 'sim.t0="x"'),
    ])
    def test_bad_section_value_exit_2(self, tmp_path, capsys, command, override):
        path = write_config(tmp_path, base_config())
        rc = main([command, "-c", path, "--out", str(tmp_path / "out"), "--set", override])
        assert rc == 2
        err = error_payload(capsys)
        assert err["kind"] == "config" and err["code"] == 2

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
        gaps = [float(line.split("\t")[1]) for line in curve[1:]]
        assert all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:]))
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
        assert rc in (2, 4)


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

    def test_thread_env_does_not_change_results(self, tmp_path, monkeypatch):
        cfg = base_config()
        cfg["dual"] = {"knots": 2, "degree": 2, "paths": 500, "eps": 0.0,
                       "seed": 3, "substeps": 5}
        path = write_config(tmp_path, cfg)
        payloads = []
        for threads in ("1", "4"):
            monkeypatch.setenv("HEDGEGAME_THREADS", threads)
            out = tmp_path / f"t{threads}"
            assert main(["dual", "-c", path, "--out", str(out)]) == 0
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

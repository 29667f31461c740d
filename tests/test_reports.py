"""Every report writes itself by one rule (``model.plain``): its dataclass
fields, less the per-path arrays, plus its derived entries, in builtin
python values only, so ``json.dumps`` never meets a numpy scalar."""

import json
import warnings
from dataclasses import fields

import numpy as np
import pytest

from hedgegame.dual import dpp_check, dual_value_lsmc, make_lattice
from hedgegame.game import ConstantAdversary, SimParams, make_strategy, simulate, superhedge_check
from hedgegame.hjb import GridSpec, solve
from hedgegame.regularize import (Box, CertReport, SmoothSurface, build_smooth_supersolution,
                                  make_check_grid, verify_supersolution)

from conftest import uncertain_vol_model
from test_game import constant_surface, frozen_model

_BUILTIN = (bool, int, float, str, type(None))


def walk(value):
    """Fail on any value that is not a str-keyed dict, a list or a builtin scalar."""
    if isinstance(value, dict):
        assert all(type(k) is str for k in value), value
        for v in value.values():
            walk(v)
    elif isinstance(value, list):
        for v in value:
            walk(v)
    else:
        assert type(value) in _BUILTIN, (value, type(value))


def assert_plain(report, d, derived=(), renamed=None):
    """``d`` holds the report's non-array fields (``renamed`` maps a field to
    its key) and the ``derived`` entries, in builtin values only."""
    renamed = renamed or {}
    keys = {renamed.get(f.name, f.name) for f in fields(report)
            if not isinstance(getattr(report, f.name), np.ndarray)}
    assert set(d) == keys | set(derived)
    walk(d)
    json.loads(json.dumps(d))


@pytest.fixture(scope="module")
def frozen():
    return frozen_model()


class TestCertReport:
    def test_after_a_pass(self, frozen):
        grid = GridSpec(t_steps=60, x_min=(-1.0,), x_max=(1.0,), x_steps=(50,))
        phi = lambda t, xs: np.full(len(np.atleast_2d(xs)), 2.0)
        cert = build_smooth_supersolution(frozen, phi, Box(0.0, 1.0, (-0.5,), (0.5,)), 0.5, grid,
                                          eps_ladder=(0.2, 0.1), check_shape=(10, 20),
                                          validate=False).certificate
        assert cert.passed and cert.c_curve and cert.n_checked == 200
        d = cert.to_dict()
        assert_plain(cert, d)
        assert d["c_curve"] == [list(entry) for entry in cert.c_curve]
        assert d["argmin"] == list(cert.argmin)

    @pytest.mark.parametrize("shape", [(0, 20), (10, 0)], ids=["no-time-node", "no-space-node"])
    def test_after_the_empty_lattice_fail(self, frozen, shape):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            s = SmoothSurface(np.linspace(-0.1, 1.0, 56), [np.linspace(-1.0, 1.0, 41)],
                              np.full((56, 41), 1.0), 0.05)
        cert = verify_supersolution(s, frozen, make_check_grid(0.0, 0.9, (-0.5,), (0.5,), shape))
        d = cert.to_dict()
        assert_plain(cert, d)
        assert d["passed"] is False and d["n_checked"] == 0 and d["c_curve"] == []

    def test_numpy_scalars_become_python_values(self):
        cert = CertReport(np.bool_(True), np.float64(-1e-4), (np.float64(0.5), np.float64(0.25)),
                          np.float64(0.0), np.float64(np.inf), 1e-3, 0.1, 8.0, 0.05, np.int64(200),
                          [(np.float64(0.2), np.float64(0.4))], [np.float64(0.2)])
        d = cert.to_dict()
        assert_plain(cert, d)
        assert d["passed"] is True and d["n_checked"] == 200 and d["c_curve"] == [[0.2, 0.4]]


class TestSimReports:
    @pytest.fixture(scope="class")
    def check(self):
        return superhedge_check(frozen_model(), constant_surface(), 0.0,
                                SimParams(x0=(0.0,), paths=50, steps=10, seed=5))

    def test_sim_report_with_and_without_tol(self, frozen):
        rep = simulate(frozen, make_strategy(constant_surface()), ConstantAdversary(0),
                       0.0, np.array([0.0]), 1.0, 50, 10, 5)
        assert rep.shortfall.size == rep.terminal_gap.size == 50
        assert_plain(rep, rep.to_dict())
        d = rep.to_dict(0.02)
        assert_plain(rep, d, derived=("shortfall_prob", "tol"))
        assert d["shortfall_prob"] == 0.0 and d["tol"] == 0.02

    def test_check_report(self, check):
        d = check.to_dict()
        assert_plain(check, d, renamed={"reports": "runs"})
        assert d["runs"] == [r.to_dict(check.tol_sim) for r in check.reports]
        for rep, run in zip(check.reports, d["runs"]):
            assert_plain(rep, run, derived=("shortfall_prob", "tol"))

    def test_margin_is_null_under_an_explicit_y0(self):
        # an explicit y0 replaces value + margin, so the artifact names no margin
        sim = SimParams(x0=(0.0,), paths=50, steps=10, seed=5)
        given = json.loads(json.dumps(superhedge_check(frozen_model(), constant_surface(), 0.5, sim,
                                                       y0=0.25).to_dict()))
        auto = json.loads(json.dumps(superhedge_check(frozen_model(), constant_surface(), 0.5, sim).to_dict()))
        assert given["y0"] == 0.25 and given["margin"] is None
        assert auto["y0"] == 1.5 and auto["margin"] == 0.5


class TestDualReports:
    @pytest.fixture(scope="class")
    def setting(self):
        model = uncertain_vol_model()
        surface = solve(model, GridSpec(t_steps=40, x_min=(-1.8,), x_max=(1.8,), x_steps=(40,)))
        return model, make_lattice(model, 0.0, 4, 0.0, substeps=2), surface

    def test_dual_estimate(self, setting):
        model, lattice, surface = setting
        est = dual_value_lsmc(model, 0.0, 0.0, [0.0], lattice, 2, 200, 3, policy=surface)
        assert_plain(est, est.to_dict())

    def test_dpp_report(self, setting):
        model, lattice, surface = setting
        rep = dpp_check(model, 0.0, 0.0, [0.0], 0.5, lattice, 200, 3, policy=surface)
        d = rep.to_dict()
        assert_plain(rep, d)
        assert_plain(rep.direct, d["direct"])
        assert_plain(rep.composed, d["composed"])

import inspect
import logging
import re
import shutil

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings, strategies as st

import cdii.fem_cem
from cdii.cli import _build_problem, main
from cdii.config import ConfigError, PipelineConfig, config_from_mapping
from cdii.csvio import (
    read_field,
    read_metrics,
    write_field,
)
from cdii.fem_cem import (ConductivityField, ForwardSolution, SolverError, electrode_flux,
                          solve_forward)
from cdii.mesh import build_uniform_mesh, triangle_gradients
from cdii.phantom import simulate_data
from cdii.weighted_gradient import ReconstructionConfig

from helpers import output_bytes, read_convergence


BASE = {
    "mesh.side_nodes": "12",
    "electrodes[0].side": "bottom",
    "electrodes[0].interval": "0,1",
    "electrodes[0].z": "0.0083",
    "electrodes[1].side": "top",
    "electrodes[1].interval": "0,1",
    "electrodes[1].z": "0.0083",
    "currents": "-0.003,0.003",
    "recon.epsilon": "0.1",
    "recon.delta": "1e-7",
}


def write_config(path, out_dir, **overrides):
    entries = {**BASE, "output.dir": str(out_dir)}
    entries.update({k: str(v) for k, v in overrides.items()})
    text = "# test configuration\n\n"
    text += "\n".join(f"{k}={v}" for k, v in entries.items()) + "\n"
    path.write_text(text)
    return path


def run(args):
    return main([*args, "--quiet"])


# ---------------------------------------------------------------- forward

def test_forward_outputs_closed_form(tmp_path):
    cfg = write_config(tmp_path / "run.cfg", tmp_path / "out")
    assert run(["forward", "--config", str(cfg)]) == 0
    _, _, U = read_field(tmp_path / "out" / "U.csv")
    expected = 0.003 * (0.5 + 0.0083)
    assert U == pytest.approx([-expected, expected], rel=1e-10)
    _, _, u = read_field(tmp_path / "out" / "u.csv")
    _, _, J = read_field(tmp_path / "out" / "J.csv")
    _, _, a = read_field(tmp_path / "out" / "a.csv")
    mesh = build_uniform_mesh(12)
    assert u == pytest.approx(0.003 * (mesh.nodes[:, 1] - 0.5), abs=1e-15)
    assert J[:, 1] == pytest.approx(-0.003, rel=1e-12)
    assert a == pytest.approx(0.003, rel=1e-12)


def test_forward_zero_currents(tmp_path):
    cfg = write_config(tmp_path / "run.cfg", tmp_path / "out", currents="0,0")
    assert run(["forward", "--config", str(cfg)]) == 0
    for name in ("u.csv", "a.csv"):
        _, _, values = read_field(tmp_path / "out" / name)
        assert np.max(np.abs(values)) == 0.0


# ----------------------------------------------------------- config errors

def test_bad_span_names_key(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg", tmp_path / "out")
    text = cfg.read_text().replace("electrodes[0].interval=0,1",
                                   "electrodes[0].interval=0,0.7334")
    cfg.write_text(text)
    assert run(["forward", "--config", str(cfg)]) == 2
    assert "electrodes[0].interval" in capsys.readouterr().err


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg", tmp_path / "out",
                       **{"mesh.depth": "3"})
    assert run(["forward", "--config", str(cfg)]) == 2
    assert "mesh.depth" in capsys.readouterr().err


def test_missing_required_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mesh.side_nodes=8\n")
    assert run(["forward", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "config error: currents: missing required key\n"


def test_one_electrode_config_exits_2_naming_electrodes(tmp_path, capsys):
    # ElectrodeSetup holds the count rule; the CLI keys its error.
    cfg = write_config(tmp_path / "run.cfg", tmp_path / "out", currents="0")
    lines = cfg.read_text().splitlines()
    cfg.write_text("\n".join(line for line in lines if "electrodes[1]" not in line) + "\n")
    assert run(["forward", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == \
        "config error: electrodes: at least two electrodes are required\n"


def test_out_flag_overrides_output_dir(tmp_path):
    cfg = write_config(tmp_path / "run.cfg", tmp_path / "configured")
    assert run(["forward", "--config", str(cfg), "--out", str(tmp_path / "flag")]) == 0
    assert (tmp_path / "flag" / "u.csv").is_file()
    assert not (tmp_path / "configured").exists()


def test_unbalanced_currents(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg", tmp_path / "out",
                       currents="-0.001,0.003")
    assert run(["forward", "--config", str(cfg)]) == 2
    assert "currents" in capsys.readouterr().err


def test_bad_epsilon(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg", tmp_path / "out",
                       **{"recon.epsilon": "1.5"})
    assert run(["pipeline", "--config", str(cfg)]) == 2
    assert "recon.epsilon" in capsys.readouterr().err


def test_gamma_on_electrode_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg", tmp_path / "out",
                       **{"gamma.side": "bottom"})
    assert run(["simulate", "--config", str(cfg)]) == 2
    assert "gamma.side" in capsys.readouterr().err


def test_overlapping_electrodes_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg", tmp_path / "out",
                       **{"electrodes[1].side": "bottom",
                          "electrodes[1].interval": "0,1"})
    assert run(["forward", "--config", str(cfg)]) == 2
    assert "electrodes[1].interval" in capsys.readouterr().err


# Each rule is checked once, in config parsing, in a domain constructor or,
# for the measurement curve, in _build_problem; every command reports it as
# exit 2 under the key that was set.
INVALID_VALUES = {
    "side_nodes=1": ({"mesh.side_nodes": "1"}, "mesh.side_nodes"),
    "side-diag": ({"electrodes[1].side": "diag"}, "electrodes[1].side"),
    "interval-reversed": ({"electrodes[0].interval": "1,0"}, "electrodes[0].interval"),
    "interval-outside": ({"electrodes[0].interval": "0,2"}, "electrodes[0].interval"),
    "interval-misaligned": ({"electrodes[0].interval": "0,0.7334"}, "electrodes[0].interval"),
    "overlap": ({"electrodes[1].side": "bottom"}, "electrodes[1].interval"),
    "z=0": ({"electrodes[1].z": "0"}, "electrodes[1].z"),
    "z=-1": ({"electrodes[0].z": "-1"}, "electrodes[0].z"),
    "z-inf": ({"electrodes[0].z": "inf"}, "electrodes[0].z"),
    "z-subnormal": ({"electrodes[0].z": "1e-320"}, "electrodes[0].z"),
    "unbalanced": ({"currents": "-0.001,0.003"}, "currents"),
    "three-currents": ({"currents": "-0.003,0.001,0.002"}, "currents"),
    "currents-nan": ({"currents": "nan,0.003"}, "currents"),
    "currents-inf": ({"currents": "inf,-inf"}, "currents"),
    "epsilon": ({"recon.epsilon": "1.5"}, "recon.epsilon"),
    "epsilon-subnormal": ({"recon.epsilon": "1e-320"}, "recon.epsilon"),
    "epsilon-smallest": ({"recon.epsilon": "5e-324"}, "recon.epsilon"),
    "delta": ({"recon.delta": "0"}, "recon.delta"),
    "delta-inf": ({"recon.delta": "inf"}, "recon.delta"),
    "max_iter": ({"recon.max_iter": "0"}, "recon.max_iter"),
    "gamma-diag": ({"gamma.side": "diag"}, "gamma.side"),
    "gamma-on-electrode": ({"gamma.side": "bottom"}, "gamma.side"),
    "amplitude": ({"phantom.amplitude": "-0.1"}, "phantom.amplitude"),
    "amplitude-nan": ({"phantom.amplitude": "nan"}, "phantom.amplitude"),
    "amplitude-inf": ({"phantom.amplitude": "inf"}, "phantom.amplitude"),
    "width": ({"phantom.width": "0"}, "phantom.width"),
    "width-nan": ({"phantom.width": "nan"}, "phantom.width"),
    "width-inf": ({"phantom.width": "inf"}, "phantom.width"),
    "center-nan": ({"phantom.center": "nan,0.5"}, "phantom.center"),
    "center-inf": ({"phantom.center": "inf,0.5"}, "phantom.center"),
    "noise": ({"noise.level": "-0.01"}, "noise.level"),
    "noise-nan": ({"noise.level": "nan"}, "noise.level"),
    "noise-inf": ({"noise.level": "inf"}, "noise.level"),
    "seed-negative": ({"noise.seed": "-1"}, "noise.seed"),
    "output-nul": ({"output.dir": "a\0b"}, "output.dir"),
}
COMMANDS = ("forward", "simulate", "reconstruct", "calibrate", "pipeline")


@pytest.fixture(scope="module")
def valid_outputs(tmp_path_factory):
    """Outputs of a valid pipeline run, so that a check reached only after
    the files are read would show as a different exit."""
    tmp = tmp_path_factory.mktemp("valid")
    assert run(["pipeline", "--config", str(write_config(tmp / "run.cfg", tmp / "out"))]) == 0
    return tmp / "out"


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("overrides,key", INVALID_VALUES.values(), ids=INVALID_VALUES.keys())
def test_invalid_value_exits_2_naming_key(tmp_path, capsys, valid_outputs,
                                          overrides, key, command):
    shutil.copytree(valid_outputs, tmp_path / "out")
    cfg = write_config(tmp_path / "run.cfg", tmp_path / "out", **overrides)
    assert run([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"config error: {key}: ")


NEGATIVE = st.floats(max_value=-np.finfo(float).smallest_subnormal)
# Positive values whose reciprocal overflows.
NO_FINITE_RECIPROCAL = st.floats(min_value=0.0, max_value=1.0 / np.finfo(float).max,
                                 exclude_min=True, exclude_max=True)
# Impedances that are not positive, not finite, or have no finite reciprocal.
BAD_Z = st.floats(max_value=0.0) | st.sampled_from([np.nan, np.inf]) | NO_FINITE_RECIPROCAL
OUT_OF_RANGE = {
    "recon.epsilon": (st.floats(max_value=0.0) | st.floats(min_value=1.0) | st.just(np.nan)
                      | NO_FINITE_RECIPROCAL),
    "recon.delta": st.floats(max_value=0.0) | st.sampled_from([np.nan, np.inf]),
    "recon.max_iter": st.integers(max_value=0),
    "electrodes[0].z": BAD_Z,
    "electrodes[1].z": BAD_Z,
    "phantom.amplitude": NEGATIVE | st.sampled_from([np.nan, np.inf]),
    "phantom.width": st.floats(max_value=0.0) | st.sampled_from([np.nan, np.inf]),
    "noise.level": NEGATIVE | st.sampled_from([np.nan, np.inf]),
    "noise.seed": st.integers(max_value=-1),
}


@settings(deadline=None)
@given(st.sampled_from(sorted(OUT_OF_RANGE)).flatmap(
    lambda key: st.tuples(st.just(key), OUT_OF_RANGE[key])))
def test_out_of_range_value_raises_under_its_key(key_value):
    key, value = key_value
    cfg = config_from_mapping({**BASE, key: repr(value)})
    with pytest.raises(ConfigError) as err:
        _build_problem(cfg)
    assert err.value.key == key


@pytest.mark.parametrize("command", ["simulate", "pipeline"])
def test_noise_level_that_overflows_the_data_exits_2(tmp_path, capsys, command):
    # 1e308 is a valid level, but the noisy data overflows where |g| > 1.8.
    cfg = write_config(tmp_path / "run.cfg", tmp_path / "out", **{"noise.level": "1e308"})
    assert run([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error: noise.level: ")


def _without(*keys):
    return {k: v for k, v in BASE.items() if k not in keys}


# One fault each: the key and the message of the ConfigError the parser raises.
PARSE_FAULTS = {
    "side_nodes-token": ({**BASE, "mesh.side_nodes": "abc"},
                         "mesh.side_nodes", "expected an integer, got 'abc'"),
    "side_nodes-float": ({**BASE, "mesh.side_nodes": "12.0"},
                         "mesh.side_nodes", "expected an integer, got '12.0'"),
    "side_nodes-missing": (_without("mesh.side_nodes"), "mesh.side_nodes", "missing required key"),
    "currents-missing": (_without("currents"), "currents", "missing required key"),
    "z-missing": (_without("electrodes[1].z"), "electrodes[1].z", "missing required key"),
    "stray-electrode": ({**BASE, "electrodes[3].z": "0.01"}, "electrodes[3].z", "unknown key"),
    "interval-one-value": ({**BASE, "electrodes[0].interval": "0"},
                           "electrodes[0].interval", "expected 2 values, got 1"),
    "interval-three-values": ({**BASE, "electrodes[0].interval": "0,0.5,1"},
                              "electrodes[0].interval", "expected 2 values, got 3"),
    "interval-token": ({**BASE, "electrodes[0].interval": "0,x"}, "electrodes[0].interval",
                       "expected comma-separated numbers, got '0,x'"),
    "z-token": ({**BASE, "electrodes[1].z": "small"},
                "electrodes[1].z", "expected a number, got 'small'"),
    "currents-token": ({**BASE, "currents": "-1,one"},
                       "currents", "expected comma-separated numbers, got '-1,one'"),
    "epsilon-token": ({**BASE, "recon.epsilon": "tenth"},
                      "recon.epsilon", "expected a number, got 'tenth'"),
    "amplitude-token": ({**BASE, "phantom.amplitude": "high"},
                        "phantom.amplitude", "expected a number, got 'high'"),
    "seed-token": ({**BASE, "noise.seed": "s"}, "noise.seed", "expected an integer, got 's'"),
    "max_iter-fraction": ({**BASE, "recon.max_iter": "1.5"},
                          "recon.max_iter", "expected an integer, got '1.5'"),
    "center-one-value": ({**BASE, "phantom.center": "0.5"},
                         "phantom.center", "expected 2 values, got 1"),
    "center-token": ({**BASE, "phantom.center": "mid,mid"},
                     "phantom.center", "expected comma-separated numbers, got 'mid,mid'"),
    "output-empty": ({**BASE, "output.dir": ""}, "output.dir", "must not be empty"),
    "two-unknown": ({**BASE, "zeta.x": "1", "alpha.y": "2"}, "alpha.y", "unknown key"),
    "solver_tol-retired": ({**BASE, "recon.solver_tol": "1e-10"},
                           "recon.solver_tol", "unknown key"),
}


@pytest.mark.parametrize("mapping,key,message", PARSE_FAULTS.values(), ids=PARSE_FAULTS.keys())
def test_config_fault_names_key_and_reason(mapping, key, message):
    with pytest.raises(ConfigError) as err:
        config_from_mapping(mapping)
    assert err.value.key == key
    assert str(err.value) == f"{key}: {message}"


# One fault each in a value the parser accepts: the key and the message of
# the ConfigError _build_problem raises.
RANGE_FAULTS = {
    "amplitude-negative": ({"phantom.amplitude": "-0.1"}, "phantom.amplitude",
                           "amplitude must be finite and nonnegative, got -0.1"),
    "noise-negative": ({"noise.level": "-0.01"}, "noise.level",
                       "noise level must be finite and nonnegative, got -0.01"),
    "width-zero": ({"phantom.width": "0"}, "phantom.width",
                   "width must be finite and positive, got 0.0"),
    "center-inf": ({"phantom.center": "inf,0.5"}, "phantom.center",
                   "center must be two finite coordinates, got (inf, 0.5)"),
    "seed-negative": ({"noise.seed": "-1"}, "noise.seed", "seed must be nonnegative, got -1"),
    # Counted by fem_cem._check_currents; INVALID_VALUES runs it in every command.
    "three-currents": ({"currents": "-0.003,0.001,0.002"}, "currents",
                       "3 currents for 2 electrodes"),
    # Refused by CurrentPattern before the count is compared.
    "one-current": ({"currents": "0.003"}, "currents",
                    "need one current per electrode (at least two)"),
    "gamma-on-electrode": ({"gamma.side": "top"}, "gamma.side",
                           "measurement curve overlaps electrodes[1]; it must join "
                           "the electrodes without covering them"),
}


@pytest.mark.parametrize("overrides,key,message", RANGE_FAULTS.values(), ids=RANGE_FAULTS.keys())
def test_range_fault_names_key_and_reason(overrides, key, message):
    with pytest.raises(ConfigError) as err:
        _build_problem(config_from_mapping({**BASE, **overrides}))
    assert err.value.key == key
    assert str(err.value) == f"{key}: {message}"


@pytest.mark.parametrize("line,message", [
    ("recon.epsilon 0.1", "{cfg}:14: expected key=value, got 'recon.epsilon 0.1'"),
    ("currents=-0.003,0.003", "currents: duplicate key"),
    ("=5", "{cfg}:14: expected key=value, got '=5'"),
], ids=["no-equals", "repeated-key", "empty-key"])
def test_config_line_fault_exits_2(tmp_path, capsys, line, message):
    cfg = write_config(tmp_path / "run.cfg", tmp_path / "out")
    cfg.write_text(cfg.read_text() + line + "\n")
    assert run(["forward", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"config error: {message.format(cfg=cfg)}\n"


def test_config_defaults_are_the_dataclass_defaults():
    required = ("side_nodes", "electrodes", "currents")
    cfg = config_from_mapping(_without("recon.epsilon", "recon.delta"))
    defaults = PipelineConfig(**{name: getattr(cfg, name) for name in required})
    assert cfg == defaults
    assert cfg.max_iter == ReconstructionConfig.max_iter
    assert cfg.gamma_side == inspect.signature(simulate_data).parameters["gamma_side"].default


@pytest.mark.parametrize("command", ["forward", "simulate", "reconstruct", "calibrate",
                                     "pipeline"])
def test_config_that_is_not_utf8_exits_2_naming_file(tmp_path, capsys, command):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"\xff\xfe")
    assert run([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert re.fullmatch(f"config error: {re.escape(str(cfg))}: cannot read config: "
                        r"'[\w-]+' codec can't decode .*\n", err)


@pytest.mark.parametrize("command", ["forward", "simulate", "reconstruct", "calibrate",
                                     "pipeline"])
def test_huge_currents_exit_2_naming_currents(tmp_path, capsys, command):
    # Finite, summing to zero, and 1e100 times MAX_CURRENT: a solve would
    # overflow its load vector's norm and the squared gradients.
    cfg = write_config(tmp_path / "run.cfg", tmp_path / "out", currents="-1e200,1e200")
    assert run([command, "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        "config error: currents: currents must be finite and sum to zero with magnitudes "
        "at most 1e+100 A, got [-1e+200, 1e+200]\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,names", [
    ("forward", ("u.csv", "U.csv", "J.csv", "a.csv")),
    ("simulate", ("sigma_true.csv", "a.csv", "trace.csv"))])
def test_largest_currents_give_finite_fields(tmp_path, command, names):
    cfg = write_config(tmp_path / "run.cfg", tmp_path / "out", currents="-1e100,1e100")
    assert run([command, "--config", str(cfg)]) == 0
    for name in names:
        values = np.loadtxt(tmp_path / "out" / name, delimiter=",", comments="#")
        assert np.isfinite(values).all(), name


@pytest.mark.parametrize("command", ["reconstruct", "pipeline"])
def test_singular_factorization_exits_3(tmp_path, capsys, monkeypatch, command):
    # SuperLU raises a RuntimeError on a matrix it finds exactly singular.
    # The simulation's factorization succeeds (in the pipeline's own
    # simulate stage too), and the reconstruction's first one fails.
    cfg = write_config(tmp_path / "run.cfg", tmp_path / "out",
                       **{"phantom.amplitude": "0.8"})
    assert run(["simulate", "--config", str(cfg)]) == 0
    splu, calls = scipy.sparse.linalg.splu, []

    def singular_after_simulation(*args, **kwargs):
        calls.append(args)
        if command == "pipeline" and len(calls) == 1:
            return splu(*args, **kwargs)
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(scipy.sparse.linalg, "splu", singular_after_simulation)
    assert run([command, "--config", str(cfg)]) == 3
    assert capsys.readouterr().err == ("solver error: iteration 0: factorization failed: "
                                       "Factor is exactly singular\n")


def test_solver_failure_exits_3_without_traceback(tmp_path, capsys, monkeypatch):
    # With the backward-error floor at 0 rounding is not forgiven, so no
    # solve can reach 1e-30.
    monkeypatch.setattr(cdii.fem_cem, "SOLVER_TOL", 1e-30)
    monkeypatch.setattr(cdii.fem_cem, "BACKWARD_TOL", 0.0)
    cfg = write_config(tmp_path / "run.cfg", tmp_path / "out")
    assert run(["pipeline", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("solver error: ")
    assert "(tolerance 1.0e-30, backward-error floor 0.0e+00)" in err
    assert "Traceback" not in err


def test_overflowing_backward_error_floor_is_only_a_solver_error(tmp_path, capsys):
    # At z = 1e-308 the trace mass overflows, so ||M||_inf and the floor do
    # too: the floor reads nan, and the failure is a SolverError alone, no
    # RuntimeWarning (an error here) from the norm's column sums.
    overrides = {"electrodes[0].z": "1e-308"}
    cfg = write_config(tmp_path / "run.cfg", tmp_path / "out", **overrides)
    mesh, setup, currents, _, _ = _build_problem(config_from_mapping(
        {**BASE, **overrides, "output.dir": str(tmp_path / "out")}))
    with pytest.raises(SolverError, match="backward-error floor nan"):
        solve_forward(mesh, ConductivityField(np.ones(mesh.triangle_count)), setup, currents)
    assert run(["forward", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("solver error: ") and "backward-error floor nan" in err


def test_forward_solves_impedances_far_apart(tmp_path):
    # With impedances 1 and 1e6, rounding leaves a relative residual above
    # SOLVER_TOL; the solve is accepted by its backward error,
    # and the written fields recover the currents to the flux tolerance of
    # acceptance criterion 2.
    overrides = {"electrodes[0].z": "1", "electrodes[1].z": "1e6"}
    cfg = write_config(tmp_path / "run.cfg", tmp_path / "out", **overrides)
    assert run(["forward", "--config", str(cfg)]) == 0
    mesh, setup, currents, _, _ = _build_problem(config_from_mapping(
        {**BASE, **overrides, "output.dir": str(tmp_path / "out")}))
    _, _, u = read_field(tmp_path / "out" / "u.csv")
    _, _, U = read_field(tmp_path / "out" / "U.csv")
    solution = ForwardSolution(u=u, U=U, grad_u=triangle_gradients(mesh, u))
    fluxes = [electrode_flux(mesh, setup, solution, k) for k in range(setup.count)]
    scale = np.max(np.abs(currents.values))
    assert np.max(np.abs(fluxes - currents.values)) <= 1e-8 * scale


def test_pipeline_converges_at_tiny_impedance(tmp_path):
    # At 90² with both impedances 1e-6, rounding alone leaves a relative
    # residual above SOLVER_TOL; accepted by its backward error, the
    # pipeline converges as at the default impedance (0.0064).
    cfg = write_config(tmp_path / "run.cfg", tmp_path / "out",
                       **{"mesh.side_nodes": "90", "electrodes[0].z": "1e-6",
                          "electrodes[1].z": "1e-6", "phantom.amplitude": "0.8"})
    assert run(["pipeline", "--config", str(cfg)]) == 0
    metrics = read_metrics(tmp_path / "out" / "metrics.csv")
    assert metrics["converged"] == 1.0 and metrics["relative_l2"] < 0.007


def test_huge_impedance_logs_finite_objectives(tmp_path):
    # At z = 1e157, u - U_k squared would overflow; the penalty is scaled
    # before it is squared, so every objective is finite, and no warning
    # (an error here) is raised.
    cfg = write_config(tmp_path / "run.cfg", tmp_path / "out",
                       **{"electrodes[0].z": "1e157", "electrodes[1].z": "1e157",
                          "phantom.amplitude": "0.8"})
    assert run(["pipeline", "--config", str(cfg)]) == 0
    rows = read_convergence(tmp_path / "out" / "convergence.csv")
    objectives = np.array([row[1] for row in rows])
    assert len(rows) > 1 and np.isfinite(objectives).all()
    assert np.all(np.diff(objectives) <= 1e-8 * np.abs(objectives[:-1]))


def test_reconstruct_without_data(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg", tmp_path / "out")
    assert run(["reconstruct", "--config", str(cfg)]) == 2
    assert "a.csv" in capsys.readouterr().err


# A faulty a.csv row and the reason given after its file and line.
MALFORMED_ROWS = {
    "token": ("3,abc", "cannot parse 'abc' as float"),
    "nan": ("3,nan", "value nan is not finite"),
    "inf": ("3,inf", "value inf is not finite"),
    "negative": ("3,-0.5", "current-density magnitude must be finite and nonnegative; "
                           "triangle 3 holds -0.5"),
    "fractional-id": ("3.5,0.001", "cannot parse '3.5' as int64"),
    # np.loadtxt refuses these without a line; the reader names it.
    "underscore-id": ("0_3,0.001", "cannot parse '0_3' as int64"),
    "id-beyond-int64": ("99999999999999999999,0.001",
                        "cannot parse '99999999999999999999' as int64"),
    "zero": ("3,0", "interior data must be bounded away from zero, min is 0.000e+00"),
    "wrong-id": ("7,0.001", "id 7, expected 3"),
}


@pytest.mark.parametrize("row,reason", MALFORMED_ROWS.values(), ids=MALFORMED_ROWS.keys())
def test_reconstruct_malformed_data_exits_2_naming_line(tmp_path, capsys, row, reason):
    cfg = write_config(tmp_path / "run.cfg", tmp_path / "out")
    assert run(["simulate", "--config", str(cfg)]) == 0
    a_path = tmp_path / "out" / "a.csv"
    lines = a_path.read_text().splitlines()
    lines[4] = row  # data row 3
    a_path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run(["reconstruct", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"config error: {a_path}:5: {reason}\n"


def test_pipeline_zero_data_exits_2_naming_line(tmp_path, capsys):
    # Zero currents give zero interior data: forward runs, reconstruction
    # cannot, and the error names the a.csv the pipeline just wrote.
    cfg = write_config(tmp_path / "run.cfg", tmp_path / "out", currents="0,0")
    assert run(["pipeline", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("config error: ") and f"{tmp_path / 'out' / 'a.csv'}:2: " in err
    assert err.count(str(tmp_path / "out" / "a.csv")) == 1


def test_calibrate_malformed_field_exits_2_naming_line(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg", tmp_path / "out")
    assert run(["pipeline", "--config", str(cfg)]) == 0
    v_path = tmp_path / "out" / "v.csv"
    v_path.write_text(v_path.read_text().replace("\n7,", "\n7,x", 1))
    capsys.readouterr()
    assert run(["calibrate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{v_path}:9: " in err
    assert err.count(str(v_path)) == 1


def _set_row(name, index, row):
    def edit(out):
        lines = (out / name).read_text().splitlines()
        lines[index] = row
        (out / name).write_text("\n".join(lines) + "\n")
    return edit


def _keep_rows(name, count):
    def edit(out):
        lines = (out / name).read_text().splitlines()
        (out / name).write_text("\n".join(lines[:1 + count]) + "\n")
    return edit


def _reversed_ids(name):
    def edit(out):
        header, *rows = (out / name).read_text().splitlines()
        ids = [row.split(",", 1)[0] for row in rows][::-1]
        rows = [f"{i},{row.split(',', 1)[1]}" for i, row in zip(ids, rows)]
        (out / name).write_text("\n".join([header, *rows]) + "\n")
    return edit


def _directory(name):
    def edit(out):
        (out / name).unlink()
        (out / name).mkdir()
    return edit


def _flat_trace(out):
    lines = (out / "trace.csv").read_text().splitlines()
    rows = [line.split(",")[0] + ",0.5" for line in lines[1:]]
    (out / "trace.csv").write_text("\n".join([lines[0], *rows]) + "\n")


# A corrupted stage file is a configuration error naming that file.  On the
# 12x12 mesh node 5 lies on the bottom electrode and node 25 inside; node 11
# is the first trace row's.
CALIBRATE_INPUTS = {
    "trace-token": (_set_row("trace.csv", 2, "30,abc"), "trace.csv:3: "),
    "trace-node-nan": (_set_row("trace.csv", 2, "nan,0.1"), "trace.csv:3: "),
    "trace-node-inf": (_set_row("trace.csv", 2, "inf,0.1"), "trace.csv:3: "),
    # A NaN coordinate is no distance from any node: it must match none.
    "trace-coordinate-nan": (lambda out: (out / "trace.csv").write_text(
        "# trace,V,node\n0.5454545454545454,-0.001\nnan,0\n1.0,0.001\n"),
        "trace.csv:3: coordinate nan matches no node on side 'right'"),
    "trace-repeated-node": (_set_row("trace.csv", 2, "11,0.0005"),
                            "trace.csv:3: trace node 11 occurs twice"),
    "trace-node-on-electrode": (_set_row("trace.csv", 2, "5,0.1"),
                                "trace.csv:3: node 5 is not on side 'right'"),
    "trace-node-interior": (_set_row("trace.csv", 2, "25,0.1"),
                            "trace.csv:3: node 25 is not on side 'right'"),
    "trace-flat": (_flat_trace, "trace.csv: "),
    "trace-one-row": (_keep_rows("trace.csv", 1),
                      "trace.csv: need at least 2 distinct computed-potential values"),
    "trace-header-only": (_keep_rows("trace.csv", 0), "trace.csv: holds no samples"),
    "v-short": (_keep_rows("v.csv", 99), "v.csv: "),
    "V-one-row": (_keep_rows("V.csv", 1), "V.csv: "),
    "V-three-voltages": (lambda out: write_field(out / "V.csv", "V", "V", "electrode",
                                                 [-1.0, 0.5, 0.5]), "V.csv: "),
    "sigma_v-negative": (_set_row("sigma_v.csv", 4, "3,-0.5"), "sigma_v.csv: "),
    "sigma_v-nan": (_set_row("sigma_v.csv", 4, "3,nan"),
                    "sigma_v.csv:5: value nan is not finite"),
    "sigma_v-inf": (_set_row("sigma_v.csv", 4, "3,inf"),
                    "sigma_v.csv:5: value inf is not finite"),
    "sigma_v-short": (_keep_rows("sigma_v.csv", 100), "sigma_v.csv: "),
    "trace-nan": (_set_row("trace.csv", 2, "23,nan"), "trace.csv:3: value nan is not finite"),
    "trace-inf": (_set_row("trace.csv", 2, "23,inf"), "trace.csv:3: value inf is not finite"),
    # One coordinate key makes every key a coordinate: node 11 reads as 11.0.
    "trace-ids-and-a-coordinate": (_set_row("trace.csv", 2, "0.5,0.1"),
                                   "trace.csv:2: coordinate 11.0 matches no node on side 'right'"),
    "trace-node-beyond-int64": (_set_row("trace.csv", 2, "99999999999999999999,0.1"),
                                "trace.csv:3: cannot parse '99999999999999999999' as int64"),
    # Python's int reads both as node 23, the node this row holds.
    "trace-node-underscore": (_set_row("trace.csv", 2, "2_3,0.1"),
                              "trace.csv:3: cannot parse '2_3' as int64"),
    "trace-node-arabic-indic": (_set_row("trace.csv", 2, "\u0662\u0663,0.1"),
                                "trace.csv:3: cannot parse '\u0662\u0663' as int64"),
    "v-nan": (_set_row("v.csv", 2, "1,nan"), "v.csv:3: value nan is not finite"),
    "v-inf": (_set_row("v.csv", 2, "1,inf"), "v.csv:3: value inf is not finite"),
    "V-nan": (_set_row("V.csv", 2, "1,nan"), "V.csv:3: value nan is not finite"),
    "V-nonzero-sum": (lambda out: write_field(out / "V.csv", "V", "V", "electrode",
                                              [-1.0, 0.5]),
                      "V.csv: electrode voltages must sum to zero"),
    # Finite, but its gradient overflows: the fault is v.csv's, with no warning.
    "v-gradient-overflow": (_set_row("v.csv", 2, "1,1e308"),
                            "v.csv: grad_u must be finite; entry 0 holds"),
    "v-reversed-ids": (_reversed_ids("v.csv"), "v.csv:2: id 143, expected 0"),
    # A stage input that is missing or a directory, named once without an errno.
    "trace-missing": (lambda out: (out / "trace.csv").unlink(),
                      "trace.csv: not found; run the earlier stages first"),
    "trace-directory": (_directory("trace.csv"), "trace.csv: is a directory"),
    "sigma_v-missing": (lambda out: (out / "sigma_v.csv").unlink(),
                        "sigma_v.csv: not found; run the earlier stages first"),
    "V-directory": (_directory("V.csv"), "V.csv: is a directory"),
}


@pytest.mark.parametrize("edit,named", CALIBRATE_INPUTS.values(), ids=CALIBRATE_INPUTS.keys())
def test_calibrate_bad_input_file_exits_2_naming_file(tmp_path, capsys, valid_outputs,
                                                     edit, named):
    out = tmp_path / "out"
    shutil.copytree(valid_outputs, out)
    edit(out)
    cfg = write_config(tmp_path / "run.cfg", out)
    assert run(["calibrate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("config error: ") and f"{out}/{named}" in err
    assert err.count(str(out / named.split(":")[0])) == 1


def test_reconstruct_short_data_exits_2_naming_file(tmp_path, capsys, valid_outputs):
    out = tmp_path / "out"
    shutil.copytree(valid_outputs, out)
    _keep_rows("a.csv", 100)(out)
    cfg = write_config(tmp_path / "run.cfg", out)
    assert run(["reconstruct", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == \
        f"config error: {out / 'a.csv'}: expected 242 triangle values, got shape (100,)\n"


# The first file each command writes, to be blocked by a directory.
FIRST_OUTPUT = {"forward": "u.csv", "simulate": "sigma_true.csv",
                "reconstruct": "sigma_v.csv", "calibrate": "phi.csv",
                "pipeline": "sigma_true.csv", "metrics": "metrics.csv"}


@pytest.mark.parametrize("blocked", ["dir-under-file", "file-is-dir"])
@pytest.mark.parametrize("command", FIRST_OUTPUT)
def test_unwritable_output_exits_2_naming_path(tmp_path, capsys, valid_outputs,
                                              command, blocked):
    out = tmp_path / "out"
    shutil.copytree(valid_outputs, out)
    if blocked == "dir-under-file":
        out = path = out / "a.csv" / "out"
    else:
        path = out / FIRST_OUTPUT[command]
        path.unlink(missing_ok=True)
        path.mkdir()
    if command == "metrics":
        args = ["metrics", str(valid_outputs / "sigma_true.csv"),
                str(valid_outputs / "sigma_final.csv"), "--out", str(out)]
    else:
        args = [command, "--config", str(write_config(tmp_path / "run.cfg", out))]
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"config error: {path}: ")


@pytest.mark.parametrize("value,reason", [("", "must not be empty"),
                                          ("a\0b", "must not contain a NUL byte")],
                         ids=["empty", "nul"])
@pytest.mark.parametrize("command", FIRST_OUTPUT)
def test_out_flag_meets_the_output_dir_rule(tmp_path, capsys, monkeypatch, valid_outputs,
                                            command, value, reason):
    # An empty --out names the working directory, which holds every stage's
    # inputs here, so a command that got past the rule would write there.
    work = tmp_path / "work"
    shutil.copytree(valid_outputs, work)
    monkeypatch.chdir(work)

    def listing():
        return {p.name: (p.stat().st_mtime_ns, p.read_bytes()) for p in work.iterdir()}

    before = listing()
    if command == "metrics":
        args = ["metrics", "sigma_true.csv", "sigma_final.csv"]
    else:
        args = [command, "--config", str(write_config(tmp_path / "run.cfg", tmp_path / "cfg"))]
    assert run([*args, "--out", value]) == 2
    assert capsys.readouterr().err == f"config error: --out: {reason}\n"
    assert listing() == before
    assert not (tmp_path / "cfg").exists()


# A file a command reads, by the command that reads it.
READ_FILES = {
    "metrics-reference": ("r.csv", "metrics"),
    "metrics-candidate": ("c.csv", "metrics"),
    "config": ("run.cfg", "forward"),
    "stage-input": ("out/a.csv", "reconstruct"),
}
FILE_FAULTS = {"missing": "not found", "directory": "is a directory"}


@pytest.mark.parametrize("fault", FILE_FAULTS)
@pytest.mark.parametrize("name,command", READ_FILES.values(), ids=READ_FILES.keys())
def test_unreadable_input_exits_2_naming_it_once(tmp_path, capsys, name, command, fault):
    # Named once, without Python's errno text; a missing stage input says
    # how to make it.
    cfg = write_config(tmp_path / "run.cfg", tmp_path / "out")
    assert run(["simulate", "--config", str(cfg)]) == 0
    for field in ("r.csv", "c.csv"):
        write_field(tmp_path / field, "sigma", "S/m", "triangle", np.ones(4))
    path = tmp_path / name
    path.unlink()
    if fault == "directory":
        path.mkdir()
    args = (["metrics", str(tmp_path / "r.csv"), str(tmp_path / "c.csv"), "--out", str(tmp_path)]
            if command == "metrics" else [command, "--config", str(cfg)])
    reason = FILE_FAULTS[fault]
    if command == "reconstruct" and fault == "missing":
        reason += "; run the earlier stages first"
    capsys.readouterr()
    assert run(args) == 2
    assert capsys.readouterr().err == f"config error: {path}: {reason}\n"


# ----------------------------------------------------------------- metrics

def test_metrics_malformed_or_missing_file_exits_2(tmp_path, capsys):
    write_field(tmp_path / "r.csv", "sigma", "S/m", "triangle", np.ones(4))
    (tmp_path / "c.csv").write_text("# sigma,S/m,triangle\n0,1\n1,one\n2,1\n3,1\n")
    out = ["--out", str(tmp_path)]
    assert run(["metrics", str(tmp_path / "r.csv"), str(tmp_path / "c.csv"), *out]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{tmp_path / 'c.csv'}:3: " in err
    assert run(["metrics", str(tmp_path / "r.csv"), str(tmp_path / "none.csv"), *out]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "none.csv" in err
    (tmp_path / "c.csv").write_text("# sigma,S/m,triangle\n0,1\n1,1\n3,1\n2,1\n")
    assert run(["metrics", str(tmp_path / "r.csv"), str(tmp_path / "c.csv"), *out]) == 2
    assert capsys.readouterr().err == \
        f"config error: {tmp_path / 'c.csv'}:4: id 3, expected 2\n"


# Both files hold the same field; it is not one value per row, or it is empty.
METRICS_FIELDS = {
    "empty": ("# sigma,S/m,triangle\n", "(0,)"),
    "two-columns": ("# J,A/m^2,triangle\n0,1,2\n", "(1, 2)"),
}


@pytest.mark.parametrize("text,shape", METRICS_FIELDS.values(), ids=METRICS_FIELDS.keys())
def test_metrics_rejects_field_not_one_value_per_row(tmp_path, capsys, text, shape):
    for name in ("r.csv", "c.csv"):
        (tmp_path / name).write_text(text)
    assert run(["metrics", str(tmp_path / "r.csv"), str(tmp_path / "c.csv"),
                "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"config error: {tmp_path / 'r.csv'}: expected one value per row and "
        f"at least one row, got shape {shape}\n")


def test_metrics_names_an_input_file_called_metrics(tmp_path, capsys, monkeypatch):
    # The fault is keyed by the file, here one named like the command.
    monkeypatch.chdir(tmp_path)
    write_field("r.csv", "sigma", "S/m", "triangle", np.ones(3))
    (tmp_path / "metrics").write_text("# sigma,S/m,triangle\n")
    assert run(["metrics", "r.csv", "metrics"]) == 2
    assert capsys.readouterr().err == ("config error: metrics: expected one value per row "
                                       "and at least one row, got shape (0,)\n")
    (tmp_path / "metrics").write_text("# sigma,S/m,triangle\n0,1\n1,nan\n2,1\n")
    assert run(["metrics", "r.csv", "metrics"]) == 2
    assert capsys.readouterr().err == "config error: metrics:3: value nan is not finite\n"


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_metrics_rejects_a_value_that_is_not_finite(tmp_path, capsys, token):
    write_field(tmp_path / "r.csv", "sigma", "S/m", "triangle", np.ones(3))
    (tmp_path / "c.csv").write_text(f"# sigma,S/m,triangle\n0,1\n\n1,{token}\n2,1\n")
    assert run(["metrics", str(tmp_path / "r.csv"), str(tmp_path / "c.csv"),
                "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"config error: {tmp_path / 'c.csv'}:4: value {float(token)} is not finite\n")
    assert not (tmp_path / "metrics.csv").exists()


def test_metrics_identical(tmp_path):
    values = np.linspace(1.0, 2.0, 32)
    write_field(tmp_path / "r.csv", "sigma", "S/m", "triangle", values)
    write_field(tmp_path / "c.csv", "sigma", "S/m", "triangle", values)
    assert run(["metrics", str(tmp_path / "r.csv"), str(tmp_path / "c.csv"),
                "--out", str(tmp_path)]) == 0
    metrics = read_metrics(tmp_path / "metrics.csv")
    assert metrics["relative_l2"] == 0.0
    assert metrics["absolute_l2"] == 0.0
    assert metrics["max_error"] == 0.0


def test_metrics_writes_to_the_config_default_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    values = np.linspace(1.0, 2.0, 32)
    write_field("r.csv", "sigma", "S/m", "triangle", values)
    assert run(["metrics", "r.csv", "r.csv"]) == 0
    assert read_metrics(tmp_path / PipelineConfig.output_dir / "metrics.csv")["max_error"] == 0.0


def test_metrics_homogeneity(tmp_path):
    rng = np.random.default_rng(5)
    values = rng.uniform(1.0, 2.0, 50)
    write_field(tmp_path / "r.csv", "sigma", "S/m", "triangle", values)
    write_field(tmp_path / "c.csv", "sigma", "S/m", "triangle", 1.1 * values)
    run(["metrics", str(tmp_path / "r.csv"), str(tmp_path / "c.csv"),
         "--out", str(tmp_path)])
    assert read_metrics(tmp_path / "metrics.csv")["relative_l2"] == \
        pytest.approx(0.1, rel=1e-12)


def test_metrics_constant_fields(tmp_path):
    write_field(tmp_path / "r.csv", "sigma", "S/m", "triangle", np.full(64, 2.0))
    write_field(tmp_path / "c.csv", "sigma", "S/m", "triangle", np.full(64, 2.1))
    run(["metrics", str(tmp_path / "r.csv"), str(tmp_path / "c.csv"),
         "--out", str(tmp_path)])
    metrics = read_metrics(tmp_path / "metrics.csv")
    assert metrics["absolute_l2"] == pytest.approx(0.1, rel=1e-12)
    assert metrics["relative_l2"] == pytest.approx(0.05, rel=1e-12)
    assert metrics["max_error"] == pytest.approx(0.1, rel=1e-12)


def test_metrics_shape_mismatch(tmp_path, capsys):
    write_field(tmp_path / "r.csv", "sigma", "S/m", "triangle", np.ones(10))
    write_field(tmp_path / "c.csv", "sigma", "S/m", "triangle", np.ones(12))
    assert run(["metrics", str(tmp_path / "r.csv"), str(tmp_path / "c.csv"),
                "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == \
        "config error: metrics: field shapes differ: (10,) vs (12,)\n"


# ---------------------------------------------------------------- pipeline

PIPELINE_FILES = ("sigma_true.csv", "a.csv", "trace.csv", "sigma_v.csv",
                  "v.csv", "V.csv", "convergence.csv", "phi.csv",
                  "sigma_final.csv", "metrics.csv")


def test_pipeline_flat_phantom(tmp_path):
    # Amplitude zero with the shifted impedance: data is exactly unit, the
    # loop stops after one iteration, and calibration is the identity.
    cfg = write_config(tmp_path / "run.cfg", tmp_path / "out",
                       **{"electrodes[0].z": "1.0083", "currents": "-1,1",
                          "phantom.amplitude": "0"})
    assert run(["pipeline", "--config", str(cfg)]) == 0
    for name in PIPELINE_FILES:
        assert (tmp_path / "out" / name).exists()
    metrics = read_metrics(tmp_path / "out" / "metrics.csv")
    assert metrics["converged"] == 1
    assert metrics["iterations"] == 1
    assert metrics["relative_l2"] < 1e-6
    _, _, sigma_final = read_field(tmp_path / "out" / "sigma_final.csv")
    assert np.max(np.abs(sigma_final - 1.0)) < 1e-6


def test_pipeline_gaussian_phantom(tmp_path, caplog):
    cfg = write_config(tmp_path / "run.cfg", tmp_path / "out",
                       **{"mesh.side_nodes": "24",
                          "phantom.amplitude": "0.8",
                          "phantom.width": "0.02"})
    caplog.set_level(logging.INFO, logger="cdii")
    assert run(["pipeline", "--config", str(cfg)]) == 0
    metrics = read_metrics(tmp_path / "out" / "metrics.csv")
    assert metrics["converged"] == 1
    counts = re.search(r"converged in (\d+) iterations \((\d+) factorizations, "
                       r"(\d+) PCG iterations\)", caplog.text)
    iterations, factorizations, pcg_iterations = map(int, counts.groups())
    assert iterations == metrics["iterations"]
    assert 1 <= factorizations <= iterations and pcg_iterations > 0
    assert metrics["relative_l2"] < 0.05
    rows = read_convergence(tmp_path / "out" / "convergence.csv")
    objectives = [r[1] for r in rows]
    for prev, cur in zip(objectives, objectives[1:]):
        assert cur <= prev + 1e-8 * abs(prev)


def test_pipeline_exit_4_on_iteration_cap(tmp_path):
    cfg = write_config(tmp_path / "run.cfg", tmp_path / "out",
                       **{"mesh.side_nodes": "16",
                          "phantom.amplitude": "0.8",
                          "recon.max_iter": "1"})
    assert run(["pipeline", "--config", str(cfg)]) == 4
    for name in PIPELINE_FILES:
        assert (tmp_path / "out" / name).exists()
    metrics = read_metrics(tmp_path / "out" / "metrics.csv")
    assert metrics["converged"] == 0
    assert metrics["iterations"] == 1


def test_iteration_cap_warning_names_change_and_threshold(tmp_path, caplog):
    # At 20² with delta 1e-9 the stop rule is out of reach (the run would
    # go on to the default cap); the warning says how far the last step was.
    cfg = write_config(tmp_path / "run.cfg", tmp_path / "out",
                       **{"mesh.side_nodes": "20", "phantom.amplitude": "0.8",
                          "recon.delta": "1e-9", "recon.max_iter": "5"})
    caplog.set_level(logging.WARNING, logger="cdii")
    assert run(["pipeline", "--config", str(cfg)]) == 4
    found = re.search(r"iteration cap \(5\): the last gradient change (\S+) is above "
                      r"the stop threshold delta\*epsilon/essinf\(a\) = (\S+)$",
                      caplog.text, re.MULTILINE)
    change, threshold = map(float, found.groups())
    rows = read_convergence(tmp_path / "out" / "convergence.csv")
    assert len(rows) == 6
    assert change == pytest.approx(rows[-1][2], rel=1e-3)
    _, _, a = read_field(tmp_path / "out" / "a.csv")
    assert threshold == pytest.approx(1e-9 * 0.1 / a.min(), rel=1e-3)
    assert change > threshold


def test_pipeline_three_electrodes(tmp_path):
    # The top electrode split in two, fed unequal currents: the flow is no
    # longer symmetric, and the calibration curve still joins the electrodes.
    # Measured: 29 iterations to relative_l2 0.0039 with gamma on the right
    # and 0.0030 on the left; 13 iterations to 0.0088 with the bottom
    # electrode over 0.2-0.8.  Four electrodes, bottom and top each split at
    # 0.4/0.6 with unequal currents: 51 iterations to 0.0030 at delta 1e-9;
    # at 1e-7 the stop fires after 4 iterations at 0.0256.
    layouts = {"gamma-right": ({}, 0.01),
               "gamma-left": ({"gamma.side": "left"}, 0.006),
               "bottom-0.2-0.8": ({"electrodes[0].interval": "0.2,0.8"}, 0.015),
               "four-asymmetric": ({"electrodes[0].interval": "0,0.4",
                                    "electrodes[1].side": "bottom",
                                    "electrodes[1].interval": "0.6,1",
                                    "electrodes[2].interval": "0,0.4",
                                    "electrodes[3].side": "top",
                                    "electrodes[3].interval": "0.6,1",
                                    "electrodes[3].z": "0.0083",
                                    "currents": "-0.002,-0.001,0.0015,0.0015",
                                    "recon.delta": "1e-9"}, 0.005)}
    for name, (overrides, bound) in layouts.items():
        cfg = write_config(tmp_path / f"{name}.cfg", tmp_path / name,
                           **{"mesh.side_nodes": "61",
                              "electrodes[1].interval": "0,0.5",
                              "electrodes[2].side": "top",
                              "electrodes[2].interval": "0.5,1",
                              "electrodes[2].z": "0.0083",
                              "currents": "-0.003,0.001,0.002",
                              "phantom.amplitude": "0.8",
                              "phantom.width": "0.02",
                              "recon.delta": "1e-8",
                              "gamma.side": "right",
                              **overrides})
        assert run(["pipeline", "--config", str(cfg)]) == 0, name
        metrics = read_metrics(tmp_path / name / "metrics.csv")
        assert metrics["converged"] == 1, name
        assert metrics["relative_l2"] < bound, name


def test_pipeline_determinism(tmp_path):
    # Identical config and seed give byte-identical outputs; the wall-time
    # column of the convergence log is the one machine-dependent value.
    # With noisy data the gradient change plateaus at the noise floor, so
    # the stopping tolerance is set commensurate with the noise level.
    overrides = {"mesh.side_nodes": "16", "phantom.amplitude": "0.8",
                 "noise.level": "0.01", "noise.seed": "9",
                 "recon.delta": "3e-6"}
    cfg_a = write_config(tmp_path / "a.cfg", tmp_path / "out_a", **overrides)
    cfg_b = write_config(tmp_path / "b.cfg", tmp_path / "out_b", **overrides)
    assert run(["pipeline", "--config", str(cfg_a)]) == 0
    assert run(["pipeline", "--config", str(cfg_b)]) == 0
    assert output_bytes(tmp_path / "out_a", PIPELINE_FILES) == \
        output_bytes(tmp_path / "out_b", PIPELINE_FILES)


def test_seed_flag_exits_2(tmp_path, capsys):
    # noise.seed is set in the config only: --seed is an unknown option.
    cfg = write_config(tmp_path / "run.cfg", tmp_path / "out", **{"noise.level": "0.01"})
    with pytest.raises(SystemExit) as exit_:
        main(["simulate", "--config", str(cfg), "--seed", "1", "--quiet"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_stepwise_matches_pipeline_and_hides_truth(tmp_path):
    # The staged commands reproduce the single-shot pipeline, and neither
    # reconstruction nor calibration touches the true conductivity: both
    # still run after sigma_true.csv is deleted.
    overrides = {"mesh.side_nodes": "16", "phantom.amplitude": "0.8"}
    cfg_pipe = write_config(tmp_path / "p.cfg", tmp_path / "out_pipe", **overrides)
    assert run(["pipeline", "--config", str(cfg_pipe)]) == 0

    cfg_step = write_config(tmp_path / "s.cfg", tmp_path / "out_step", **overrides)
    assert run(["simulate", "--config", str(cfg_step)]) == 0
    sigma_true = (tmp_path / "out_step" / "sigma_true.csv").read_bytes()
    (tmp_path / "out_step" / "sigma_true.csv").unlink()
    assert run(["reconstruct", "--config", str(cfg_step)]) == 0
    assert run(["calibrate", "--config", str(cfg_step)]) == 0

    names = ("a.csv", "trace.csv", "sigma_v.csv", "v.csv", "V.csv",
             "convergence.csv", "phi.csv", "sigma_final.csv")
    assert output_bytes(tmp_path / "out_step", names) == \
        output_bytes(tmp_path / "out_pipe", names)
    assert (tmp_path / "out_pipe" / "sigma_true.csv").read_bytes() == sigma_true


def test_each_command_builds_one_operator(tmp_path, monkeypatch):
    # A command builds the CEM operator of its mesh and electrodes once:
    # the pipeline shares one between its stages, and calibrate solves
    # nothing.
    built = []
    init = cdii.fem_cem.CemOperator.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cdii.fem_cem.CemOperator, "__init__", counted)
    cfg = write_config(tmp_path / "run.cfg", tmp_path / "out")
    for command, operators in (("forward", 1), ("simulate", 1), ("reconstruct", 1),
                               ("calibrate", 0), ("pipeline", 1)):
        built.clear()
        assert run([command, "--config", str(cfg)]) == 0
        assert len(built) == operators, command


def test_pipeline_calibrates_as_calibrate_does(tmp_path, capsys, monkeypatch):
    # With VALUE_RTOL at 2 every sample's computed potential merges with the
    # one before, since no step exceeds the span, which is at most twice the
    # largest magnitude: the pipeline and the staged calibrate name the same
    # trace.csv.
    monkeypatch.setattr(cdii.calibration, "VALUE_RTOL", 2.0)
    cfg = write_config(tmp_path / "run.cfg", tmp_path / "out")
    message = (f"config error: {tmp_path / 'out' / 'trace.csv'}: need at least 2 distinct "
               "computed-potential values\n")
    assert run(["pipeline", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == message
    assert run(["calibrate", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == message


def log_uniform(lo, hi):
    return st.floats(np.log10(lo), np.log10(hi)).map(lambda e: 10.0 ** e)


# README electrodes on 12² with currents, impedances and phantom far from the
# defaults; each run ends in a documented exit code, with no traceback and,
# since warnings are errors here, no warning.
@settings(derandomize=True, max_examples=25, deadline=None)
@given(current=log_uniform(1e-15, 1.0), z0=log_uniform(1e-6, 1e25),
       z1=log_uniform(1e-6, 1e25), amplitude=st.floats(0.0, 10.0),
       centre_x=st.just(0.5) | st.floats(1.0, 1e200),
       noise=st.sampled_from([0.0, 0.01, 0.5]))
def test_pipeline_exits_with_a_documented_code(tmp_path_factory, current, z0, z1,
                                               amplitude, centre_x, noise):
    tmp = tmp_path_factory.mktemp("pipeline")
    cfg = write_config(tmp / "run.cfg", tmp / "out",
                       **{"currents": f"{-current!r},{current!r}",
                          "electrodes[0].z": repr(z0), "electrodes[1].z": repr(z1),
                          "phantom.amplitude": repr(amplitude),
                          "phantom.center": f"{centre_x!r},0.5",
                          "noise.level": repr(noise), "recon.max_iter": "30"})
    assert run(["pipeline", "--config", str(cfg)]) in (0, 2, 3, 4)


def test_calibrate_pools_a_swapped_trace_and_warns(tmp_path, caplog, valid_outputs):
    # Two adjacent measured values swapped break monotonicity: calibration
    # pools them into one breakpoint, warns and succeeds.
    out = tmp_path / "out"
    shutil.copytree(valid_outputs, out)
    header, *rows = (out / "trace.csv").read_text().splitlines()
    (i, a), (j, b) = (row.split(",") for row in rows[5:7])
    rows[5:7] = [f"{i},{b}", f"{j},{a}"]
    (out / "trace.csv").write_text("\n".join([header, *rows]) + "\n")
    with caplog.at_level(logging.WARNING, logger="cdii"):
        assert run(["calibrate", "--config", str(write_config(tmp_path / "run.cfg", out))]) == 0
    assert "calibration pairs violated monotonicity and were pooled" in caplog.text
    breakpoints = (out / "phi.csv").read_text().splitlines()[1:]
    assert len(breakpoints) < len(rows)


def test_calibrate_accepts_coordinate_trace(tmp_path):
    overrides = {"electrodes[0].z": "1.0083", "currents": "-1,1",
                 "phantom.amplitude": "0"}
    cfg = write_config(tmp_path / "run.cfg", tmp_path / "out", **overrides)
    assert run(["simulate", "--config", str(cfg)]) == 0
    assert run(["reconstruct", "--config", str(cfg)]) == 0

    # replace the node-id trace with a coordinate-keyed one
    mesh = build_uniform_mesh(12)
    ys = mesh.nodes[mesh.nodes_on_side("right"), 1]
    lines = ["# trace,V,node"]
    lines += [f"{y:.17g},{y:.17g}" for y in ys]  # measured potential = height
    (tmp_path / "out" / "trace.csv").write_text("\n".join(lines) + "\n")
    assert run(["calibrate", "--config", str(cfg)]) == 0
    _, _, sigma_final = read_field(tmp_path / "out" / "sigma_final.csv")
    assert np.max(np.abs(sigma_final - 1.0)) < 1e-6


def test_calibrate_rejects_two_coordinates_of_one_node(tmp_path, capsys, valid_outputs):
    out = tmp_path / "out"
    shutil.copytree(valid_outputs, out)
    # right side of the 12x12 mesh: node 11 at y = 0, node 23 at y = 1/11
    (out / "trace.csv").write_text("# trace,V,node\n0.0,-0.001\n"
                                   "0.09090909090909091,0.0\n1e-12,0.001\n")
    assert run(["calibrate", "--config", str(write_config(tmp_path / "run.cfg", out))]) == 2
    assert capsys.readouterr().err == (f"config error: {out / 'trace.csv'}:4: trace node 11 "
                                       "occurs twice; sample 2 repeats it\n")


def test_calibrate_rejects_unmatched_coordinate(tmp_path, capsys):
    overrides = {"electrodes[0].z": "1.0083", "currents": "-1,1",
                 "phantom.amplitude": "0"}
    cfg = write_config(tmp_path / "run.cfg", tmp_path / "out", **overrides)
    run(["simulate", "--config", str(cfg)])
    run(["reconstruct", "--config", str(cfg)])
    (tmp_path / "out" / "trace.csv").write_text(
        "# trace,V,node\n0.123,0.5\n0.9,0.9\n")
    assert run(["calibrate", "--config", str(cfg)]) == 2
    assert "trace" in capsys.readouterr().err

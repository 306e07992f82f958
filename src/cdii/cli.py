"""Command-line pipeline: simulate, reconstruct, calibrate, report.

Subcommands
-----------
forward      solve the forward problem for the configured phantom; writes
             u.csv (nodal potential), U.csv (electrode voltages), J.csv
             (per-triangle current density), a.csv (its magnitude)
simulate     writes sigma_true.csv, a.csv (noise applied), trace.csv
reconstruct  reads a.csv; writes sigma_v.csv, v.csv, V.csv, convergence.csv
calibrate    reads sigma_v.csv, v.csv, V.csv, trace.csv; writes phi.csv
             and sigma_final.csv
pipeline     all of the above in one process, plus metrics.csv
metrics      compare two per-triangle fields, write metrics.csv

Exit codes: 0 success, 2 configuration error, 3 solver failure,
4 reconstruction hit the iteration cap (files are still written).  A
configuration error is one stderr line keyed by the config key or the
file at fault: a field file or trace.csv a command reads with a row that
does not parse or a value that is not finite, or a field file with an id
out of order (file and line), a stage input that is missing or not one
value per triangle, node or electrode, a trace or metrics field it cannot
use, or an output path that cannot be written.  A solver failure is a
linear solve that misses the residual contract or a singular factorization.

File formats
------------
Field files carry a "# quantity,unit,entity" header then id,value rows
with 17 significant digits.  trace.csv rows are key,value, each key a node
on gamma.side or a coordinate along it (csvio.read_trace states which).
phi.csv is a two-column s,t table of the calibration map.
convergence.csv columns: iteration,objective,max_grad_diff,wall_time_ms
(wall time is the one machine-dependent output).  metrics.csv rows:
relative_l2, absolute_l2, max_error, iterations, converged.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import logging
import sys
from pathlib import Path

import numpy as np

from .calibration import (
    BoundaryVoltageTrace,
    apply_calibration,
    build_monotone_map,
    collect_pairs,
)
from .config import ConfigError, PipelineConfig, load_config
from .csvio import (
    data_line,
    read_field,
    read_trace,
    write_convergence,
    write_field,
    write_metrics,
    write_phi,
    write_trace,
)
from .fem_cem import (
    CemOperator,
    ConductivityField,
    CurrentPattern,
    ForwardSolution,
    LastFactor,
    SolverError,
    _check_currents,
    interior_current,
    solve_forward,
)
from .mesh import (
    Mesh,
    ParameterError,
    _grid_index,
    build_uniform_mesh,
    locate_electrodes,
    triangle_gradients,
)
from .phantom import add_noise, gaussian_phantom, simulate_data
from .weighted_gradient import (
    InteriorData,
    ReconstructionConfig,
    ReconstructionResult,
    reconstruct,
)

log = logging.getLogger("cdii")


@contextlib.contextmanager
def _keyed(key: str):
    """Raise a ValueError or OSError as a ConfigError under ``key`` plus the
    name a ``ParameterError`` carries (``"recon."`` + ``"epsilon"``).  A
    message that already starts with ``key``, as a file's ``path:line: ``
    does, keeps its own location as the key, so the key is named once."""
    try:
        yield
    except (OSError, ValueError) as exc:
        message = str(exc)
        if message.startswith(f"{key}:"):
            at = message.index(": ", len(key))
            raise ConfigError(message[:at], message[at + 2:]) from None
        raise ConfigError(key + getattr(exc, "name", ""), message) from None


def _build_problem(cfg: PipelineConfig):
    """Every domain object the config describes, built before any solve so
    that an invalid value fails each command alike; the noise parameters
    are checked by noising empty data."""
    with _keyed("mesh.side_nodes"):
        mesh = build_uniform_mesh(cfg.side_nodes)
    with _keyed("electrodes"):
        setup = locate_electrodes(mesh, [(es.side, (es.lo, es.hi)) for es in cfg.electrodes],
                                  [es.z for es in cfg.electrodes])
    with _keyed("currents"):
        currents = CurrentPattern(np.asarray(cfg.currents))
        _check_currents(setup, currents)
    with _keyed("recon."):
        rc = ReconstructionConfig(epsilon=cfg.epsilon, delta=cfg.delta, max_iter=cfg.max_iter)
    with _keyed("gamma.side"):
        gamma_edges = mesh.edges_on_side(cfg.gamma_side)
        for k, e in enumerate(setup.electrodes):
            if np.intersect1d(gamma_edges, e.edge_ids).size:
                raise ValueError(f"measurement curve overlaps electrodes[{k}]; it must "
                                 "join the electrodes without covering them")
    with _keyed("phantom."):
        sigma_true = gaussian_phantom(mesh, cfg.phantom_center, cfg.phantom_amplitude,
                                      cfg.phantom_width)
    with _keyed("noise."):
        add_noise(InteriorData(np.empty(0)), cfg.noise_level, cfg.noise_seed)
    return mesh, setup, currents, rc, sigma_true


def _out_dir(cfg: PipelineConfig) -> Path:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _metric_rows(reference: np.ndarray, candidate: np.ndarray) -> list[tuple[str, float]]:
    # Uniform mesh: every triangle carries area 1/n_tri of the unit square.
    area = 1.0 / len(reference)
    diff = candidate - reference
    abs_l2 = float(np.sqrt(np.sum(diff ** 2) * area))
    ref_l2 = float(np.sqrt(np.sum(reference ** 2) * area))
    rel_l2 = abs_l2 / ref_l2 if ref_l2 > 0.0 else float("inf")
    return [
        ("relative_l2", rel_l2),
        ("absolute_l2", abs_l2),
        ("max_error", float(np.max(np.abs(diff)))),
    ]


def cmd_forward(cfg: PipelineConfig) -> int:
    mesh, setup, currents, _, sigma = _build_problem(cfg)
    sol = solve_forward(mesh, sigma, setup, currents)
    J, a = interior_current(mesh, sigma, sol)
    out = _out_dir(cfg)
    write_field(out / "u.csv", "u", "V", "node", sol.u)
    write_field(out / "U.csv", "U", "V", "electrode", sol.U)
    write_field(out / "J.csv", "J", "A/m^2", "triangle", J)
    write_field(out / "a.csv", "a", "A/m^2", "triangle", a)
    log.info("forward solve done: %d nodes, %d electrodes -> %s",
             mesh.node_count, setup.count, out)
    return 0


def _simulate(cfg: PipelineConfig, mesh: Mesh, setup, currents,
              sigma_true: ConductivityField, out: Path,
              factor: LastFactor | None = None):
    """Simulate and noise the data; writes sigma_true.csv, a.csv, trace.csv."""
    data, trace, sol = simulate_data(mesh, sigma_true, setup, currents, cfg.gamma_side,
                                     factor=factor)
    with _keyed("noise."):
        data = add_noise(data, cfg.noise_level, cfg.noise_seed)
    del sol  # generating solution stays out of the reconstruction path
    write_field(out / "sigma_true.csv", "sigma", "S/m", "triangle", sigma_true.values)
    write_field(out / "a.csv", "a", "A/m^2", "triangle", data.values)
    write_trace(out / "trace.csv", trace.node_ids, trace.values)
    log.info("simulated data: essinf a = %.3e -> %s", data.essinf, out)
    return data, trace


def cmd_simulate(cfg: PipelineConfig) -> int:
    mesh, setup, currents, _, sigma_true = _build_problem(cfg)
    _simulate(cfg, mesh, setup, currents, sigma_true, _out_dir(cfg))
    return 0


def _finite(path, values: np.ndarray) -> np.ndarray:
    """``values``, read from ``path``; one that is not finite is an error naming its line."""
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        row = int(bad[0][0])
        raise ValueError(f"{path}:{data_line(path, row)}: value "
                         f"{values[tuple(bad[0])]} is not finite")
    return values


def _field_values(path) -> np.ndarray:
    """The values of the field file ``path``, whose rows must carry the ids
    0, 1, 2, ... in order, so that no value is taken for another entity's,
    and finite values; a row that does not is an error naming its line."""
    _, ids, values = read_field(path)
    wrong = np.flatnonzero(ids != np.arange(len(ids)))
    if wrong.size:
        row = int(wrong[0])
        raise ValueError(f"{path}:{data_line(path, row)}: id {ids[row]}, expected {row}")
    return _finite(path, values)


def _stage_input(path: Path, count: int, entity: str) -> np.ndarray:
    """The ``count`` values, one per ``entity``, of the field file an
    earlier stage wrote to ``path``; any fault is keyed by the file."""
    with _keyed(str(path)):
        if not path.exists():
            raise FileNotFoundError("not found; run the earlier stages first")
        values = _field_values(path)
        if values.shape != (count,):
            raise ValueError(f"expected {count} {entity} values, got shape {values.shape}")
    return values


def _reconstruct(rc: ReconstructionConfig, mesh: Mesh, setup, currents,
                 a_values: np.ndarray, out: Path,
                 factor: LastFactor | None = None) -> ReconstructionResult:
    """Reconstruct from the values of out/a.csv; writes sigma_v.csv, v.csv,
    V.csv, convergence.csv.  A value that is invalid, or data that is not
    bounded away from zero, is an error naming the file and the line of the
    first invalid or minimal value."""
    a_path = out / "a.csv"
    try:
        result = reconstruct(mesh, InteriorData(a_values), setup, currents, rc,
                             factor=factor)
    except ValueError as exc:
        bad = InteriorData.first_invalid(a_values)
        line = data_line(a_path, int(np.argmin(a_values)) if bad is None else bad)
        raise ConfigError(f"{a_path}:{line}", str(exc)) from None
    if result.converged:
        log.info("reconstruction converged in %d iterations (%d factorizations, "
                 "%d PCG iterations)", result.iterations, result.factorizations,
                 result.pcg_iterations)
    else:
        log.warning("reconstruction hit the iteration cap (%d): the last gradient "
                    "change %.3e is above the stop threshold delta*epsilon/essinf(a) "
                    "= %.3e", rc.max_iter, result.log[-1].max_grad_diff,
                    result.stop_threshold)
    write_field(out / "sigma_v.csv", "sigma", "S/m", "triangle", result.sigma_v.values)
    write_field(out / "v.csv", "v", "V", "node", result.solution.u)
    write_field(out / "V.csv", "V", "V", "electrode", result.solution.U)
    write_convergence(out / "convergence.csv", result.log)
    return result


def cmd_reconstruct(cfg: PipelineConfig) -> int:
    mesh, setup, currents, rc, _ = _build_problem(cfg)
    out = _out_dir(cfg)
    a_values = _stage_input(out / "a.csv", mesh.triangle_count, "triangle")
    result = _reconstruct(rc, mesh, setup, currents, a_values, out)
    return 0 if result.converged else 4


def _trace_from_file(mesh: Mesh, gamma_side: str, path: Path) -> BoundaryVoltageTrace:
    """The trace of the file ``path``, its keys placed on ``gamma_side``: node
    ids must lie on it, coordinates must match its nodes.  A value that is not
    finite or a repeated node is an error naming its line."""
    keys, values = read_trace(path)
    _finite(path, values)
    side_ids = mesh.nodes_on_side(gamma_side)
    ids = keys
    if keys.dtype == float:
        index = _grid_index(mesh, keys)
        if (miss := np.flatnonzero(index < 0)).size:
            raise ValueError(f"coordinate {keys[miss[0]]} matches no node on side {gamma_side!r}")
        ids = side_ids[index]
    elif (off_side := np.setdiff1d(ids, side_ids)).size:
        raise ValueError(f"node {off_side[0]} is not on side {gamma_side!r}")
    try:
        return BoundaryVoltageTrace(node_ids=ids, values=values)
    except ValueError as exc:
        # The ids are nonempty, 1-d and int64 (read_trace, side_ids) and the
        # values finite (_finite): a repeated node is the one fault left here.
        row = BoundaryVoltageTrace.first_repeated(ids)
        raise ValueError(f"{path}:{data_line(path, row)}: {exc}") from None


def _calibrate(mesh: Mesh, setup, result: ReconstructionResult,
               trace: BoundaryVoltageTrace, out: Path) -> ConductivityField:
    """Calibrate ``result`` by the trace of out/trace.csv; writes phi.csv and
    sigma_final.csv.  Samples that give no map are an error naming that file."""
    with _keyed(str(out / "trace.csv")):
        phi = build_monotone_map(collect_pairs(mesh, setup, result, trace))
    if phi.repaired:
        log.warning("calibration pairs violated monotonicity and were pooled")
    sigma_final = apply_calibration(mesh, result, phi)
    write_phi(out / "phi.csv", phi)
    write_field(out / "sigma_final.csv", "sigma", "S/m", "triangle",
                sigma_final.values)
    return sigma_final


def cmd_calibrate(cfg: PipelineConfig) -> int:
    mesh, setup, _, _, _ = _build_problem(cfg)
    out = _out_dir(cfg)
    sigma_path, v_path, V_path, trace_path = (
        out / name for name in ("sigma_v.csv", "v.csv", "V.csv", "trace.csv"))
    sigma_v = _stage_input(sigma_path, mesh.triangle_count, "triangle")
    v = _stage_input(v_path, mesh.node_count, "node")
    V = _stage_input(V_path, setup.count, "electrode")
    with _keyed(str(sigma_path)):
        sigma_v = ConductivityField(sigma_v)
    try:
        with np.errstate(over="ignore"):  # ForwardSolution refuses an overflowed gradient
            solution = ForwardSolution(u=v, U=V, grad_u=triangle_gradients(mesh, v))
    except ParameterError as exc:  # V's zero sum, or v's gradient (v is finite)
        raise ConfigError(str(V_path if exc.name == "U" else v_path), str(exc)) from None
    result = ReconstructionResult(sigma_v=sigma_v, solution=solution, log=[],
                                  converged=True, iterations=0)
    with _keyed(str(trace_path)):
        trace = _trace_from_file(mesh, cfg.gamma_side, trace_path)
    _calibrate(mesh, setup, result, trace, out)
    return 0


def cmd_pipeline(cfg: PipelineConfig) -> int:
    mesh, setup, currents, rc, sigma_true = _build_problem(cfg)
    out = _out_dir(cfg)
    # One operator for both stages, each with a factor of its own, so each
    # stage solves exactly as its own command does.
    operator = CemOperator(mesh, setup)
    data, trace = _simulate(cfg, mesh, setup, currents, sigma_true, out,
                            LastFactor(operator))
    result = _reconstruct(rc, mesh, setup, currents, data.values, out,
                          LastFactor(operator))
    sigma_final = _calibrate(mesh, setup, result, trace, out)

    rows = _metric_rows(sigma_true.values, sigma_final.values)
    rows.append(("iterations", result.iterations))
    rows.append(("converged", int(result.converged)))
    write_metrics(out / "metrics.csv", rows)
    log.info("pipeline done: relative_l2 = %.3e -> %s", rows[0][1], out)
    return 0 if result.converged else 4


def cmd_metrics(reference: str, candidate: str, out_dir: str) -> int:
    with _keyed("metrics"):
        ref = _field_values(reference)
        cand = _field_values(candidate)
        for path, values in ((reference, ref), (candidate, cand)):
            if values.ndim != 1 or not len(values):
                raise ValueError(f"{path}: expected one value per row and at "
                                 f"least one row, got shape {values.shape}")
        if ref.shape != cand.shape:
            raise ValueError(f"field shapes differ: {ref.shape} vs {cand.shape}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_metrics(out / "metrics.csv", _metric_rows(ref, cand))
    return 0


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cdii", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def add_config_command(name, help_text):
        q = sub.add_parser(name, help=help_text)
        q.add_argument("--config", required=True, help="path to key=value config")
        q.add_argument("--out", help="override output.dir")
        q.add_argument("--seed", type=int, help="override noise.seed")
        q.add_argument("--quiet", action="store_true", help="suppress progress output")
        return q

    add_config_command("forward", "solve the forward problem and export fields")
    add_config_command("simulate", "generate interior data and a boundary trace")
    add_config_command("reconstruct", "run the iterative reconstruction on a.csv")
    add_config_command("calibrate", "build the calibration map and rescale")
    add_config_command("pipeline", "simulate, reconstruct, calibrate, report")

    q = sub.add_parser("metrics", help="compare two per-triangle fields")
    q.add_argument("reference", help="reference field CSV")
    q.add_argument("candidate", help="candidate field CSV")
    q.add_argument("--out", default=PipelineConfig.output_dir, help="directory for metrics.csv")
    q.add_argument("--quiet", action="store_true", help="suppress progress output")
    return p


_COMMANDS = {
    "forward": cmd_forward,
    "simulate": cmd_simulate,
    "reconstruct": cmd_reconstruct,
    "calibrate": cmd_calibrate,
    "pipeline": cmd_pipeline,
}


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    logging.basicConfig(stream=sys.stderr, format="%(message)s",
                        level=logging.WARNING if args.quiet else logging.INFO)
    try:
        if args.command == "metrics":
            return cmd_metrics(args.reference, args.candidate, args.out)
        cfg = load_config(args.config)
        if args.out is not None:
            cfg = dataclasses.replace(cfg, output_dir=args.out)
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, noise_seed=args.seed)
        return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # an output directory or file that cannot be written
        print(f"config error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

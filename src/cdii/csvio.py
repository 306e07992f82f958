"""CSV export/import of fields, traces, maps, and logs.

Field files carry a one-line comment header ``# quantity,unit,entity``
(entity is ``triangle``, ``node``, or ``electrode``) followed by
``id,value[,value...]`` rows.  Floats are written with 17 significant
digits, which round-trips binary64 exactly and keeps outputs byte-stable
across runs.  Writers format each block of rows in one ``%`` pass.
"""

from __future__ import annotations

import io
from itertools import islice
from pathlib import Path

import numpy as np

from .mesh import Mesh

_BLOCK = 4096  # rows per % pass: bounds the writer's buffers whatever the file size


def _write_rows(path, header: str, row, *columns) -> None:
    """Write ``header`` and ``columns`` in lines of ``row``, a template or one per line."""
    with open(path, "w") as f:
        f.write(f"{header}\n")
        for start in range(0, len(columns[0]), _BLOCK):
            block = np.array([c[start:start + _BLOCK] for c in columns], dtype=object).T
            lines = row[start:start + _BLOCK] if isinstance(row, list) else [row] * len(block)
            f.write("".join(lines) % tuple(block.ravel().tolist()))


def write_field(path, quantity: str, unit: str, entity: str,
                values: np.ndarray, ids: np.ndarray | None = None) -> None:
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    row = "%d" + ",%.17g" * values.shape[1] + "\n"
    _write_rows(path, f"# {quantity},{unit},{entity}", row,
                np.arange(len(values)) if ids is None else ids, *values.T)


def _data_rows(text: str):
    """(1-based line number, tokens) of each line not blank after a ``#`` comment."""
    for lineno, line in enumerate(io.StringIO(text), start=1):
        line = line.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split(",")


def _malformed(path, rows, parsers) -> ValueError | None:
    """The error of the first of ``rows`` whose tokens ``parsers`` reject, if any."""
    for line, tokens in rows:
        if len(tokens) != len(parsers):
            return ValueError(f"{path}:{line}: {len(tokens)} columns, expected {len(parsers)}")
        for token, parse in zip(tokens, parsers):
            try:
                parse(token)
            except ValueError:
                return ValueError(f"{path}:{line}: cannot parse {token!r} as {parse.__name__}")
    return None


def read_field(path) -> tuple[tuple[str, str, str], np.ndarray, np.ndarray]:
    """Read a field file; returns ((quantity, unit, entity), ids, values).

    Values are 1-d when rows carry a single value, else (n, k).  Ids parse
    as int64, which rejects "5.5" as ``int`` does.  A row that does not
    parse raises ``ValueError`` naming the file and its 1-based line."""
    text = Path(path).read_text()
    first = text.partition("\n")[0].strip()
    parts = tuple(p.strip() for p in first.lstrip("#").split(","))
    header = parts if first.startswith("#") and len(parts) == 3 else ("", "", "")
    row = next(_data_rows(text), None)
    if row is None:
        return header, np.zeros(0, dtype=np.int64), np.zeros(0)
    k = len(row[1]) - 1
    dtype = np.dtype([("id", np.int64), ("v", float, (k,))])
    try:
        table = np.loadtxt(io.StringIO(text), dtype=dtype, delimiter=",",
                           comments="#", ndmin=1)
    except ValueError as exc:
        error = (_malformed(path, _data_rows(text), [int] + [float] * k)
                 or ValueError(f"{path}: {exc}"))
        raise error from None
    values = table["v"][:, 0] if k == 1 else table["v"]
    return header, np.ascontiguousarray(table["id"]), np.ascontiguousarray(values)


def data_line(path, row: int) -> int:
    """1-based line number of data row ``row`` (0-based) of a field file."""
    return next(islice(_data_rows(Path(path).read_text()), row, None))[0]


def write_trace(path, node_ids: np.ndarray, values: np.ndarray) -> None:
    write_field(path, "trace", "V", "node", values, ids=node_ids)


def read_trace(path) -> list[tuple[str, float]]:
    """Raw trace rows as (first-column token, value); the first column may
    hold a node id or a coordinate along the curve.  A row that is not two
    numbers raises ``ValueError`` naming the file and its 1-based line."""
    rows = list(_data_rows(Path(path).read_text()))
    error = _malformed(path, rows, [float, float])
    if error:
        raise error
    rows = [(first.strip(), float(second)) for _, (first, second) in rows]
    if not rows:
        raise ValueError(f"trace file {path} holds no samples")
    return rows


def write_phi(path, phi) -> None:
    """Two-column (s, t) dump of a calibration map's breakpoints."""
    _write_rows(path, "s,t", "%.17g,%.17g\n", phi.breakpoints, phi.values)


def write_convergence(path, log) -> None:
    _write_rows(path, "iteration,objective,max_grad_diff,wall_time_ms", "%s,%.17g,%.17g,%.17g\n",
                [r.iteration for r in log], [r.objective for r in log],
                [r.max_grad_diff for r in log], [r.wall_ms for r in log])


def _read_table(path, parsers) -> list[tuple]:
    """The rows after the header line, parsed column by column by ``parsers``.
    A row that does not parse raises ``ValueError`` naming the file and its
    1-based line."""
    rows = list(islice(_data_rows(Path(path).read_text()), 1, None))
    error = _malformed(path, rows, parsers)
    if error:
        raise error
    return [tuple(parse(token) for parse, token in zip(parsers, tokens)) for _, tokens in rows]


def write_metrics(path, rows: list[tuple[str, float]]) -> None:
    _write_rows(path, "metric,value",
                ["%s,%s\n" if isinstance(value, (int, np.integer)) else "%s,%.17g\n"
                 for _, value in rows],
                [name for name, _ in rows], [value for _, value in rows])


def read_metrics(path) -> dict[str, float]:
    return dict(_read_table(path, [str, float]))


def write_mesh_csv(mesh: Mesh, nodes_path, triangles_path) -> None:
    """Debug dump of the mesh: node table id,x,y and triangle table id,v0,v1,v2."""
    _write_rows(nodes_path, "id,x,y", "%d,%.17g,%.17g\n",
                np.arange(len(mesh.nodes)), *mesh.nodes.T)
    _write_rows(triangles_path, "id,v0,v1,v2", "%d,%d,%d,%d\n",
                np.arange(len(mesh.triangles)), *mesh.triangles.T)

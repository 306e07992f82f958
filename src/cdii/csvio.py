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

_BLOCK = 4096  # rows per % pass: bounds the writer's buffers whatever the file size


def _write_rows(path, header: str, row: str, *columns) -> None:
    """Write ``header`` and ``columns`` in lines of the template ``row``."""
    with open(path, "w") as f:
        f.write(f"{header}\n")
        for start in range(0, len(columns[0]), _BLOCK):
            block = np.array([c[start:start + _BLOCK] for c in columns], dtype=object).T
            f.write(row * len(block) % tuple(block.ravel().tolist()))


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


def _parsed(path, rows, parsers) -> list[tuple]:
    """The tokens of each of ``rows`` parsed by ``parsers``, column by column.
    Numbers are ASCII without ``_``, as ``np.loadtxt`` reads them.  The first
    row that does not parse raises ``ValueError`` naming the file and line."""
    parsed = []
    for line, tokens in rows:
        if len(tokens) != len(parsers):
            raise ValueError(f"{path}:{line}: {len(tokens)} columns, expected {len(parsers)}")
        row = []
        for token, parse in zip(tokens, parsers):
            try:
                if parse is not str and (not token.isascii() or "_" in token):
                    raise ValueError
                row.append(parse(token))
            except (ValueError, OverflowError):
                raise ValueError(f"{path}:{line}: cannot parse {token!r} as "
                                 f"{parse.__name__}") from None
        parsed.append(tuple(row))
    return parsed


def read_field(path) -> tuple[tuple[str, str, str], np.ndarray, np.ndarray]:
    """Read a field file; returns ((quantity, unit, entity), ids, values).

    Values are 1-d when rows carry a single value, else (n, k).  Ids are
    int64, and no number holds ``_`` or a non-ASCII digit; a row that does
    not parse raises ``ValueError`` naming the file and its 1-based line."""
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
        _parsed(path, _data_rows(text), [np.int64] + [float] * k)  # names the line if it can
        raise ValueError(f"{path}: {exc}") from None
    values = table["v"][:, 0] if k == 1 else table["v"]
    return header, np.ascontiguousarray(table["id"]), np.ascontiguousarray(values)


def data_line(path, row: int) -> int:
    """1-based line number of data row ``row`` (0-based) of a field file."""
    return next(islice(_data_rows(Path(path).read_text()), row, None))[0]


def write_trace(path, node_ids: np.ndarray, values: np.ndarray) -> None:
    write_field(path, "trace", "V", "node", values, ids=node_ids)


def read_trace(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a trace file of ``key,value`` rows; returns (keys, values).

    The first column keys the whole file: int64 node ids, unless some key
    holds ``.``, ``e`` or ``E``, which makes every key a float coordinate
    along the measurement side.  Values may be non-finite.  A row that does
    not parse, as in ``read_field``, raises ``ValueError`` naming the file
    and its 1-based line; a file without samples raises one naming the file."""
    rows = list(_data_rows(Path(path).read_text()))
    if not rows:
        raise ValueError(f"{path}: holds no samples")
    key = float if any(c in tokens[0] for _, tokens in rows for c in ".eE") else np.int64
    keys, values = zip(*_parsed(path, rows, [key, float]))
    return np.array(keys, dtype=key), np.array(values)


def write_phi(path, phi) -> None:
    """Two-column (s, t) dump of a calibration map's breakpoints."""
    _write_rows(path, "s,t", "%.17g,%.17g\n", phi.breakpoints, phi.values)


def write_convergence(path, log) -> None:
    _write_rows(path, "iteration,objective,max_grad_diff,wall_time_ms", "%s,%.17g,%.17g,%.17g\n",
                [r.iteration for r in log], [r.objective for r in log],
                [r.max_grad_diff for r in log], [r.wall_ms for r in log])


def _read_table(path, parsers) -> list[tuple]:
    """The rows after the header line, parsed by ``parsers`` as ``_parsed`` does."""
    return _parsed(path, islice(_data_rows(Path(path).read_text()), 1, None), parsers)


def write_metrics(path, rows: list[tuple[str, float]]) -> None:
    # '%.17g' writes an integer count as its digits: '%.17g' % 81 == '81'.
    _write_rows(path, "metric,value", "%s,%.17g\n",
                [name for name, _ in rows], [value for _, value in rows])


def read_metrics(path) -> dict[str, float]:
    return dict(_read_table(path, [str, float]))

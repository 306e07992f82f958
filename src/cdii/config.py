"""Flat key=value configuration for the pipeline.

The format is one ``key=value`` per line with dotted section prefixes,
e.g. ``mesh.side_nodes=90``; blank lines and lines starting with ``#`` are
ignored.  Electrodes are indexed: ``electrodes[0].side``,
``electrodes[0].interval`` (two comma-separated coordinates), and
``electrodes[0].z``.  Errors name the offending key.  Value ranges are
checked by the domain constructors (the CLI names the key), except the
phantom, noise and output ones, which not every command would reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path


class ConfigError(Exception):
    """Invalid configuration; ``key`` names the offending entry."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"{key}: {message}")


@dataclass(frozen=True)
class ElectrodeSpec:
    side: str
    lo: float
    hi: float
    z: float


@dataclass(frozen=True)
class PipelineConfig:
    side_nodes: int
    electrodes: tuple[ElectrodeSpec, ...]
    currents: tuple[float, ...]
    epsilon: float = 0.1
    delta: float = 1e-7
    max_iter: int = 1000
    solver_tol: float = 1e-10
    phantom_center: tuple[float, float] = (0.5, 0.5)
    phantom_amplitude: float = 0.0
    phantom_width: float = 0.02
    gamma_side: str = "right"
    noise_level: float = 0.0
    noise_seed: int = 0
    output_dir: str = "out"


def _parse_lines(text: str, source: str) -> dict[str, str]:
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}", f"expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if key in mapping:
            raise ConfigError(key, "duplicate key")
        mapping[key] = value
    return mapping


def _take_int(mapping, key, default=None):
    if key not in mapping:
        if default is None:
            raise ConfigError(key, "missing required key")
        return default
    raw = mapping.pop(key)
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(key, f"expected an integer, got {raw!r}") from None


def _take_float(mapping, key, default=None):
    if key not in mapping:
        if default is None:
            raise ConfigError(key, "missing required key")
        return default
    raw = mapping.pop(key)
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(key, f"expected a number, got {raw!r}") from None


def _take_floats(mapping, key, count=None, default=None):
    if key not in mapping:
        if default is None:
            raise ConfigError(key, "missing required key")
        return default
    raw = mapping.pop(key)
    try:
        values = tuple(float(tok) for tok in raw.split(","))
    except ValueError:
        raise ConfigError(key, f"expected comma-separated numbers, got {raw!r}") from None
    if count is not None and len(values) != count:
        raise ConfigError(key, f"expected {count} values, got {len(values)}")
    return values


def _take_str(mapping, key, default=None):
    if key not in mapping:
        if default is None:
            raise ConfigError(key, "missing required key")
        return default
    return mapping.pop(key)


def _take_electrodes(mapping) -> tuple[ElectrodeSpec, ...]:
    specs = []
    k = 0
    while f"electrodes[{k}].side" in mapping or f"electrodes[{k}].interval" in mapping \
            or f"electrodes[{k}].z" in mapping:
        side = _take_str(mapping, f"electrodes[{k}].side")
        lo, hi = _take_floats(mapping, f"electrodes[{k}].interval", count=2)
        z = _take_float(mapping, f"electrodes[{k}].z")
        specs.append(ElectrodeSpec(side=side, lo=lo, hi=hi, z=z))
        k += 1
    if len(specs) < 2:
        raise ConfigError("electrodes[0].side",
                          "at least two electrodes are required")
    return tuple(specs)


def load_config(path) -> PipelineConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read config: {exc}") from None
    return config_from_mapping(_parse_lines(text, str(path)))


def config_from_mapping(mapping: dict[str, str]) -> PipelineConfig:
    mapping = dict(mapping)

    side_nodes = _take_int(mapping, "mesh.side_nodes")
    electrodes = _take_electrodes(mapping)

    currents = _take_floats(mapping, "currents")
    if len(currents) != len(electrodes):
        raise ConfigError("currents",
                          f"{len(currents)} currents for {len(electrodes)} electrodes")

    epsilon = _take_float(mapping, "recon.epsilon", default=0.1)
    delta = _take_float(mapping, "recon.delta", default=1e-7)
    max_iter = _take_int(mapping, "recon.max_iter", default=1000)
    solver_tol = _take_float(mapping, "recon.solver_tol", default=1e-10)

    center = _take_floats(mapping, "phantom.center", count=2, default=(0.5, 0.5))
    amplitude = _take_float(mapping, "phantom.amplitude", default=0.0)
    if amplitude < 0.0:
        raise ConfigError("phantom.amplitude", f"must be nonnegative, got {amplitude}")
    width = _take_float(mapping, "phantom.width", default=0.02)
    if not width > 0.0:
        raise ConfigError("phantom.width", f"must be positive, got {width}")

    gamma_side = _take_str(mapping, "gamma.side", default="right")

    noise_level = _take_float(mapping, "noise.level", default=0.0)
    if noise_level < 0.0:
        raise ConfigError("noise.level", f"must be nonnegative, got {noise_level}")
    noise_seed = _take_int(mapping, "noise.seed", default=0)

    output_dir = _take_str(mapping, "output.dir", default="out")
    if not output_dir:
        raise ConfigError("output.dir", "must not be empty")

    if mapping:
        key = sorted(mapping)[0]
        raise ConfigError(key, "unknown key")

    return PipelineConfig(
        side_nodes=side_nodes,
        electrodes=electrodes,
        currents=currents,
        epsilon=epsilon,
        delta=delta,
        max_iter=max_iter,
        solver_tol=solver_tol,
        phantom_center=(center[0], center[1]),
        phantom_amplitude=amplitude,
        phantom_width=width,
        gamma_side=gamma_side,
        noise_level=noise_level,
        noise_seed=noise_seed,
        output_dir=output_dir,
    )

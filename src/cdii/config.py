"""Flat key=value configuration for the pipeline.

The format is one ``key=value`` per line with dotted section prefixes,
e.g. ``mesh.side_nodes=90``; blank lines and lines starting with ``#`` are
ignored.  Electrodes are indexed: ``electrodes[0].side``,
``electrodes[0].interval`` (two comma-separated coordinates), and
``electrodes[0].z``.  ``PipelineConfig`` is the schema: each field names
its key, and its annotation and default are the value's type and default.
``mesh.side_nodes`` and ``currents`` are required.  Errors name the
offending key.  Value ranges, the electrode count and one current per
electrode are checked by the domain (the CLI names the key, ``electrodes``
for the count); only ``output.dir`` is checked here, as no constructor
owns it.
"""

import inspect
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

from .phantom import simulate_data
from .weighted_gradient import ReconstructionConfig


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


def _key(key: str, default=MISSING):
    return field(default=default, metadata={"key": key})


@dataclass(frozen=True)
class PipelineConfig:
    side_nodes: int = _key("mesh.side_nodes")
    electrodes: tuple[ElectrodeSpec, ...]  # keys electrodes[k].side, .interval and .z
    currents: tuple[float, ...] = _key("currents")
    epsilon: float = _key("recon.epsilon", 0.1)
    delta: float = _key("recon.delta", 1e-7)
    max_iter: int = _key("recon.max_iter", ReconstructionConfig.max_iter)
    phantom_center: tuple[float, float] = _key("phantom.center", (0.5, 0.5))
    phantom_amplitude: float = _key("phantom.amplitude", 0.0)
    phantom_width: float = _key("phantom.width", 0.02)
    gamma_side: str = _key("gamma.side",
                           inspect.signature(simulate_data).parameters["gamma_side"].default)
    noise_level: float = _key("noise.level", 0.0)
    noise_seed: int = _key("noise.seed", 0)
    output_dir: str = _key("output.dir", "out")


def _parse_lines(text: str, source: str) -> dict[str, str]:
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        if not (eq and key):
            raise ConfigError(f"{source}:{lineno}", f"expected key=value, got {line!r}")
        if key in mapping:
            raise ConfigError(key, "duplicate key")
        mapping[key] = value
    return mapping


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in raw.split(","))


def _pair(raw: str) -> tuple[float, ...]:
    return _floats(raw)  # _take checks the count


# The parser of each field annotation, and what its error says was expected.
# Keyed by the annotation objects, so this module does not postpone annotations.
_PARSERS = {int: int, float: float, str: str,
            tuple[float, ...]: _floats, tuple[float, float]: _pair}
_EXPECTED = {int: "an integer", float: "a number",
             _floats: "comma-separated numbers", _pair: "comma-separated numbers"}


def _take(mapping, key, parse, default=MISSING):
    """Pop ``key`` and parse its value; ``default`` if absent, unless required."""
    if key not in mapping:
        if default is MISSING:
            raise ConfigError(key, "missing required key")
        return default
    raw = mapping.pop(key)
    try:
        value = parse(raw)
    except ValueError:
        raise ConfigError(key, f"expected {_EXPECTED[parse]}, got {raw!r}") from None
    if parse is _pair and len(value) != 2:
        raise ConfigError(key, f"expected 2 values, got {len(value)}")
    return value


def _take_electrodes(mapping) -> tuple[ElectrodeSpec, ...]:
    specs = []
    k = 0
    while any(f"electrodes[{k}].{part}" in mapping for part in ("side", "interval", "z")):
        specs.append(ElectrodeSpec(_take(mapping, f"electrodes[{k}].side", str),
                                   *_take(mapping, f"electrodes[{k}].interval", _pair),
                                   _take(mapping, f"electrodes[{k}].z", float)))
        k += 1
    return tuple(specs)


def file_error(exc: OSError) -> ConfigError:
    """The error of a file that cannot be read or written, keyed by its
    path once: ``not found``, ``is a directory`` or the system's reason,
    without the errno."""
    reason = {FileNotFoundError: "not found",
              IsADirectoryError: "is a directory"}.get(type(exc), exc.strerror)
    return ConfigError(str(exc.filename), reason)


def load_config(path) -> PipelineConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise file_error(exc) from None
    except UnicodeDecodeError as exc:
        raise ConfigError(str(path), f"cannot read config: {exc}") from None
    return config_from_mapping(_parse_lines(text, str(path)))


def config_from_mapping(mapping: dict[str, str]) -> PipelineConfig:
    """Parse every ``PipelineConfig`` field, in field order, from its key."""
    mapping = dict(mapping)
    cfg = PipelineConfig(**{
        f.name: (_take(mapping, f.metadata["key"], _PARSERS[f.type], f.default)
                 if f.metadata else _take_electrodes(mapping))
        for f in fields(PipelineConfig)})

    if not cfg.output_dir:
        raise ConfigError("output.dir", "must not be empty")
    if "\0" in cfg.output_dir:
        raise ConfigError("output.dir", "must not contain a NUL byte")

    if mapping:
        raise ConfigError(min(mapping), "unknown key")
    return cfg

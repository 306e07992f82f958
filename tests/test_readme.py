"""The README's library example runs against the package as it is, its
config example names every key, its flags are the CLI's, the names it cites
exist, and the package exports what it lists; every checked-in benchmark
record states its run."""

import importlib
import json
import pkgutil
import re
from dataclasses import fields
from pathlib import Path

import cdii
from cdii.cli import _COMMANDS, _parser
from cdii.config import PipelineConfig, _parse_lines, config_from_mapping
from helpers import rel_l2

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_readme_library_example_converges():
    section = README.read_text().split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(code, f"{README} (Library example)", "exec"), namespace)
    assert namespace["result"].converged
    assert rel_l2(namespace["sigma"].values, namespace["sigma_true"].values) < 0.05


def test_readme_config_example_names_every_key():
    section = README.read_text().split("## CLI", 1)[1]
    text = re.search(r"```ini\n(.*?)```", section, re.DOTALL).group(1)
    mapping = _parse_lines(text, f"{README} (CLI)")
    config_from_mapping(mapping)  # no unknown key, every value parses
    keys = {f.metadata["key"] for f in fields(PipelineConfig) if f.metadata}
    keys |= {f"electrodes[0].{part}" for part in ("side", "interval", "z")}
    assert keys <= set(mapping), sorted(keys - set(mapping))


def test_readme_flags_are_the_config_commands_options():
    # A flag added to or dropped from the parser or the README in one place
    # only fails here.
    sentence = re.search(r"^Flags: (.*?)\n\n", README.read_text(), re.DOTALL | re.MULTILINE)[1]
    named = set(re.findall(r"`(--[\w-]+)", sentence))
    commands = _parser()._subparsers._group_actions[0].choices
    for command in _COMMANDS:
        options = {option for action in commands[command]._actions
                   for option in action.option_strings if option not in ("-h", "--help")}
        assert options == named, command


def test_package_all_is_sorted_unique_and_resolves():
    names = cdii.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(cdii, name)]
    assert not missing, missing


def _unresolved(text: str) -> list[str]:
    """The inline code spans of ``text`` that name no object of the package:
    ``module.NAME`` with ``module`` ``cdii`` or one of its submodules, config
    keys and file names aside, and ALL-CAPS constants of any submodule."""
    modules = {info.name: importlib.import_module(f"cdii.{info.name}")
               for info in pkgutil.iter_modules(cdii.__path__)}
    modules["cdii"] = cdii
    keys = {f.metadata["key"] for f in fields(PipelineConfig) if f.metadata}
    missing = []
    for span in re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", text, flags=re.DOTALL)):
        dotted = re.fullmatch(r"(\w+)\.(\w+)", span)
        if re.fullmatch(r"[A-Z][A-Z0-9_]+", span):
            found = any(hasattr(module, span) for module in modules.values())
        elif dotted and dotted[1] in modules and span not in keys \
                and dotted[2] not in ("csv", "py", "cfg", "json", "md"):
            found = hasattr(modules[dotted[1]], dotted[2])
        else:
            continue
        if not found:
            missing.append(span)
    return missing


def test_readme_names_resolve_in_the_package():
    assert not _unresolved(README.read_text())
    assert _unresolved("`calibration.MERGE_TOL`, `GRAD_FLOOR`, `cdii.nowhere`, "
                       "`mesh.side_nodes`, `cli.py`") == \
        ["calibration.MERGE_TOL", "GRAD_FLOOR", "cdii.nowhere"]


def test_bench_files_state_what_was_run_against_what():
    # A performance claim ships with a checked-in run: each BENCH_*.json at
    # the root says what it measured, against which parent commit, where,
    # and its end-to-end results.
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        record = json.loads(path.read_text())
        assert isinstance(record["what"], str) and record["what"], path.name
        assert re.fullmatch(r"[0-9a-f]{40}", record["parent_commit"]), path.name
        assert isinstance(record["env"], dict) and record["env"], path.name
        assert isinstance(record["end_to_end"], dict) and record["end_to_end"], path.name

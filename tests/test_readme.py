"""The README's library example runs against the package as it is."""

import re
from pathlib import Path

from helpers import rel_l2

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_converges():
    section = README.read_text().split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(code, f"{README} (Library example)", "exec"), namespace)
    assert namespace["result"].converged
    assert rel_l2(namespace["sigma"].values, namespace["sigma_true"].values) < 0.05

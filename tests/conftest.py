import sys
from pathlib import Path

import pytest

HERE = Path(__file__).parent
sys.path.insert(0, str(HERE))


def pytest_collection_modifyitems(items):
    """Make a warning an error in the tests of this directory.  The mark goes
    first, so a test's own ``filterwarnings`` mark still overrides it."""
    for item in items:
        if HERE in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error"), append=False)

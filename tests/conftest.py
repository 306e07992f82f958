import sys
from pathlib import Path

import pytest

HERE = Path(__file__).parent
sys.path.insert(0, str(HERE))


# Reporting a failed hypothesis test imports libcst, whose import warns that
# mypy_extensions.TypedDict is deprecated; as an error that warning turns the
# failure into an INTERNALERROR that ends the run.
_LIBCST_IMPORT = "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"


def pytest_collection_modifyitems(items):
    """Make every other warning an error in the tests of this directory.  The
    mark goes first, so a test's own ``filterwarnings`` mark still overrides it."""
    for item in items:
        if HERE in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error", _LIBCST_IMPORT),
                            append=False)

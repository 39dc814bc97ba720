"""Every test starts with an empty low-degree homology memo, so check
counts and memo sizes never depend on the order tests run in.  Tests of
the memo warm it themselves."""

import pytest

from slicetower import tower


@pytest.fixture(autouse=True)
def empty_low_homology_memo():
    tower._LOW_HOMOLOGY.clear()

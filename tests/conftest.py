import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture(scope="session")
def verify_rows():
    """The (suite, CheckResult) rows of one run_suite("all"), shared by the
    tests that read verify's checks."""
    from kspecial.verify import run_suite
    return run_suite("all")

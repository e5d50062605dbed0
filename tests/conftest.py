"""Shared test configuration.

Adds the ``--update-golden`` flag used by tests/test_golden_results.py and
tests/test_golden_fault_injection.py:

    PYTHONPATH=src python -m pytest tests/test_golden_results.py \
        tests/test_golden_fault_injection.py --update-golden

regenerates every file under tests/golden/ from the current simulator and
skips the comparisons.  Review the resulting diff before committing — a
golden change is a behavior change.
"""

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="regenerate tests/golden/*.json instead of comparing against them",
    )


@pytest.fixture
def update_golden(request):
    return request.config.getoption("--update-golden")

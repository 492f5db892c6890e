"""End-to-end acceptance checks.

One test per row of the acceptance table in `vkg.criteria`, which pins
each criterion's tolerances and wall-time gate; `vkg verify acceptance`
runs the same rows and prints the same PASS/FAIL lines.  Reference runs
are shared through the session cache `runs` of conftest.py; the suite
takes about 20 s.
"""

import pytest

from vkg import criteria
from vkg.cli import main

ROWS = criteria.rows("acceptance")


@pytest.mark.parametrize(
    "label,row", ROWS,
    ids=[f"{label[-2:]}_{row.__name__}" for label, row in ROWS])
def test_criterion(label, row, runs):
    for name, ok, detail in row(runs, main):
        print(criteria.line(label, name, ok, detail))
        assert ok, detail

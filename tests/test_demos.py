"""The demos run to completion against the current public API.

`05_scaling.py` is left out: it times deciders on 10^5-state machines, and
`test_cli.py` and acceptance criterion 8 already run the functions it calls.
"""

import contextlib
import io
import pathlib
import runpy

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", [
    "01_downgrader_walkthrough.py",
    "02_security_zoo.py",
    "03_counterexample_anatomy.py",
    "04_undecidability_frontier.py",
])
def test_demo_runs(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert out.getvalue()

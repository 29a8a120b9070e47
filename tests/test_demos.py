"""Every demo runs to a clean exit.

The demos are entry points of test_source_reachability: a function they
call counts as used, so they have to keep working.  Each runs in-process as
``__main__`` with its output captured."""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_cleanly(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            runpy.run_path(str(path), run_name="__main__")
        except SystemExit as stop:
            assert stop.code in (None, 0), out.getvalue()
    assert out.getvalue()

"""The committed mutant catalogue (`tests/mutants.py`) still fits the source:
every anchor occurs exactly once, so each mutant still mutates something,
and every target still names a test that pytest collects.  An unmutated
copy made the runner's way passes the tests that read `demos` and `tools`."""

import importlib
from pathlib import Path

import pytest

from mutants import MUTANTS, ROOT, copy_parts, pytest_in


def test_names_are_distinct():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_anchor_occurs_once(mutant):
    assert mutant.anchor != mutant.replacement
    assert (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.anchor) == 1
    for target in mutant.targets:
        file, *names = target.split("::")
        assert (ROOT / file).is_file(), target
        obj = importlib.import_module(Path(file).stem)
        for name in names:
            obj = getattr(obj, name, None)
            assert obj is not None, target


def test_unmutated_copy_passes_the_tests_that_read_beyond_src(tmp_path):
    # A copy without `demos` or `tools` fails these files on every mutant,
    # which would count a mutant that targets them as killed.
    copy_parts(tmp_path)
    assert pytest_in(tmp_path, ["tests/test_demos.py", "tests/test_verdict_digest.py"]) == 0

"""`tools/ab_timing.py` prints every row for a tree timed against itself,
and refuses, before any timing, two trees that give a check different
verdicts or parse a file to different systems, and a directory that holds
no `nicheck` package.

The harness drops `nicheck` from `sys.modules` as it loads each tree, so it
runs in a subprocess of its own, with one call and one run per row: these
tests check the rows, not the times."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ("import sys; sys.path.insert(0, sys.argv[1]); import ab_timing;"
       " ab_timing.CALLS = ab_timing.RUNS = 1; sys.exit(ab_timing.main(sys.argv[2:]))")


def harness(old: Path, new: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", RUN, str(ROOT / "tools"), str(old), str(new)],
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"), capture_output=True,
        text=True, timeout=120)


def patched_copy(tmp_path: Path, patch: str) -> Path:
    """A copy of `src` whose package `__init__` ends with `patch`."""
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "nicheck", src / "nicheck",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with (src / "nicheck" / "__init__.py").open("a", encoding="utf-8") as init:
        init.write(patch)
    return src


def test_a_tree_against_itself_prints_every_row():
    done = harness(ROOT / "src", ROOT / "src")
    assert done.returncode == 0, done.stderr
    rows = [line.split()[:4] for line in done.stdout.splitlines()
            if line.startswith(("parse ", "scan "))]
    assert len(rows) == 18
    parse = {(name, gc) for kind, name, _, gc in rows if kind == "parse"}
    assert len(parse) == 14 and ("observed", "paused") in parse
    assert {gc for _, gc in parse} == {"on", "paused"}
    assert [name for kind, name, _, _ in rows if kind == "scan"] == ["ip", "ta", "to", "ito"]


def test_trees_with_different_verdicts_are_refused(tmp_path):
    clear = patched_copy(tmp_path, "\n\ndef bounded_check(system, notion, depth, **options):\n"
                                   "    return BoundedVerdict(False, depth)\n")
    done = harness(ROOT / "src", clear)
    assert done.returncode == 1
    assert "the two trees give different verdicts" in done.stderr


def test_trees_that_parse_to_different_systems_are_refused(tmp_path):
    extra = patched_copy(tmp_path, "\n\n_parse_system = parse_system\n\n\n"
                                   "def parse_system(text):\n"
                                   "    return _parse_system(text + 'state extra\\n')\n")
    done = harness(extra, ROOT / "src")
    assert done.returncode == 1
    assert "the two trees parse it to different systems" in done.stderr


def test_a_directory_without_nicheck_is_refused(tmp_path):
    done = harness(ROOT / "src", tmp_path)
    assert done.returncode == 1
    assert f"{tmp_path} holds no nicheck package" in done.stderr

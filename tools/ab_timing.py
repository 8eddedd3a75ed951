"""Time the parse and the bounded scan of two source trees against each
other in one process, on the inputs of the `check_files` and `bounded_pcp`
benchmark workloads.

    python3 tools/ab_timing.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold a `nicheck` package, such as
the `src` of two checkouts.  Every input is built once, by the setup in
`perfbench/workloads.py`, and serialized by the `nicheck` beside this
script, so each tree parses and scans systems of its own.  There are two
kinds of row:

- a parse row times `parse_system` on one file: the files that
  `CheckFiles.setup` builds from setup seed 5, and one random machine,
  `observed`, whose every state has an `obs` line, which the benchmark
  files do not have.  Each file has a row with the cyclic garbage collector
  on and one with it paused around each call, as `cli.main` runs a parse;
- a scan row times `bounded_check` under one notion: a call runs every
  check that `BoundedPcp.setup` makes from setup seed 1000 (pass 0 of a
  `--seed 1` benchmark run) under that notion, at the workload's depth.

Before any timing, the script refuses two trees that parse a file to
different systems or give a check different verdicts.  Each row is called
`CALLS` times by each tree, the two trees taking turns and swapping who goes
first on every call, and the whole table is measured `RUNS` times over,
since one run on a busy host can read a row far off.  It prints, per row,
its size `n` (a parse row's lines, a scan row's checks), each tree's median
time per call (the median over the runs), the ratio NEW/OLD of every run,
and the median of those ratios, which is the reading to use.

Resolution: two runs of one tree against itself (2 vCPUs, CPython 3.11.7,
100 and 120 s each) read medians of 0.993-1.010 on the parse rows and
0.998-1.011 on the scan rows, with single runs from 0.983 to 1.034.  A
change under about 2 % is inside that spread.  The script shows where time
went; a claim that a command got faster must still come from alternating
pairs of `perfbench/run.py` runs.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import platform
import statistics
import sys
import tempfile
import time
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no cache files in either tree
#: Calls per tree, row and run.
CALLS = 61
#: Times the whole table is measured.
RUNS = 3


def _forget_nicheck() -> None:
    for name in [n for n in sys.modules if n == "nicheck" or n.startswith("nicheck.")]:
        del sys.modules[name]


def _package(src: Path):
    """The `nicheck` package of the tree at `src`.  Its functions keep
    their own module globals after the modules are dropped from
    `sys.modules`, so two trees' functions live side by side."""
    if not (src / "nicheck" / "__init__.py").is_file():
        raise SystemExit(f"{src} holds no nicheck package")
    _forget_nicheck()
    sys.path.insert(0, str(src))
    try:
        return importlib.import_module("nicheck")
    finally:
        sys.path.remove(str(src))
        _forget_nicheck()


def _inputs() -> tuple[list, list]:
    """(label, text) of every parse row's file, and (notion, label, depth,
    text) of every check the scan rows make."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    try:
        import workloads
        from spans import NullTracer

        from nicheck import serialize_system
        from nicheck.generate import GenParams, gen_random_system

        with tempfile.TemporaryDirectory() as tmp:
            workloads.WORKDIR = Path(tmp)
            files = workloads.CheckFiles().setup(5, workloads.FULL, NullTracer())["files"]
        texts = [(f["label"], serialize_system(f["system"])) for f in files]
        texts.append(("observed", serialize_system(
            gen_random_system(GenParams(3000, 6, 3, 2, 0.3, 1)))))
        items = workloads.BoundedPcp().setup(1000, workloads.FULL, NullTracer())["items"]
        return texts, [(notion, label, depth, serialize_system(system))
                       for label, system, notions, depth, _ in items for notion in notions]
    finally:
        del sys.path[:2]
        for name in ("workloads", "spans", "calibration"):
            sys.modules.pop(name, None)
        _forget_nicheck()


def _tables(system) -> tuple:
    """What `System.__eq__` compares, in types both trees share."""
    _, *rest = system._canonical()
    return (system.policy.domains, system.policy._may, *rest)


def _verdict(found) -> tuple:
    """What a `BoundedVerdict` says, in types both trees share."""
    return found.insecure, found.depth, found.domain, found.alpha, found.beta


def _scan(check, jobs) -> list:
    return [check(*job) for job in jobs]


def _rows(trees, texts, checks) -> list[tuple]:
    """(name, n, paused, calls) of every row, `calls` being the old and the
    new tree's call; each row kind's identity guard runs first."""
    old, new = trees
    for label, text in texts:
        if _tables(old.parse_system(text)) != _tables(new.parse_system(text)):
            raise SystemExit(f"{label}: the two trees parse it to different systems")
    rows = [(f"parse {label}", text.count("\n"), paused,
             [partial(tree.parse_system, text) for tree in trees])
            for paused in (False, True) for label, text in texts]
    for notion in dict.fromkeys(notion for notion, *_ in checks):
        mine = [(label, depth, text) for n, label, depth, text in checks if n == notion]
        jobs = [[(tree.parse_system(text), notion, depth) for _, depth, text in mine]
                for tree in trees]
        for (label, _, _), old_job, new_job in zip(mine, *jobs):
            if _verdict(old.bounded_check(*old_job)) != _verdict(new.bounded_check(*new_job)):
                raise SystemExit(f"{label} {notion}: the two trees give different verdicts")
        rows.append((f"scan {notion}", len(mine), False,
                     [partial(_scan, tree.bounded_check, job) for tree, job in zip(trees, jobs)]))
    return rows


def _time(call, paused: bool) -> float:
    if paused:
        gc.disable()
    try:
        start = time.perf_counter()
        result = call()
        elapsed = time.perf_counter() - start
        del result  # freed outside the timed span
    finally:
        gc.enable()
    return elapsed


def compare(old, new, paused: bool) -> tuple[float, float]:
    """Median seconds per call of `old` and of `new`."""
    times: tuple[list[float], list[float]] = ([], [])
    gc.collect()
    for k in range(CALLS):
        order = ((0, old), (1, new)) if k % 2 == 0 else ((1, new), (0, old))
        for side, call in order:
            times[side].append(_time(call, paused))
    return statistics.median(times[0]), statistics.median(times[1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    args = parser.parse_args(argv)
    trees = _package(args.old_src), _package(args.new_src)
    rows = _rows(trees, *_inputs())
    runs: list[list[tuple[float, float]]] = [[] for _ in rows]
    for _ in range(RUNS):
        for times, (_, _, paused, calls) in zip(runs, rows):
            times.append(compare(*calls, paused))
    print(f"# CPython {platform.python_version()}, {RUNS} runs of {CALLS} interleaved"
          f" calls per tree, medians in ms per call")
    print(f"{'row':20} {'n':>6} {'gc':6} {'old':>8} {'new':>8} "
          + " ".join(f"{f'run{k + 1}':>6}" for k in range(RUNS)) + f" {'median':>7}")
    for times, (name, n, paused, _) in zip(runs, rows):
        ratios = [t_new / t_old for t_old, t_new in times]
        t_old = statistics.median(t for t, _ in times)
        t_new = statistics.median(t for _, t in times)
        print(f"{name:20} {n:6} {'paused' if paused else 'on':6} {t_old * 1e3:8.2f}"
              f" {t_new * 1e3:8.2f} " + " ".join(f"{r:6.3f}" for r in ratios)
              + f" {statistics.median(ratios):7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

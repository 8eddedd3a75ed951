"""Time the `bounded_check` of two source trees against each other in one
process, on the systems of the `bounded_pcp` benchmark workload.

    python3 tools/scan_timing.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold a `nicheck` package, such as
the `src` of two checkouts.  The systems are those that `BoundedPcp.setup`
in `perfbench/workloads.py` builds from setup seed `SEED`, serialized by the
`nicheck` beside this script and parsed by each tree, so each tree scans
systems of its own.  A call runs every check the workload makes under one
notion, at the workload's depth; each notion is called `CALLS` times by
each tree, the two trees taking turns and swapping who goes first on every
call.  That whole table is measured `RUNS` times over, since one run on a
busy host can read a notion far off.  The script refuses to time trees
whose verdicts differ.  It prints, per notion, each tree's median time per
check (the median over the runs), the ratio NEW/OLD of every run, and the
median of those ratios, which is the reading to use.

It cannot resolve a change under about 10 % per notion: rows whose code was
the same in both trees have read from 0.95 to 1.16 in a run.  A claim that a
scan got faster by less than that must come from alternating pairs of
`perfbench/run.py --workload bounded_pcp` runs instead.
"""

from __future__ import annotations

import argparse
import platform
import statistics
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave no cache files in either tree
from parse_timing import ROOT, _forget_nicheck, _package  # noqa: E402

#: The setup seed of the systems: pass 0 of a `--seed 1` benchmark run.
SEED = 1000
#: Calls per tree and notion.
CALLS = 11
#: Times the whole table is measured.
RUNS = 3


def _checks(seed: int) -> list[tuple[str, str, int, str]]:
    """(notion, label, depth, serialized system) of every check that
    `bounded_pcp` makes with setup seed `seed`."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    try:
        import workloads
        from spans import NullTracer

        from nicheck import serialize_system

        inputs = workloads.BoundedPcp().setup(seed, workloads.FULL, NullTracer())
        return [(notion, label, depth, serialize_system(system))
                for label, system, notions, depth, _ in inputs["items"]
                for notion in notions]
    finally:
        del sys.path[:2]
        for name in ("workloads", "spans", "calibration"):
            sys.modules.pop(name, None)
        _forget_nicheck()


def _verdict(found) -> tuple:
    """What a `BoundedVerdict` says, in types both trees share."""
    return found.insecure, found.depth, found.domain, found.alpha, found.beta


def _time(check, jobs) -> float:
    """Seconds per check of `check` over `jobs`."""
    start = time.perf_counter()
    for system, notion, depth in jobs:
        check(system, notion, depth)
    return (time.perf_counter() - start) / len(jobs)


def compare(old, new, jobs: tuple) -> tuple[float, float]:
    """Median seconds per check of `old` and of `new` on their `jobs`."""
    times: tuple[list[float], list[float]] = ([], [])
    for k in range(CALLS):
        order = ((0, old), (1, new)) if k % 2 == 0 else ((1, new), (0, old))
        for side, check in order:
            times[side].append(_time(check, jobs[side]))
    return statistics.median(times[0]), statistics.median(times[1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    args = parser.parse_args(argv)
    checks = _checks(SEED)
    trees = _package(args.old_src), _package(args.new_src)
    notions = list(dict.fromkeys(notion for notion, *_ in checks))
    rows = []
    for notion in notions:
        mine = [(label, depth, text) for n, label, depth, text in checks if n == notion]
        jobs = tuple([(tree.parse_system(text), notion, depth) for _, depth, text in mine]
                     for tree in trees)
        for (label, _, _), old_job, new_job in zip(mine, *jobs):
            if _verdict(trees[0].bounded_check(*old_job)) != \
                    _verdict(trees[1].bounded_check(*new_job)):
                raise SystemExit(f"{label} {notion}: the two trees give different verdicts")
        rows.append((notion, jobs))
    runs: list[list[tuple[float, float]]] = [[] for _ in rows]
    for _ in range(RUNS):
        for times, (_, jobs) in zip(runs, rows):
            times.append(compare(trees[0].bounded_check, trees[1].bounded_check, jobs))
    print(f"# CPython {platform.python_version()}, setup seed {SEED}, {RUNS} runs of"
          f" {CALLS} interleaved calls per tree, medians in ms per check")
    print(f"{'notion':6} {'checks':>6} {'old':>7} {'new':>7} "
          + " ".join(f"{f'run{k + 1}':>6}" for k in range(RUNS)) + f" {'median':>7}")
    for times, (notion, jobs) in zip(runs, rows):
        ratios = [t_new / t_old for t_old, t_new in times]
        t_old = statistics.median(t for t, _ in times)
        t_new = statistics.median(t for _, t in times)
        print(f"{notion:6} {len(jobs[0]):6} {t_old * 1e3:7.2f} {t_new * 1e3:7.2f} "
              + " ".join(f"{r:6.3f}" for r in ratios) + f" {statistics.median(ratios):7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

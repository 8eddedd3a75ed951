"""Time the `parse_system` of two source trees against each other in one
process, on the files of the `check_files` benchmark workload.

    python3 tools/parse_timing.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold a `nicheck` package, such as
the `src` of two checkouts.  The files are those that `CheckFiles.setup` in
`perfbench/workloads.py` builds from setup seed 5, written into a
temporary directory by the `nicheck` beside this script, and one random
machine whose every state has an `obs` line, which the benchmark files do
not have.  Each file is parsed `CALLS` times by each tree, the two trees
taking turns and swapping who goes first on every call, once with the
cyclic garbage collector on and once with it paused around each call, as
`cli.main` runs a parse.  That whole table is measured `RUNS` times over,
since one run on a busy host can read a file far off.  It prints, per file
and collector setting, the file's share of states with an `obs` line, each
tree's median time per call (the median over the runs), the ratio NEW/OLD
of every run, and the median of those ratios, which is the reading to use.
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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no cache files in either tree
#: The setup seed of the files: its large file has 21 008 lines.
SEED = 5
#: Calls per tree, file and collector setting.
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
    _forget_nicheck()
    sys.path.insert(0, str(src))
    try:
        module = importlib.import_module("nicheck")
    finally:
        sys.path.remove(str(src))
        _forget_nicheck()
    if not Path(module.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"{src} holds no nicheck package")
    return module


def _files(seed: int) -> list[tuple[str, str]]:
    """(label, text) of each `check_files` file of setup seed `seed`."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    try:
        import workloads
        from spans import NullTracer

        with tempfile.TemporaryDirectory() as tmp:
            workloads.WORKDIR = Path(tmp)
            inputs = workloads.CheckFiles().setup(seed, workloads.FULL, NullTracer())
            return [(f["label"], Path(f["path"]).read_text(encoding="utf-8"))
                    for f in inputs["files"]]
    finally:
        del sys.path[:2]
        for name in ("workloads", "spans", "calibration"):
            sys.modules.pop(name, None)
        _forget_nicheck()


def _observed_file() -> tuple[str, str]:
    """(label, text) of a 3 000-state random machine with an `obs` line
    for every state and domain."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from nicheck.fileformat import serialize_system
        from nicheck.generate import GenParams, gen_random_system

        return "observed", serialize_system(
            gen_random_system(GenParams(3000, 6, 3, 2, 0.3, 1)))
    finally:
        sys.path.remove(str(ROOT / "src"))
        _forget_nicheck()


def _obs_share(text: str) -> float:
    """The share of the file's states named on an `obs` line."""
    states, observed = 0, set()
    for line in text.splitlines():
        fields = line.split()
        if fields and fields[0] == "state":
            states += 1
        elif fields and fields[0] == "obs":
            observed.add(fields[1])
    return len(observed) / states


def _tables(system) -> tuple:
    """What `System.__eq__` compares, in types both trees share."""
    _, *rest = system._canonical()
    return (system.policy.domains, system.policy._may, *rest)


def _time(parse, text: str, paused: bool) -> float:
    if paused:
        gc.disable()
    try:
        start = time.perf_counter()
        system = parse(text)
        elapsed = time.perf_counter() - start
        del system
    finally:
        gc.enable()
    return elapsed


def compare(old, new, text: str, paused: bool) -> tuple[float, float]:
    """Median seconds per call of `old` and of `new` on `text`."""
    times: tuple[list[float], list[float]] = ([], [])
    gc.collect()
    for k in range(CALLS):
        order = ((0, old), (1, new)) if k % 2 == 0 else ((1, new), (0, old))
        for side, parse in order:
            times[side].append(_time(parse, text, paused))
    return statistics.median(times[0]), statistics.median(times[1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    args = parser.parse_args(argv)
    files = [*_files(SEED), _observed_file()]
    old, new = _package(args.old_src).parse_system, _package(args.new_src).parse_system
    for label, text in files:
        if _tables(old(text)) != _tables(new(text)):
            raise SystemExit(f"{label}: the two trees parse it to different systems")
    rows = [(paused, label, text) for paused in (False, True) for label, text in files]
    runs: list[list[tuple[float, float]]] = [[] for _ in rows]
    for _ in range(RUNS):
        for times, (paused, _, text) in zip(runs, rows):
            times.append(compare(old, new, text, paused))
    print(f"# CPython {platform.python_version()}, {RUNS} runs of {CALLS} interleaved"
          f" calls per tree, medians in ms")
    print(f"{'file':15} {'lines':>6} {'obs':>6} {'gc':6} {'old':>7} {'new':>7} "
          + " ".join(f"{f'run{k + 1}':>6}" for k in range(RUNS)) + f" {'median':>7}")
    for times, (paused, label, text) in zip(runs, rows):
        ratios = [t_new / t_old for t_old, t_new in times]
        t_old = statistics.median(t for t, _ in times)
        t_new = statistics.median(t for _, t in times)
        print(f"{label:15} {text.count(chr(10)):6} {_obs_share(text):6.4f}"
              f" {'paused' if paused else 'on':6} {t_old * 1e3:7.2f} {t_new * 1e3:7.2f} "
              + " ".join(f"{r:6.3f}" for r in ratios) + f" {statistics.median(ratios):7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

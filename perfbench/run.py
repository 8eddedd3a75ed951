#!/usr/bin/env python3
"""Benchmark for nicheck: three seeded workloads, timed from outside through
the public functions of each module, with every verdict checked.

    python3 perfbench/run.py --workload decide_secure --seed 1 --seconds 20 --trace 0

Workloads (reasons next to their definitions in ``workloads.py``):
``decide_secure`` decides large secure machines in memory, ``check_files``
runs ``nicheck check`` on system files in-process, and ``bounded_pcp`` runs
deep bounded scans of the undecidable notions.  ``BENCHMARK.json`` lists the
two whose run-to-run spread stays within its bounds on a shared 2-vCPU host;
``decide_secure`` runs the same way but is left out of it.

A run repeats whole passes (set up inputs, time the verdicts, check them)
while another pass still fits in ``--seconds``, always finishing at least one.
Pass k builds its inputs from seed ``1000 * --seed + k``, so a run averages
over many inputs and the same ``--seed`` always gives the same inputs.  The
end-to-end times are scaled to a reference machine speed measured between
verdicts (see ``calibration.py``); the raw wall-clock figures are printed
next to them.  With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it runs
one untraced pass, then traced passes, and reports per-layer metrics derived
from in-memory spans, including the tracing overhead.  Human-readable lines
come first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every verdict was right.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

if not (SRC / "nicheck" / "__init__.py").is_file():
    sys.exit(f"perfbench: no nicheck sources at {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import calibration  # noqa: E402
import workloads  # noqa: E402  (needs the sources on sys.path)
from spans import NullTracer, Profile, Tracer  # noqa: E402


class Pass:
    """What a finished pass leaves behind.  Its inputs are dropped, so later
    passes do not pay for keeping earlier machines alive."""

    __slots__ = ("samples", "setup_s", "setup_ref_s", "run_s", "calib_s", "wall_s",
                 "reachable", "policy", "seeds")

    def __init__(self, inputs, samples, setup_s, setup_ref_s, run_s, wall_s):
        self.samples = samples
        self.setup_s = setup_s
        self.setup_ref_s = setup_ref_s
        self.run_s = run_s
        self.calib_s = sum(sum(s.loops) for s in samples)
        self.wall_s = wall_s
        self.reachable = inputs["reachable"]
        self.policy = inputs["policy"]
        self.seeds = inputs["seeds"]


#: Set-ups timed before the passes, on top of the one each pass does, so that
#: `setup_s` is a median of enough samples to be steady.
EXTRA_SETUPS = 6


def pass_seed(seed: int, k: int) -> int:
    """The seed of pass `k`'s inputs in a run with `--seed seed`."""
    return 1000 * seed + k


def timed_setup(workload, seed: int, sizes, tracer=None):
    """Set up inputs between two calibration loops; returns the inputs and
    the set-up time in wall and in reference seconds."""
    before = calibration.loop_seconds()
    start = time.perf_counter()
    inputs = workload.setup(seed, sizes, tracer or NullTracer())
    secs = time.perf_counter() - start
    return inputs, secs, calibration.scale(secs, [before, calibration.loop_seconds()])


def one_pass(workload, seed: int, sizes, tracer) -> Pass:
    with tracer.span("pass"):
        t0 = time.perf_counter()
        with tracer.span("setup"):
            inputs, setup_s, setup_ref_s = timed_setup(workload, seed, sizes, tracer)
        t1 = time.perf_counter()
        with tracer.span("run"):
            samples = workload.run(inputs, tracer)
        t2 = time.perf_counter()
        calibration.scale_samples(samples)
        with tracer.span("check"):
            workload.check(inputs, samples, tracer)
    return Pass(inputs, samples, setup_s, setup_ref_s, t2 - t1, time.perf_counter() - t0)


def _median(values, default=0.0):
    return statistics.median(values) if values else default


def end_to_end(passes, setups, raw=False) -> dict:
    """Rates are work over the summed verdict times of whole passes;
    `verdict_s.p50` is the median over all verdicts; `setup_s` is the median
    over every set-up of the run.  Times are in reference seconds, or in
    wall-clock seconds with `raw`."""
    samples = [s for p in passes for s in p.samples]
    secs = [s.seconds if raw else s.ref_seconds for s in samples]
    busy = sum(secs)
    n = len(samples)
    return {
        "setup_s": (_median(setups), "s", len(setups)),
        "verdicts_per_s": (n / busy, "1/s", n),
        "verdict_s.p50": (_median(secs), "s", n),
        "states_per_s": (sum(s.states for s in samples) / busy, "1/s", n),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
    }


def per_layer(spans, passes, untraced: Pass) -> dict:
    """Per-layer metrics of the traced passes; times are per pass."""
    prof = Profile(spans)
    npass = len(passes)
    samples = [s for p in passes for s in p.samples]
    out = {}

    def put(name, value, unit, n=npass):
        out[name] = (value, unit, n)

    def in_run(name):
        return prof.in_phase("run", name)

    put("fileformat.parse_s", prof.per_pass("run", "fileformat.parse"), "s")
    per_line = {"small": [], "large": []}
    for sp in in_run("fileformat.parse"):
        cmd = prof.spans[sp.parent].attrs
        per_line[cmd["size"]].append(1e6 * sp.seconds / cmd["lines"])
    for size, values in per_line.items():
        put(f"fileformat.us_per_line.{size}", _median(values), "us", len(values))
    small, large = (_median(per_line[k]) for k in ("small", "large"))
    put("fileformat.parse_growth", large / small if small else 0.0, "ratio",
        len(per_line["large"]))

    put("system.build_s", prof.per_pass("setup", "system.build"), "s")
    put("system.reach_s", prof.per_pass("setup", "system.reach"), "s")
    put("system.reachable", passes[-1].reachable, "count", 1)

    closures = workloads.closure_counts(passes[-1].policy)
    closure_time, closures_run = 0.0, 0
    for notion in workloads.DECIDERS:
        put(f"verify.decide_s.{notion}", prof.per_pass("run", f"verify.decide.{notion}"), "s")
        put(f"verify.closures.{notion}", closures[notion], "count", 1)
        for sp in in_run(f"verify.decide.{notion}"):
            if sp.attrs.get("secure"):
                closure_time += sp.seconds
                closures_run += closures[notion]
    put("verify.closure_s", closure_time / closures_run if closures_run else 0.0, "s",
        closures_run)
    lengths = [s.witness_len for s in samples if s.witness_len]
    put("verify.witness_len", statistics.fmean(lengths) if lengths else 0.0, "actions",
        len(lengths))

    put("cli.self_s", prof.per_pass("run", "cli.main", self_time=True), "s")

    bounded_s = 0.0
    for notion in workloads.BOUNDED_NOTIONS:
        secs = prof.per_pass("run", f"oracle.bounded.{notion}")
        bounded_s += secs
        put(f"oracle.bounded_s.{notion}", secs, "s")
    traces = sum(s.traces for s in passes[-1].samples)
    put("oracle.traces", traces, "count", 1)
    put("traces_per_s", traces / bounded_s if bounded_s else 0.0, "1/s")
    for notion in ("ip", "ta"):
        demo = [sp.seconds for sp in in_run(f"oracle.bounded.{notion}")
                if sp.attrs["item"] == "pcp_demo"]
        put(f"oracle.pcp_demo_s.{notion}", _median(demo), "s", len(demo))
    put("oracle.check_witness_pair_s",
        prof.per_pass("check", "oracle.check_witness_pair"), "s")
    put("semantics.tree_nodes", max(s.tree_nodes for s in samples), "count", len(samples))

    put("reduction.build_pcp_s", prof.per_pass("setup", "reduction.build_pcp"), "s")
    put("reduction.augment_final_s", prof.per_pass("setup", "reduction.augment_final"), "s")
    put("generate.gen_s", prof.per_pass("setup", "generate.fixture"), "s")

    # The first traced pass has the untraced pass's inputs; both are summed
    # in reference seconds so that drift in machine speed cancels.
    put("trace.overhead_s", sum(s.ref_seconds for s in passes[0].samples)
        - sum(s.ref_seconds for s in untraced.samples), "s", 1)
    # Calibration loops run inside the run phase but belong to no layer.
    module_self = prof.module_self("run")
    run_total = sum(p.run_s - p.calib_s for p in passes)
    for module in ("cli", "fileformat", "verify", "oracle"):
        put(f"{module}.run_share", 100 * module_self.get(module, 0.0) / run_total, "%")
    return out


def reference_points(name: str, layer: dict) -> list[str]:
    """The ROADMAP's reference measurements this workload reproduces."""
    value = {k: v[0] for k, v in layer.items()}
    if name == "check_files":
        return [f"parse cost per line, large/small files: "
                f"{value['fileformat.us_per_line.large']:.2f} / "
                f"{value['fileformat.us_per_line.small']:.2f} us = "
                f"{value['fileformat.parse_growth']:.2f}x "
                f"(a linear parser gives 1x; membership tests on lists grow with size)"]
    if name == "bounded_pcp":
        return [f"pcp_demo to depth 5: ip {value['oracle.pcp_demo_s.ip']:.3f} s vs "
                f"ta {value['oracle.pcp_demo_s.ta']:.3f} s (ROADMAP: 1.03 s vs 0.24 s)"]
    return [f"closure (verify) share of decide_secure run time: "
            f"{value['verify.run_share']:.1f} %"]


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def measure(name: str, seed: int, seconds: float, trace: bool, sizes=workloads.FULL):
    """Run one workload; returns (result JSON object, human-readable lines)."""
    workdir = workloads.WORKDIR
    workdir.mkdir(exist_ok=True)
    try:
        workload = workloads.WORKLOADS[name]()
        start = time.perf_counter()
        setups = [timed_setup(workload, pass_seed(seed, k), sizes)[1:]
                  for k in range(EXTRA_SETUPS)]
        untraced = [one_pass(workload, pass_seed(seed, 0), sizes, NullTracer())]
        tracer = Tracer() if trace else NullTracer()
        passes = [] if trace else untraced
        # Start another pass only if one as long as the last still ends in time.
        while not passes or time.perf_counter() - start + passes[-1].wall_s <= seconds:
            passes.append(one_pass(workload, pass_seed(seed, len(passes)), sizes, tracer))
    finally:
        for f in workdir.iterdir():
            f.unlink()
        workdir.rmdir()

    every = untraced + passes if trace else passes
    attempted = sum(len(p.samples) for p in every)
    failures = [s for p in every for s in p.samples if not s.ok]
    if trace:
        metrics = per_layer(tracer.spans, passes, untraced[0])
    else:
        metrics = end_to_end(passes, [r for _, r in setups] + [p.setup_ref_s for p in passes])
        wall = end_to_end(passes, [w for w, _ in setups] + [p.setup_s for p in passes], raw=True)
    loops = [t for p in passes for s in p.samples for t in s.loops]

    lines = ["meta " + json.dumps({
        "workload": name, "seed": seed, "seeds": [s for p in passes for s in p.seeds],
        "calibration": {"nominal_s": calibration.NOMINAL_S,
                        "loop_s.p50": _median(loops), "loops": len(loops)},
        "seconds": seconds, "trace": int(trace), "passes": len(passes),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "git_sha": _git_sha(),
    })]
    for key, (value, unit, n) in metrics.items():
        line = f"{key:32s} {value:>14.6g} {unit:8s} (n={n})"
        if not trace and unit in ("s", "1/s"):
            line += f"  wall-clock {wall[key][0]:.6g}"
        lines.append(line)
    lines.append(f"{'failed_frac':32s} {len(failures) / attempted:>14.6g} ratio    "
                 f"(n={attempted})")
    if trace:
        lines += ["reference: " + r for r in reference_points(name, metrics)]
    for s in failures:
        lines.append(f"FAILED {s.item} {s.notion}: {s.error}")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

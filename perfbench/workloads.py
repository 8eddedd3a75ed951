"""The three benchmark workloads, one per kind of question a user asks nicheck.

Every workload builds its inputs from the seed alone, hands nicheck only
those inputs, times each verdict, and then checks every verdict against an
answer the benchmark knows by construction (never against a stored nicheck
output).  Each pass rebuilds its inputs from a seed of its own, so every
pass starts with cold per-system caches, as one ``nicheck`` invocation does,
and a run covers as many inputs as it has passes.  After each verdict,
calibration loops are timed (``calibration.py``).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import calibration
import nicheck
from nicheck import cli
from nicheck.system import System, reachable_states

#: Where `check_files` writes its system files; the runner creates and empties it.
WORKDIR = Path(__file__).resolve().parent / ".work"

DECIDERS = {"p": nicheck.decide_p, "ip": nicheck.decide_ip, "ta": nicheck.decide_ta}
BOUNDED_NOTIONS = ("ip", "ta", "to", "ito")


@dataclass(frozen=True)
class Sizes:
    """Input sizes; `FULL` is what the benchmark measures, `TINY` is for the
    smoke test."""

    machine_states: int = 10_000
    # One secure and one insecure file per entry.  Two small pairs to one
    # large pair keep the median verdict inside the small-file cluster
    # rather than on the gap between the two sizes.
    file_states: tuple[int, ...] = (1_500, 1_500, 3_000)
    pcp_random: int = 2
    pcp_depth: int = 5
    augmented_depth: int = 4


FULL = Sizes()
TINY = Sizes(machine_states=300, file_states=(60, 60, 120), pcp_random=1,
             pcp_depth=3, augmented_depth=2)


@dataclass
class Sample:
    """One timed verdict and what checking it found."""

    item: str
    notion: str
    states: int
    seconds: float = 0.0
    loops: tuple[float, ...] = ()
    ref_seconds: float = 0.0
    result: object = None
    error: str | None = None
    traces: int = 0
    tree_nodes: int = 0
    witness_len: int = 0
    ok: bool = False

    def fail(self, reason: str) -> None:
        self.ok = False
        self.error = self.error or reason


def _timed(sample: Sample, call) -> Sample:
    """Run one verdict, then time calibration loops; an exception is
    recorded as that verdict's failure."""
    start = time.perf_counter()
    try:
        sample.result = call()
    except Exception:  # one failing verdict must not stop the benchmark
        sample.error = traceback.format_exc()
    sample.seconds = time.perf_counter() - start
    sample.loops = tuple(calibration.loops_after(sample.seconds))
    return sample


def _decide(tracer, notion: str, decide, system):
    with tracer.span(f"verify.decide.{notion}") as rec:
        verdict = decide(system)
        if rec is not None:
            rec.attrs["secure"] = verdict.secure
    return verdict


def _build(tracer, *args, **kwargs) -> System:
    with tracer.span("system.build"):
        system = System(*args, **kwargs)
    system.require_valid()
    return system


def _reachable(tracer, system: System) -> tuple[str, ...]:
    with tracer.span("system.reach"):
        return reachable_states(system)


def _fixture(tracer, name: str) -> System:
    with tracer.span("generate.fixture"):
        return nicheck.fixture(name)


def _random_machine(tracer, rng: random.Random, policy, n_states: int,
                    n_actions: int) -> System:
    """Uniform random transitions, actions round-robin over the domains,
    constant (null) observations."""
    domains = policy.domains
    actions = {f"a{i}": domains[i % len(domains)] for i in range(n_actions)}
    states = [f"s{i}" for i in range(n_states)]
    transitions = {}
    for s in range(n_states):
        for a in range(n_actions):
            t = rng.randrange(n_states)
            if t != s:
                transitions[states[s], f"a{a}"] = states[t]
    return _build(tracer, policy, states, states[0], actions, transitions)


def closure_counts(policy) -> dict[str, int]:
    """Closures a complete (secure) decision runs under `policy`, following
    the loops of `decide_p`, `decide_ip` and `decide_ta`."""
    doms = policy.domains
    may = policy.interferes
    ip = sum(1 for u in doms for v in doms if not may(v, u))
    ta = sum(1 for u in doms for v in doms for w in doms
             if not (may(w, v) or may(v, w) or may(w, u)))
    return {"p": len(doms), "ip": ip, "ta": ip + ta}


# ---------------------------------------------------------------------------
# decide_secure
# ---------------------------------------------------------------------------


class DecideSecure:
    """Seeded random machines of about 10^4 reachable states under fig6's
    two-lane downgrader policy (H1->D1->L, H2->D2->L), 8 actions round-robin
    over the 5 domains, constant observations; decided under p, ip and ta.

    Why: constant observations make every machine secure by construction, so
    every closure runs to completion (5 for p, 16 for ip, 16+38 for ta on
    this policy).  The `verify` closure engine does nearly all the work, with
    no parsing and no witness.
    """

    name = "decide_secure"
    n_actions = 8

    def setup(self, seed: int, sizes: Sizes, tracer):
        policy = _fixture(tracer, "fig6").policy
        system = _random_machine(tracer, random.Random(seed), policy,
                                 sizes.machine_states, self.n_actions)
        states = len(_reachable(tracer, system))
        return {"policy": policy, "seeds": [seed], "reachable": states,
                "items": [("machine", system, states)]}

    def run(self, inputs, tracer) -> list[Sample]:
        samples = []
        for label, system, states in inputs["items"]:
            for notion, decide in DECIDERS.items():
                samples.append(_timed(Sample(label, notion, states),
                                      lambda: _decide(tracer, notion, decide, system)))
        return samples

    def check(self, inputs, samples, tracer) -> None:
        for s in samples:
            if s.error is None:
                s.ok = s.result.secure is True
                if not s.ok:
                    s.fail(f"{s.notion}: constant-observation machine judged insecure")


# ---------------------------------------------------------------------------
# check_files
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _spans_inside_cli(tracer):
    """While tracing, wrap the parser and deciders that `cli.main` calls, so
    its time splits into parse, decide and the CLI's own work."""
    if not tracer.enabled:
        yield
        return
    parse, deciders = cli.parse_system, dict(cli._DECIDERS)

    def traced_parse(text):
        with tracer.span("fileformat.parse"):
            return parse(text)

    def traced(notion, decide):
        return lambda system: _decide(tracer, notion, decide, system)

    cli.parse_system = traced_parse
    cli._DECIDERS.update({n: traced(n, f) for n, f in deciders.items()})
    try:
        yield
    finally:
        cli.parse_system = parse
        cli._DECIDERS.update(deciders)


class CheckFiles:
    """Serialized system files run through ``cli.main(["check", "--notion", n,
    path])`` in-process with stdout captured, for n in p, ip, ta.  Policy
    H->D->L with 6 actions; files of about 1.5k and 3k states, half of them
    secure (constant observations) and half insecure.  The insecure file has one leak
    planted late in BFS order: L observes "1" at step(q, a) != q for an H
    action a and nothing anywhere else, so it is insecure under p, ip and ta.

    Why: this is the user's command path.  Parsing dominates it today while
    the closures stay small; the insecure half also exercises early exit,
    witness rebuild and witness-JSON emission.  Two file sizes make the
    parser's growth with file size visible.
    """

    name = "check_files"
    n_actions = 6

    def setup(self, seed: int, sizes: Sizes, tracer):
        policy = _fixture(tracer, "fig5").policy
        files, seeds = [], []
        smallest = min(sizes.file_states)
        for k, n_states in enumerate(sizes.file_states):
            size = "small" if n_states == smallest else "large"
            for leak in (False, True):
                file_seed = seed * 100 + 2 * k + leak
                seeds.append(file_seed)
                system = _random_machine(tracer, random.Random(file_seed), policy,
                                         n_states, self.n_actions)
                order = _reachable(tracer, system)
                if leak:
                    system = self._plant_leak(tracer, system, order)
                with tracer.span("fileformat.serialize"):
                    text = nicheck.serialize_system(system)
                path = WORKDIR / f"{size}{k}_{'leak' if leak else 'secure'}.ni"
                path.write_text(text, encoding="utf-8")
                files.append({"label": path.stem, "size": size, "leak": leak,
                              "path": str(path), "lines": text.count("\n"),
                              "system": system, "states": len(order)})
        return {"policy": policy, "seeds": seeds, "files": files,
                "reachable": sum(f["states"] for f in files)}

    @staticmethod
    def _plant_leak(tracer, system: System, order) -> System:
        h_actions = [a for a in system.actions if system.action_domain[a] == "H"]
        for q in reversed(order):
            for a in h_actions:
                t = system.transitions.get((q, a), q)
                if t != q:
                    return _build(tracer, system.policy, system.states, system.initial,
                                  system.action_domain, system.transitions,
                                  {(t, "L"): "1"})
        raise RuntimeError("no H transition leaves its state; cannot plant a leak")

    def run(self, inputs, tracer) -> list[Sample]:
        samples = []
        with _spans_inside_cli(tracer):
            for f in inputs["files"]:
                for notion in DECIDERS:
                    samples.append(_timed(Sample(f["label"], notion, f["states"]),
                                          lambda: self._check_command(tracer, notion, f)))
        return samples

    @staticmethod
    def _check_command(tracer, notion: str, f):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                tracer.span("cli.main", size=f["size"], lines=f["lines"]):
            code = cli.main(["check", "--notion", notion, f["path"]])
        return code, out.getvalue()

    def check(self, inputs, samples, tracer) -> None:
        files = {f["label"]: f for f in inputs["files"]}
        for s in samples:
            if s.error is not None:
                continue
            f = files[s.item]
            code, out = s.result
            if not f["leak"]:
                s.ok = code == 0 and out.strip() == f"secure ({s.notion})"
                if not s.ok:
                    s.fail(f"{s.item} {s.notion}: exit {code}, expected 0")
                continue
            if code != 1:
                s.fail(f"{s.item} {s.notion}: exit {code}, expected 1")
                continue
            try:
                w = json.loads(out)
            except ValueError:
                s.fail(f"{s.item} {s.notion}: stdout is not witness JSON")
                continue
            s.witness_len = len(w["alpha"]) + len(w["beta"])
            with tracer.span("oracle.check_witness_pair"):
                s.ok = w["notion"] == s.notion and nicheck.check_witness_pair(
                    f["system"], s.notion, w["domain"], w["alpha"], w["beta"])
            if not s.ok:
                s.fail(f"{s.item} {s.notion}: witness does not re-verify")


# ---------------------------------------------------------------------------
# bounded_pcp
# ---------------------------------------------------------------------------


def traces_enumerated(system: System, depth: int, outcome) -> int:
    """Traces `bounded_check` examined: the shortlex rank of the later
    witness trace, or every trace up to `depth` when it found no violation."""
    n = len(system.actions)
    if not outcome.insecure:
        return sum(n ** k for k in range(depth + 1))
    index = {a: i for i, a in enumerate(system.actions)}
    rank = 0
    for a in outcome.beta:
        rank = rank * n + index[a]
    return sum(n ** k for k in range(len(outcome.beta))) + rank + 1


class BoundedPcp:
    """`bounded_check` under ip, ta, to and ito to depth 5 on `pcp_demo` and
    on seeded random 3-pair word-correspondence instances over "ab" (words of
    length 1-3) compiled by `build_pcp_system`, plus ito to depth 4 on
    `augment_final(pcp_demo)`.

    Why: the `oracle` scan, `semantics.TraceProfile` and tree hash-consing do
    all the work (about 20k traces per check), with no closure and no parse.
    """

    name = "bounded_pcp"

    def setup(self, seed: int, sizes: Sizes, tracer):
        rng = random.Random(seed)
        demo = _fixture(tracer, "pcp_demo")
        items = [("pcp_demo", demo, BOUNDED_NOTIONS, sizes.pcp_depth)]
        for i in range(sizes.pcp_random):
            words = [self._word(rng) for _ in range(6)]
            instance = nicheck.PcpInstance("ab", words[:3], words[3:])
            with tracer.span("reduction.build_pcp"):
                system = nicheck.build_pcp_system(instance)
            items.append((f"pcp_random{i}", system, BOUNDED_NOTIONS, sizes.pcp_depth))
        with tracer.span("reduction.augment_final"):
            augmented = nicheck.augment_final(demo)
        items.append(("pcp_demo_final", augmented, ("ito",), sizes.augmented_depth))
        items = [(label, system, notions, depth, len(_reachable(tracer, system)))
                 for label, system, notions, depth in items]
        return {"policy": demo.policy, "seeds": [seed], "items": items,
                "reachable": sum(item[-1] for item in items)}

    @staticmethod
    def _word(rng: random.Random) -> str:
        return "".join(rng.choice("ab") for _ in range(rng.randint(1, 3)))

    def run(self, inputs, tracer) -> list[Sample]:
        samples = []
        for label, system, notions, depth, states in inputs["items"]:
            for notion in notions:
                s = _timed(Sample(label, notion, states),
                           lambda: self._bounded(tracer, label, system, notion, depth))
                if s.error is None:
                    s.traces = traces_enumerated(system, depth, s.result)
                    s.tree_nodes = len(system._trees)
                samples.append(s)
        return samples

    @staticmethod
    def _bounded(tracer, label: str, system: System, notion: str, depth: int):
        with tracer.span(f"oracle.bounded.{notion}", item=label):
            return nicheck.bounded_check(system, notion, depth)

    def check(self, inputs, samples, tracer) -> None:
        items = {label: (system, depth) for label, system, _, depth, _ in inputs["items"]}
        exact: dict[tuple[str, str], bool] = {}
        for s in samples:
            if s.error is not None:
                continue
            system, depth = items[s.item]
            out = s.result
            s.ok = True
            if out.insecure:
                s.witness_len = len(out.alpha) + len(out.beta)
                with tracer.span("oracle.check_witness_pair"):
                    if not nicheck.check_witness_pair(system, s.notion, out.domain,
                                                      out.alpha, out.beta):
                        s.fail(f"{s.item} {s.notion}: witness does not re-verify")
            elif out.depth != depth:
                s.fail(f"{s.item} {s.notion}: cleared to {out.depth}, asked {depth}")
            if s.notion in DECIDERS:
                key = (s.item, s.notion)
                if key not in exact:
                    exact[key] = _decide(tracer, s.notion, DECIDERS[s.notion],
                                         system).secure
                # An exact "secure" rules out every violation; an exact
                # "insecure" may still lie beyond the bounded depth.
                if out.insecure and exact[key]:
                    s.fail(f"{s.item} {s.notion}: bounded verdict contradicts decide_{s.notion}")
            if s.item == "pcp_demo":
                self._match_fixture(s, depth)

    @staticmethod
    def _match_fixture(s: Sample, depth: int) -> None:
        known = nicheck.FIXTURE_CLASSIFICATION["pcp_demo"]
        out = s.result
        found = len(out.beta) if out.insecure else None
        if s.notion in DECIDERS:
            if out.insecure and known[s.notion]:
                s.fail(f"pcp_demo {s.notion}: classified secure, bounded check found a violation")
            return
        first = known[f"{s.notion}_violation_depth"]
        if first is None:
            if found is not None and found <= known["clear_depth"]:
                s.fail(f"pcp_demo {s.notion}: classified clear to depth "
                       f"{known['clear_depth']}, violation at {found}")
        elif found != (first if first <= depth else None):
            s.fail(f"pcp_demo {s.notion}: first violation at {found}, classified {first}")


WORKLOADS = {w.name: w for w in (DecideSecure, CheckFiles, BoundedPcp)}

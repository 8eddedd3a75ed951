"""A catalogue of mutants that the test suite must kill, and a runner for it.

Each mutant replaces one exact anchor text in one source file and names the
test files (or test node ids) that must fail on it.

    python3 tests/mutants.py

The runner makes `WORKERS` copies of `PARTS` in a temporary directory and
runs that many mutants at a time, each in a copy of its own: it applies the
mutant, runs its targets with `pytest -x`, and prints "killed" or
"SURVIVED" for each, in catalogue order.  A mutant is killed only when its
targets ran and failed (pytest exit 1) or hung past `TIMEOUT_S`.  The
runner exits 1 if any mutant survives, and 2 if an anchor does not occur
exactly once or pytest ends in any other way (a collection error, a node id
that no longer exists, no tests collected); the working tree is never
written.  `tests/test_mutants.py` checks every anchor in tier-1, so a change
that moves the code must update this catalogue rather than lose a mutant.
"""

from __future__ import annotations

import os
import queue
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
#: What the runner copies: the tests read `tools` and `demos` as well.
PARTS = ("src", "tests", "tools", "demos")
#: A mutant whose targets run longer than this counts as killed.
TIMEOUT_S = 300
#: Mutants run at a time, each in its own copy.
WORKERS = min(2, os.cpu_count() or 1)


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    anchor: str
    replacement: str
    targets: tuple[str, ...]


MUTANTS = (
    Mutant(
        "scan judges moved domains first",
        "src/nicheck/oracle.py",
        "for ai in actions for u in checked]",
        "for ai in actions for u in checked]\n    plan.sort(key=lambda e: (e[0], e[2] < 0))",
        ("tests/test_oracle.py::TestFrontierScanIdentity::test_perturbations_equal_reference_scan",),
    ),
    Mutant(
        "scan never reports an unmoved domain",
        "src/nicheck/oracle.py",
        "if token == before[u]:\n                        continue",
        "continue",
        ("tests/test_oracle.py",),
    ),
    Mutant(
        "blind machine still scanned",
        "src/nicheck/oracle.py",
        "    if not checked:\n        return BoundedVerdict(False, depth)\n",
        "",
        ("tests/test_oracle.py::TestCheckedDomains"
         "::test_blind_machine_is_clear_without_a_profile",),
    ),
    Mutant(
        "scan drops a domain some action moves",
        "src/nicheck/oracle.py",
        "not all(u in moved for moved in system._moved)",
        "not any(u in moved for moved in system._moved)",
        ("tests/test_oracle.py::TestFrontierScanIdentity",),
    ),
    Mutant(
        "scan keys a domain that sees every action",
        "src/nicheck/oracle.py",
        "if seen and not all(u in moved for moved in system._moved)]",
        "if seen]",
        ("tests/test_oracle.py::TestCheckedDomains"
         "::test_one_token_domains_reach_no_last_level_key",),
    ),
    Mutant(
        "last level skips the table lookup",
        "src/nicheck/oracle.py",
        "keys = [get(e, e) for e in child_keys(parent, jobs)]",
        "keys = child_keys(parent, jobs)",
        ("tests/test_oracle.py",),
    ),
    Mutant(
        "trace count walks the depth without actions",
        "src/nicheck/oracle.py",
        "if n_actions < 2:",
        "if n_actions == 1:",
        ("tests/test_oracle.py::TestBoundedCheck"
         "::test_actionless_machine_stops_at_the_empty_level",),
    ),
    Mutant(
        "augment_final marks domains unescaped",
        "src/nicheck/reduction.py",
        '{d: d.replace("%", "%25").replace("+", "%2B").replace("|", "%7C")',
        "{d: d",
        ("tests/test_reduction.py",),
    ),
    Mutant(
        "parser finds a duplicate transition only in the name-pair set",
        "src/nicheck/fileformat.py",
        "if row[ai] != -1 or transitions and (s, a) in transitions:",
        "if transitions and (s, a) in transitions:",
        ("tests/test_fileformat.py",),
    ),
    Mutant(
        "parser misses a set cell on a line naming an unknown target",
        "src/nicheck/fileformat.py",
        "si is not None and ai is not None and step[si][ai] != -1",
        "False",
        ("tests/test_fileformat.py",),
    ),
    Mutant(
        "parser finds a duplicate transition only in its cell",
        "src/nicheck/fileformat.py",
        "if row[ai] != -1 or transitions and (s, a) in transitions:",
        "if row[ai] != -1:",
        ("tests/test_fileformat.py",),
    ),
    Mutant(
        "parser finds a duplicate observation only in the name-pair set",
        "src/nicheck/fileformat.py",
        "if row[di] is not None or observations and (s, d) in observations:",
        "if observations and (s, d) in observations:",
        ("tests/test_fileformat.py",),
    ),
    Mutant(
        "parser finds a duplicate observation only in its cell",
        "src/nicheck/fileformat.py",
        "if row[di] is not None or observations and (s, d) in observations:",
        "if row[di] is not None:",
        ("tests/test_fileformat.py",),
    ),
    Mutant(
        "parser widens the observation rows still unmade",
        "src/nicheck/fileformat.py",
        "for row in obs:\n                    if row is not None:\n                        row.append(None)",
        "obs[:] = [[None] * len(domains) if row is None else row + [None] for row in obs]",
        ("tests/test_fileformat.py",),
    ),
    Mutant(
        "parser does not widen the observation rows made",
        "src/nicheck/fileformat.py",
        "row.append(None)",
        "pass",
        ("tests/test_fileformat.py",),
    ),
    Mutant(
        "parser's shared null row is one cell short",
        "src/nicheck/fileformat.py",
        "null = (NULL_OBS,) * len(domains)",
        "null = (NULL_OBS,) * (len(domains) - 1)",
        ("tests/test_fileformat.py",),
    ),
    Mutant(
        "parser goes on after a 'trans' line of the wrong arity",
        "src/nicheck/fileformat.py",
        "'trans' takes 3 arguments\")\n                continue",
        "'trans' takes 3 arguments\")",
        ("tests/test_fileformat.py::TestParse::test_arity_diagnostics_of_every_keyword",),
    ),
    Mutant(
        "parser goes on after an 'obs' line of the wrong arity",
        "src/nicheck/fileformat.py",
        "'obs' takes 3 arguments\")\n                continue",
        "'obs' takes 3 arguments\")",
        ("tests/test_fileformat.py::TestParse::test_arity_diagnostics_of_every_keyword",),
    ),
    Mutant(
        "parser does not widen the step rows for a late action",
        "src/nicheck/fileformat.py",
        "row.append(-1)",
        "pass",
        ("tests/test_fileformat.py",),
    ),
    Mutant(
        "constructor drops its observation cell",
        "src/nicheck/system.py",
        "obs[si][di] = token",
        "pass",
        ("tests/test_system.py",),
    ),
    Mutant(
        "Policy keeps only its first problem",
        "src/nicheck/system.py",
        "raise InputError(out[0], out)",
        "raise InputError(out[0], out[:1])",
        ("tests/test_system.py",),
    ),
    Mutant(
        "ito sends the pre-action view to every domain",
        "src/nicheck/oracle.py",
        "ai, obs[targets[ai]][d])",
        "ai)",
        ("tests/test_oracle.py", "tests/test_acceptance.py"),
    ),
    Mutant(
        "ito sends the actor its own token",
        "src/nicheck/oracle.py",
        "[(keys[u], views[d], ai) if u == d else\n            (keys[u]",
        "[(keys[u]",
        ("tests/test_oracle.py::TestMovedDomainViolations",
         "tests/test_acceptance.py::test_criterion_5_partition_equivalence"),
    ),
    Mutant(
        "views never grow at another domain's new token",
        "src/nicheck/oracle.py",
        "if o != before[v] and v != d:",
        "if False:",
        ("tests/test_acceptance.py::test_criterion_1_fixture_classification",),
    ),
    Mutant(
        "ip reads the observer's own purge for a mask no domain holds",
        "src/nicheck/oracle.py",
        "else _walk_id(profile, m)",
        "else keys[u]",
        ("tests/test_oracle.py::TestBoundedCheck"
         "::test_bounded_ip_matches_definitional_reference",),
    ),
    Mutant(
        "tview keeps the observation after the last action",
        "src/nicheck/semantics.py",
        "return ftview(system, u, alpha)[:-1]",
        "return ftview(system, u, alpha)",
        ("tests/test_acceptance.py::test_criterion_9_witness_self_containment",),
    ),
    Mutant(
        "purge keeps every action",
        "src/nicheck/semantics.py",
        "for a in idxs if may[dom[a]][ui])",
        "for a in idxs)",
        ("tests/test_acceptance.py::test_criterion_4_semantics_laws",),
    ),
    Mutant(
        "decide_ta checks no swap",
        "src/nicheck/verify.py",
        "for v in range(nd) for w in range(v + 1, nd)",
        "for v in range(nd) for w in range(0)",
        ("tests/test_acceptance.py::test_criterion_1_fixture_classification",),
    ),
    Mutant(
        "ip closures synchronise every action",
        "src/nicheck/verify.py",
        "[a for a in range(len(system.actions)) if not may[v][dom[a]]]",
        "list(range(len(system.actions)))",
        ("tests/test_acceptance.py::test_criterion_1_fixture_classification",),
    ),
    Mutant(
        "ta transmits nothing",
        "src/nicheck/oracle.py",
        "sent = keys if profile.views is None else profile.views",
        "sent = [0] * len(keys) if profile.views is None else profile.views",
        ("tests/test_oracle.py", "tests/test_acceptance.py"),
    ),
    Mutant(
        "ip drops the actor's mask",
        "src/nicheck/oracle.py",
        "mask = masks[d] | bit",
        "mask = bit",
        ("tests/test_oracle.py", "tests/test_acceptance.py"),
    ),
    Mutant(
        "children hands each action the first action's entries",
        "src/nicheck/oracle.py",
        "at += len(moved)",
        "at += 0",
        ("tests/test_semantics.py::TestTraceProfile"
         "::test_children_are_the_one_action_extensions",),
    ),
    Mutant(
        "children steps every action from the parent's state",
        "src/nicheck/oracle.py",
        "d, state = dom[ai], targets[ai]",
        "d, state = dom[ai], self.state",
        ("tests/test_semantics.py::TestTraceProfile"
         "::test_children_are_the_one_action_extensions",),
    ),
    Mutant(
        "check's secure verdict falls through to the witness tail",
        "src/nicheck/cli.py",
        'print(f"secure ({args.notion})")\n                return 0\n',
        'print(f"secure ({args.notion})")\n',
        ("tests/test_cli.py",),
    ),
    Mutant(
        "a clear bounded verdict prints a witness",
        "src/nicheck/cli.py",
        "if not found.insecure:",
        "if False:",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "the scan reads the parent's keys below the last level",
        "src/nicheck/oracle.py",
        "keys = [children[ai].keys[u] for ai, _, u in jobs]",
        "keys = [parent.keys[u] for ai, _, u in jobs]",
        ("tests/test_oracle.py",),
    ),
    Mutant(
        "witness tail unreversed",
        "src/nicheck/verify.py",
        "for a in reversed(acts))",
        "for a in acts)",
        ("tests/test_verify.py",),
    ),
    Mutant(
        "observing walks the declared states",
        "src/nicheck/system.py",
        "for s in system._reach:\n        row = obs[s]",
        "for s in range(len(obs)):\n        row = obs[s]",
        ("tests/test_verify.py::TestBlindObserversSkipped",),
    ),
    Mutant(
        "observing stops at the first differing row",
        "src/nicheck/system.py",
        "if not blind:\n                break",
        "break",
        ("tests/test_verify.py", "tests/test_oracle.py", "tests/test_system.py"),
    ),
    Mutant(
        "an ordered argument takes a set",
        "src/nicheck/system.py",
        "if ordered and isinstance(value, (set, frozenset)):",
        "if False:",
        ("tests/test_system.py::test_ordered_argument_refuses_a_set",),
    ),
    Mutant(
        "a negative budget passes",
        "src/nicheck/oracle.py",
        "if budget < 0:",
        "if False:",
        ("tests/test_cli.py::TestBounded::test_negative_budget_is_an_input_error",),
    ),
    Mutant(
        "parser ends a line at every line boundary",
        "src/nicheck/fileformat.py",
        'lines = text.split("\\n")',
        "lines = text.splitlines()",
        ("tests/test_fileformat.py::TestParse::test_only_lf_cr_lf_and_cr_end_a_line",),
    ),
    Mutant(
        "check reads the byte order mark",
        "src/nicheck/cli.py",
        'encoding="utf-8-sig"',
        'encoding="utf-8"',
        ("tests/test_cli.py::TestCheck::test_byte_order_mark_is_skipped",),
    ),
    Mutant(
        "a crash exits as insecure",
        "src/nicheck/cli.py",
        'print(f"{type(err).__name__}: {err}", file=sys.stderr)\n        return 3',
        'print(f"{type(err).__name__}: {err}", file=sys.stderr)\n        return 1',
        ("tests/test_cli.py::TestCrash",),
    ),
    Mutant(
        "trace_key sends tview under ito",
        "src/nicheck/oracle.py",
        'sent = ftview if notion == "ito" else tview',
        "sent = tview",
        ("tests/test_oracle.py::TestTreeKeyRefinement",),
    ),
    Mutant(
        "trace_key drops the observer's tview",
        "src/nicheck/oracle.py",
        "return (purge(system, u, alpha), tview(system, u, alpha),",
        "return (purge(system, u, alpha),",
        ("tests/test_oracle.py::TestTreeKeyRefinement"
         "::test_flattened_keys_and_trees_partition_fixtures_alike",),
    ),
    Mutant(
        "witness check ignores the final observations",
        "src/nicheck/oracle.py",
        "    return system.obs(end_a, u) != system.obs(end_b, u)\n",
        "    return True\n",
        ("tests/test_oracle.py::TestCheckWitnessPair",),
    ),
    Mutant(
        "pair search never finds a split",
        "src/nicheck/oracle.py",
        "if obs[s][u] != obs[t][u]:\n            return pair",
        "if False:\n            return pair",
        ("tests/test_oracle.py::TestExactPairChecks",),
    ),
    Mutant(
        "ip pair witness drops the inserted action",
        "src/nicheck/oracle.py",
        "prefix + (names[a0],) + suffix_a",
        "prefix + suffix_a",
        ("tests/test_oracle.py::TestExactPairChecks",),
    ),
    Mutant(
        "p pair check moves only in step",
        "src/nicheck/oracle.py",
        "moves = ([(a, a) for a in all_actions] + [(a, None) for a in invisible]\n"
        "                 + [(None, a) for a in invisible])",
        "moves = [(a, a) for a in all_actions]",
        ("tests/test_oracle.py::TestExactPairChecks",),
    ),
    Mutant(
        "shortest path takes every action's first target",
        "src/nicheck/system.py",
        "path.append(step[s].index(target))",
        "path.append(0)",
        ("tests/test_verify.py::TestFlatClosureIdentity::test_paths_equal_reference_search",),
    ),
    Mutant(
        "decide_p seeds with every action, visible ones too",
        "src/nicheck/verify.py",
        "([u], _lr_single(system, reach, [a for a in all_actions if not may[dom[a]][u]]),",
        "([u], _lr_single(system, reach, all_actions),",
        ("tests/test_verify.py::TestDecideP",),
    ),
)


def _run(mutant: Mutant, work: Path) -> int:
    """Apply `mutant` in `work`, run its targets, put the file back, and
    return pytest's exit code (1 when a hang hit the timeout)."""
    path = work / mutant.file
    original = path.read_text(encoding="utf-8")
    path.write_text(original.replace(mutant.anchor, mutant.replacement), encoding="utf-8")
    try:
        return pytest_in(work, mutant.targets)
    except subprocess.TimeoutExpired:
        return 1  # the targets never passed
    finally:
        path.write_text(original, encoding="utf-8")


def copy_parts(work: Path) -> None:
    """Copy `PARTS` of the repository into `work`."""
    for part in PARTS:
        shutil.copytree(ROOT / part, work / part,
                        ignore=shutil.ignore_patterns("__pycache__"))


def pytest_in(work: Path, targets) -> int:
    """Run `targets` with `pytest -x` in the copy `work`, against its `src`,
    and return pytest's exit code."""
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *targets],
        cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        timeout=TIMEOUT_S).returncode


def main() -> int:
    for m in MUTANTS:
        count = (ROOT / m.file).read_text(encoding="utf-8").count(m.anchor)
        if count != 1:
            print(f"{m.name}: anchor occurs {count} times in {m.file}", file=sys.stderr)
            return 2
    survived = 0
    with tempfile.TemporaryDirectory() as tmp:
        copies: queue.SimpleQueue = queue.SimpleQueue()
        for k in range(WORKERS):
            copy_parts(Path(tmp, str(k)))
            copies.put(Path(tmp, str(k)))

        def run(mutant: Mutant) -> int:
            work = copies.get()
            try:
                return _run(mutant, work)
            finally:
                copies.put(work)

        # `map` yields in catalogue order; leaving the pool waits for the
        # mutants still running, so no copy is removed under them.
        with ThreadPoolExecutor(WORKERS) as pool:
            for m, code in zip(MUTANTS, pool.map(run, MUTANTS)):
                if code not in (0, 1):
                    print(f"{m.name}: pytest exited {code}", file=sys.stderr)
                    pool.shutdown(wait=False, cancel_futures=True)
                    return 2
                survived += code == 0
                print(f"{'killed' if code else 'SURVIVED':8}  {m.name}", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())

"""Independent brute-force and pair-automaton checkers.

These cross-validate the union-find deciders and serve as bounded
semi-decision procedures for the two notions that no algorithm can decide.
A bounded check that finds no violation proves nothing beyond the explored
depth; its verdict says exactly that.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .errors import BudgetError, InputError
from .semantics import CHILD_KEYS, TraceProfile, ftview, ipurge, purge, ta, tview
from .system import System, gc_paused, run
from .verify import Verdict

NOTIONS = ("p", "ip", "ta", "to", "ito")

#: Enumeration guard: refuse bounded checks beyond this many traces.
DEFAULT_TRACE_BUDGET = 5_000_000


@dataclass(frozen=True)
class BoundedVerdict:
    """Three-valued outcome of a bounded trace enumeration.

    `insecure` comes with a concrete violating pair and is conclusive.  The
    alternative is only "no violation among traces of length <= depth"; for
    the undecidable notions it must never be read as a proof of security.
    """

    insecure: bool
    depth: Optional[int] = None
    domain: Optional[str] = None
    alpha: Optional[tuple[str, ...]] = None
    beta: Optional[tuple[str, ...]] = None


def _interfering(system: System, ui: int) -> list[int]:
    """Domains other than ui that may interfere with ui, declaration order."""
    may = system._may
    return [v for v in range(len(system.policy.domains)) if v != ui and may[v][ui]]


_DEFINED = {"p": purge, "ip": ipurge, "ta": ta}


def trace_key(system: System, notion: str, u: str, alpha) -> object:
    """An opaque key whose equality captures what `u` may know after `alpha`
    under the given notion.

    For the purge notions the key is the purged trace itself; for the
    tree-valued notion it is the hash-consed tree.  For the observation-based
    notions it is the purged trace together with `u`'s own view up to its last
    action (`tview`) and the views transmitted by every other domain permitted
    to interfere with `u`: their `tview` under `to`, their `ftview` under
    `ito`.  Keys are equal exactly when the corresponding information trees
    are, which the test suite checks in both directions.  Each is computed
    straight from the definitional functions of `semantics`, never from a
    `TraceProfile`, whose `to`/`ito` keys are interned trees built by
    `semantics.CHILD_KEYS`; so a witness the bounded scan finds is re-checked
    against a different representation, independently of the recurrences
    that found it.
    """
    if notion not in NOTIONS:
        raise InputError(f"unknown security notion {notion!r}")
    alpha = tuple(alpha)
    if notion in _DEFINED:
        return _DEFINED[notion](system, u, alpha)
    # The flattened keys hold exactly what the information trees record.  The
    # `to` tree of u holds purge_u and, at each action in it, the view of the
    # acting domain before the action; each such view is a prefix of that
    # domain's final tview, so the final tviews of u and of its senders
    # recover them all.  The `ito` tree differs only at other domains'
    # actions, where it holds the view just after the action, a prefix of the
    # sender's ftview.  At u's own actions both trees hold u's view before the
    # action, so u contributes its tview and never its ftview, which would
    # also record the observation after u's last action.
    domains = system.policy.domains
    sent = ftview if notion == "ito" else tview
    return (purge(system, u, alpha), tview(system, u, alpha),
            *[sent(system, domains[v], alpha)
              for v in _interfering(system, system.policy.index(u))])


def _count_traces(n_actions: int, depth: int, budget: int) -> int:
    """Traces of length <= depth, counted exactly up to ten times `budget`;
    past that the count stops and is only a lower bound, still above budget."""
    total, layer = 1, 1
    for _ in range(depth):
        layer *= n_actions
        total += layer
        if total > 10 * budget:
            break
    return total


def bounded_check(
    system: System,
    notion: str,
    depth: int,
    budget: int = DEFAULT_TRACE_BUDGET,
) -> BoundedVerdict:
    """Group every trace of length <= depth by its security key, per domain,
    and report the first key class containing two different final
    observations.

    Traces are scanned in shortlex order (length first, then action
    declaration order), so the reported pair is the lexicographically first
    violating one and verdicts are reproducible.  Raises `BudgetError` when
    more than `budget` traces would be enumerated.

    Each length below the depth is built from the profiles of the previous
    one, extending each by every action in declaration order, so every trace
    shorter than the depth is stepped exactly once, and at most
    |A|^(depth-1) profiles are held, a number the budget already bounds.  The
    last level is never extended, so its traces get no profile: their keys
    come straight off the parent's profile by the notion's recurrence
    (`semantics.CHILD_KEYS`), the one `TraceProfile.step` uses, and a trace
    tuple is built only for a key class's representative or a reported
    pair.  Every profile and last-level key interns its components in the
    one table the root profile made, so every key is one int at any depth,
    and the system is left untouched.  A trace's key is
    computed and looked up only for the domains its last action may
    interfere with (`System._moved`); every other domain keeps its parent's
    key and, the parent having passed, clashes exactly when its observation
    changed.  Only the checked domains, those that observe at least two
    tokens over the declared states, have key tables, key lookups or
    observation comparisons: a domain with one token in every state sees
    that token at the end of every trace, so none of its key classes holds a
    violation, and skipping it leaves the first violation as it was.  The
    profiles still step every domain's key, because an unchecked actor's
    keys feed the checked ones.  The scan builds no reference cycle and runs
    with the cyclic garbage collector paused (`gc_paused`).  `depth` and
    `budget` must be ints, not bools, or `InputError` is raised.
    """
    if notion not in NOTIONS:
        raise InputError(f"unknown security notion {notion!r}")
    for name, value in (("depth", depth), ("budget", budget)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise InputError(f"{name} must be an int, got {value!r}")
    if depth < 0:
        raise InputError(f"depth must be non-negative, got {depth}")
    n_actions = len(system.actions)
    total = _count_traces(n_actions, depth, budget) if n_actions else 1
    if total > budget:
        raise BudgetError(
            f"bounded check would enumerate at least {total} traces "
            f"(budget {budget})", total
        )

    domains = system.policy.domains
    nd = len(domains)
    obs, step = system._obs, system._step
    child_keys = CHILD_KEYS[notion]
    # A domain that observes one token in every declared state never tells
    # two traces apart, so only the others are keyed and looked up.
    checked = [u for u, column in enumerate(zip(*obs)) if len(set(column)) > 1]
    # Per action: the checked domains whose key it may change and those whose
    # key it leaves as the parent's.
    moves = [(ai, action, [u for u in checked if u in moved],
              [u for u in checked if u not in moved])
             for ai, (action, moved) in enumerate(zip(system.actions, system._moved))]

    root = TraceProfile.start(system, notion)
    tokens = obs[root.state]
    # key -> (observation, representative trace); one table per domain
    seen: list[dict] = [{} for _ in range(nd)]
    for u in checked:
        seen[u][root.key(u)] = (tokens[u], ())
    frontier = [root]
    with gc_paused():
        for length in range(1, depth + 1):
            last = length == depth
            level = []
            for parent in frontier:
                before = obs[parent.state]
                targets = step[parent.state]
                for ai, action, moved, unmoved in moves:
                    after = obs[targets[ai]]
                    # An unmoved domain keeps the parent's key, whose table
                    # entry carries the parent's token (the parent passed its
                    # check), so it clashes exactly when its token changed.
                    stop = nd
                    if after != before:
                        for u in unmoved:
                            if after[u] != before[u]:
                                stop = u
                                break
                    if last:
                        trace = None
                        keys = child_keys(parent, ai, moved, after)
                    else:
                        child = parent.step(ai)
                        level.append(child)
                        trace = child.trace
                        keys = [child.key(u) for u in moved]
                    for u, k in zip(moved, keys):
                        if u > stop:
                            break
                        prior = seen[u].get(k)
                        if prior is None:
                            if trace is None:
                                trace = parent.trace + (action,)
                            seen[u][k] = (after[u], trace)
                        elif prior[0] != after[u]:
                            return BoundedVerdict(True, None, domains[u], prior[1],
                                                  parent.trace + (action,))
                    if stop < nd:
                        prior = seen[stop][parent.key(stop)]
                        return BoundedVerdict(True, None, domains[stop], prior[1],
                                              parent.trace + (action,))
            frontier = level
    return BoundedVerdict(False, depth)


def _pair_witness(system: System, parents, pair) -> tuple:
    """The two action sequences that lead from a root of `parents` (a pair
    mapped to None) to `pair`, and that root."""
    alpha: list[str] = []
    beta: list[str] = []
    names = system.actions
    while True:
        prev = parents[pair]
        if prev is None:
            break
        pair, xa, ya = prev
        if xa is not None:
            alpha.append(names[xa])
        if ya is not None:
            beta.append(names[ya])
    return tuple(reversed(alpha)), tuple(reversed(beta)), pair


def _first_split(system: System, u: int, parents: dict, moves: list) -> tuple | None:
    """Breadth-first search of a pair graph from the roots already in
    `parents` (each mapped to None): the first pair in discovery order whose
    two states `u` observes differently, or None.

    Each move (x, y) steps the left state by action x and the right one by y,
    None leaving a side where it is.  Each pair found is entered in `parents`
    as (parent pair, x, y).
    """
    step, obs = system._step, system._obs
    queue = deque(parents)
    while queue:
        pair = queue.popleft()
        s, t = pair
        if obs[s][u] != obs[t][u]:
            return pair
        for xa, ya in moves:
            child = (s if xa is None else step[s][xa], t if ya is None else step[t][ya])
            if child not in parents:
                parents[child] = (pair, xa, ya)
                queue.append(child)
    return None


def exact_pair_check_p(system: System) -> Verdict:
    """Decide purge security by searching the product of the system with
    itself: synchronized moves on every action, one-sided moves on actions
    invisible to the observer.  Exact, and independent of the union-find
    decider."""
    may, dom = system._may, system._dom
    s0 = system.state_index(system.initial)
    all_actions = list(range(len(system.actions)))
    for u, uname in enumerate(system.policy.domains):
        invisible = [a for a in all_actions if not may[dom[a]][u]]
        moves = ([(a, a) for a in all_actions] + [(a, None) for a in invisible]
                 + [(None, a) for a in invisible])
        parents: dict = {(s0, s0): None}
        pair = _first_split(system, u, parents, moves)
        if pair is not None:
            alpha, beta, _ = _pair_witness(system, parents, pair)
            return Verdict(False, uname, alpha, beta)
    return Verdict(True)


def exact_pair_check_ip(system: System) -> Verdict:
    """Decide intransitive-purge security from its one-insertion
    characterization: an invisible action is inserted before a suffix whose
    actors its domain cannot reach, and the two runs are stepped in lockstep.
    Exact, and independent of the union-find decider."""
    step, may, dom = system._step, system._may, system._dom
    nd = len(system.policy.domains)
    names = system.actions
    reach = system._reachable_idx()
    for u, uname in enumerate(system.policy.domains):
        for v in range(nd):
            if may[v][u]:
                continue
            sync = [(a, a) for a in range(len(names)) if not may[v][dom[a]]]
            # Each seed pair is a root; `seeds` keeps the state and the
            # inserted action it came from.
            parents: dict = {}
            seeds: dict = {}
            for q in reach:
                for a in system._domain_actions[v]:
                    child = (step[q][a], q)
                    if child not in parents:
                        parents[child] = None
                        seeds[child] = (q, a)
            pair = _first_split(system, u, parents, sync)
            if pair is not None:
                suffix_a, suffix_b, root = _pair_witness(system, parents, pair)
                q, a0 = seeds[root]
                prefix = tuple(names[a] for a in system._shortest_path(q))
                return Verdict(False, uname, prefix + (names[a0],) + suffix_a,
                               prefix + suffix_b)
    return Verdict(True)


def check_witness_pair(system: System, notion: str, u: str, alpha, beta) -> bool:
    """True when (alpha, beta) genuinely violates the notion for observer u:
    equal security keys but different final observations."""
    alpha, beta = tuple(alpha), tuple(beta)
    if trace_key(system, notion, u, alpha) != trace_key(system, notion, u, beta):
        return False
    end_a = run(system, system.initial, alpha)
    end_b = run(system, system.initial, beta)
    return system.obs(end_a, u) != system.obs(end_b, u)


"""Independent brute-force and pair-automaton checkers.

These cross-validate the union-find deciders and serve as bounded
semi-decision procedures for the two notions that no algorithm can decide.
A bounded check that finds no violation proves nothing beyond the explored
depth; its verdict says exactly that.

The bounded scan lives here whole: `bounded_check` and its enumeration
`_scan`, the per-prefix `TraceProfile`, and the key recurrences
`CHILD_KEYS`, which share one intern table of int ids.  The witness check
`check_witness_pair` reads none of them: its keys (`trace_key`) come from
the definitions in `semantics`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .errors import BudgetError, InputError
from .semantics import ftview, ipurge, purge, ta, tview
from .system import System, _int_of, _lookup, _observing, _tuple_of, gc_paused, run
from .verify import Verdict

# One key recurrence per notion, ta and to sharing one: an action of d
# sends d's tree under ta and d's view under to, and that is all that
# differs between them.  CHILD_KEYS[notion](profile, jobs) takes a list of
# (action index ai, its domain d, domain u) jobs and gives, per job, the
# table entry that u's key for the trace `profile.trace + (action ai,)` is
# interned under, read off the parent's profile without building the
# child's: (u's key, ai) under p and ip, (u's key, what d sends, ai) under
# ta, to and ito.  Under ito, d sends every other u its view after the
# action, which is its view before, ai and its next token, so u's entry
# holds the token as a fourth item.  Only ip's walked purges are interned,
# never an entry: `TraceProfile.children` interns each entry as a child's
# key.
#
# Every key of u changes only at actions whose domain may interfere with u:
# purge_u, ipurge_u with its position mask, and the trees move only where
# the policy row of the acting domain holds u.  So every other domain keeps
# its parent's key, and a job's u may be any domain of `System._moved[ai]`.


def _child_p(profile, jobs):
    keys = profile.keys
    return [(keys[u], ai) for ai, d, u in jobs]


def _child_ip(profile, jobs):
    # keys[v] is the id of the trace at masks[v]; any other mask is walked.
    keys, masks = profile.keys, profile.masks
    out = []
    for ai, d, u in jobs:
        m = masks[u] | masks[d]
        k = keys[u] if m == masks[u] else (
            keys[masks.index(m)] if m in masks else _walk_id(profile, m))
        out.append((k, ai))
    return out


def _walk_id(profile, mask):
    table, aidx, k = profile.table, profile.system._aidx, 0
    for i, a in enumerate(profile.trace):
        if mask >> i & 1:
            k = table.setdefault((k, aidx[a]), len(table))
    return k


def _child_tree(profile, jobs):
    keys = profile.keys
    sent = keys if profile.views is None else profile.views
    return [(keys[u], sent[d], ai) for ai, d, u in jobs]


def _child_ito(profile, jobs):
    # d's view after the action is its view before, the action and its next
    # token, so another domain's entry carries those three in its place.
    keys, views = profile.keys, profile.views
    targets, obs = profile.system._step[profile.state], profile.system._obs
    return [(keys[u], views[d], ai) if u == d else
            (keys[u], views[d], ai, obs[targets[ai]][d]) for ai, d, u in jobs]


CHILD_KEYS = {"p": _child_p, "ip": _child_ip, "ta": _child_tree,
              "to": _child_tree, "ito": _child_ito}


class TraceProfile:
    """Every domain's key under one notion for one action prefix.

    `start(system, notion)` makes the profile of the empty trace, and
    `children()` the profiles of its extensions by each action, in index
    order, in O(|D|) work per child plus a copy of the trace.  `keys[ui]` is
    domain ui's key: two keys of one domain from one `start` are equal
    exactly when the notion's definitional function (`purge`, `ipurge`,
    `ta`, `to`, `ito`) gives equal values, which the test suite checks in
    both directions.  `children` interns, with `table.setdefault`, the
    entries of one call of the notion's recurrence `CHILD_KEYS[notion]` over
    `jobs`: (ai, its domain, u) for every action ai and every u it moves,
    action-major.

    Purges, views and trees are int ids in an intern table that `start`
    creates, as it does `jobs`, and every profile made from it shares.  A
    sequence is a trie node, id(seq + (e,)) = table[(id(seq), e)], whose
    elements are action indices and, in views, observation tokens; a tree
    node is table[(left id, transmitted id, action index)], where an action
    of d transmits d's `ta` tree, or under `to`/`ito` d's view before the
    action; under `ito` another domain's node adds d's next token.  Id 0 is
    the empty sequence and every empty-history tree: the `to`/`ito` trees
    drop their initial-observation leaf, one per domain.  `views` holds each
    domain's view id under `to`/`ito`, which transmit views, and is None
    otherwise.  Nothing turns an id back into its value; `trace_key` reads
    the definitional functions instead, so no witness check reads a profile.

    Every profile key is an int id.  Under `ip`, `masks[u]` (None otherwise)
    is an int bitmask of the trace positions a permitted chain links to u,
    and `keys[u]` is the id of the trace at them: u's intransitive purge.  An
    action of d at position n sets every u that d may interfere with to
    u | d | {n}: the positions linked to the set {u, d} are those linked to
    u or to d, and a chain through the new action must reach d before it.
    """

    __slots__ = ("system", "notion", "table", "jobs", "state", "trace", "keys", "views",
                 "masks")

    def __init__(self, system, notion, table, jobs, state, trace, keys, views, masks):
        self.system = system
        self.notion = notion
        self.table = table
        self.jobs = jobs
        self.state = state
        self.trace = trace
        self.keys = keys
        self.views = views
        self.masks = masks

    @classmethod
    def start(cls, system: System, notion: str) -> "TraceProfile":
        """The profile of the empty trace under `notion`, with a new intern
        table; `InputError` unless `notion` is one of the five notions."""
        _lookup(CHILD_KEYS, notion, "security notion")
        s0 = system.state_index(system.initial)
        table = {None: 0}  # id 0: the empty sequence and the empty-history tree
        nd = len(system.policy.domains)
        views = None
        if notion in ("to", "ito"):
            views = [table.setdefault((0, t), len(table)) for t in system._obs[s0]]
        masks = [0] * nd if notion == "ip" else None
        jobs = [(ai, d, u) for ai, d in enumerate(system._dom) for u in system._moved[ai]]
        return cls(system, notion, table, jobs, s0, (), [0] * nd, views, masks)

    def children(self) -> list["TraceProfile"]:
        """The profiles of the trace extended by each action, in action
        index order."""
        sys, table, keys, masks, views = (
            self.system, self.table, self.keys, self.masks, self.views)
        intern = table.setdefault
        entries = CHILD_KEYS[self.notion](self, self.jobs)
        dom, names, obs = sys._dom, sys.actions, sys._obs
        targets, before = sys._step[self.state], obs[self.state]
        bit = 1 << len(self.trace)
        out = []
        at = 0  # where the action's entries start in `entries`
        for ai, moved in enumerate(sys._moved):
            d, state = dom[ai], targets[ai]
            grown = list(keys)
            for i, u in enumerate(moved, at):
                grown[u] = intern(entries[i], len(table))
            at += len(moved)
            linked = masks
            if masks is not None:
                linked = list(masks)
                mask = masks[d] | bit
                for u in moved:
                    linked[u] |= mask
            seen = views
            if views is not None:
                # Every view ends in its domain's current token and collapses
                # stutter, so only the actor's view and those whose token
                # changed grow.
                after = obs[state]
                seen = list(views)
                acted = intern((views[d], ai), len(table))
                seen[d] = intern((acted, after[d]), len(table))
                if after != before:
                    for v, o in enumerate(after):
                        if o != before[v] and v != d:
                            seen[v] = intern((views[v], o), len(table))
            out.append(TraceProfile(sys, self.notion, table, self.jobs, state,
                                    self.trace + (names[ai],), grown, seen, linked))
        return out


NOTIONS = tuple(CHILD_KEYS)

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
    `CHILD_KEYS`; so a witness the bounded scan finds is re-checked against
    a different representation, independently of the recurrences that
    found it.
    """
    _lookup(CHILD_KEYS, notion, "security notion")
    alpha = _tuple_of(alpha, "alpha")
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
    policy = system.policy
    sent = ftview if notion == "ito" else tview
    return (purge(system, u, alpha), tview(system, u, alpha),
            *[sent(system, v, alpha) for v in policy.domains
              if v != u and policy.interferes(v, u)])


def _count_traces(n_actions: int, depth: int, budget: int) -> int:
    """Traces of length <= depth, counted exactly up to ten times `budget`;
    past that the count stops and is only a lower bound, still above budget.
    With one action there is one trace per length and with none only the
    empty trace, both counted without a loop."""
    if n_actions < 2:
        return 1 + depth * n_actions
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
    more than `budget` traces would be enumerated.  The budget counts
    traces, not work: every profile keeps a copy of its trace, so on a
    one-action machine, with one trace per length, the scan's cost grows
    with depth squared.

    Each length below the depth is built from the profiles of the previous
    one, each giving its extensions by every action in declaration order, so
    every trace shorter than the depth is built exactly once, and at most
    |A|^(depth-1) profiles are held, a number the budget already bounds.  The
    last level is never extended, so its traces get no profile: one call of
    the notion's recurrence (`CHILD_KEYS`, the one `TraceProfile.children`
    uses) per parent gives the table entry of every child's key, and each
    entry is looked up, never interned.  An entry the
    table holds reads as its int id, the key of a shorter trace; any other
    entry is its own key, equal only to an equal entry of the last level.
    Every profile key is an int id in the one table the root profile made,
    which the last level does not grow (save `ip`'s walked purges), and the
    system is left untouched.  A key class's
    representative is kept as its parent's trace and its last action, so a
    trace tuple is built only for a reported pair.  Each trace's checked
    domains are judged in one pass in index order, so the lowest-index
    domain that clashes is the one reported.  A key is computed and looked
    up only for the domains the trace's last action may interfere with
    (`System._moved`); every other
    domain keeps its parent's key and, the parent having passed, clashes
    exactly when its observation changed, so it is looked up only to report
    that clash.  Only the checked domains, those that observe at least two
    tokens over the reachable states (`_observing`, the test the deciders
    use too) and that some action does not move, have key tables, key
    lookups or observation comparisons.  Every trace ends in a reachable
    state, so a domain with one token in every such state sees that token
    at the end of every trace; and a domain every action moves has
    purge_u(alpha) = alpha, so under every notion its key determines the
    whole trace.  Neither has a key class that holds two traces, let alone
    a violation, and skipping them leaves the first violation as it was.
    The profiles still step every domain's key, because an unchecked
    actor's keys feed the checked ones.  A machine with no checked domain,
    among them every machine without actions, is clear at once, whatever
    the depth.  The scan builds no reference cycle and runs with the cyclic
    garbage collector paused (`gc_paused`); everything it built is freed
    before the collector is switched back on.
    `depth` and `budget` must be non-negative ints, not bools (`InputError`).
    """
    child_keys = _lookup(CHILD_KEYS, notion, "security notion")
    _int_of(depth, "depth")
    _int_of(budget, "budget")
    if depth < 0:
        raise InputError(f"depth must be non-negative, got {depth}")
    if budget < 0:
        raise InputError(f"budget must be non-negative, got {budget}")
    total = _count_traces(len(system.actions), depth, budget)
    if total > budget:
        raise BudgetError(
            f"bounded check would enumerate at least {total} traces "
            f"(budget {budget})", total
        )
    # A domain that observes one token in every reachable state never tells
    # two traces apart, nor does one that every action moves: its key is the
    # whole trace.  Only the others are keyed and looked up, and a machine
    # with none of them is clear at once.
    checked = [u for u, seen in enumerate(_observing(system))
               if seen and not all(u in moved for moved in system._moved)]
    if not checked:
        return BoundedVerdict(False, depth)
    # `_scan` returns before the pause ends, so its profiles and key tables
    # are freed while the collector is off, and it never walks them.
    with gc_paused():
        return _scan(system, notion, child_keys, checked, depth)


def _scan(system: System, notion: str, child_keys, checked: list, depth: int) -> BoundedVerdict:
    """The trace enumeration of `bounded_check`, once its arguments are checked."""
    domains = system.policy.domains
    obs, step, dom, moves = system._obs, system._step, system._dom, system._moved
    actions = range(len(system.actions))
    tails = [(action,) for action in system.actions]
    # `jobs`: each action's checked domains whose key it may change, action
    # by action; `plan`: every action and checked domain in index order with
    # its place in `jobs`, or -1 when the domain keeps the parent's key.
    jobs = [(ai, dom[ai], u) for ai in actions for u in checked if u in moves[ai]]
    plan = [(ai, u, jobs.index((ai, dom[ai], u)) if u in moves[ai] else -1)
            for ai in actions for u in checked]

    root = TraceProfile.start(system, notion)
    get = root.table.get
    tokens = obs[root.state]
    # key -> (observation, parent's trace, last action as a tuple); one table
    # per domain.  A trace tuple is built only for a reported pair.
    seen: list[dict] = [{} for _ in domains]
    for u in checked:
        seen[u][root.keys[u]] = (tokens[u], (), ())
    frontier = [root]
    for length in range(1, depth + 1):
        level = []
        for parent in frontier:
            prefix = parent.trace
            before = obs[parent.state]
            targets = step[parent.state]
            if length == depth:
                # No lookup changes its answer within the level: only an `ip`
                # walk interns, and only sequences shorter than the depth, any
                # of which that is a purge being, as ipurge is idempotent, its
                # own key already.
                keys = [get(e, e) for e in child_keys(parent, jobs)]
            else:
                children = parent.children()
                level += children
                keys = [children[ai].keys[u] for ai, _, u in jobs]
            for ai, u, i in plan:
                token = obs[targets[ai]][u]
                if i < 0:
                    # The parent's key, whose entry carries the parent's
                    # token (the parent passed), so only a new token clashes.
                    if token == before[u]:
                        continue
                    prior = seen[u][parent.keys[u]]
                else:
                    prior = seen[u].get(keys[i])
                    if prior is None:
                        seen[u][keys[i]] = (token, prefix, tails[ai])
                        continue
                    if prior[0] == token:
                        continue
                return BoundedVerdict(True, None, domains[u],
                                      prior[1] + prior[2], prefix + tails[ai])
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
    decider: it searches for every domain, skipping none that sees one
    token, so it cross-checks the deciders' skip as well."""
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
    Exact, and independent of the union-find decider: like
    `exact_pair_check_p`, it skips no observer that sees one token."""
    step, may, dom = system._step, system._may, system._dom
    nd = len(system.policy.domains)
    names = system.actions
    reach = system._reach
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
    alpha, beta = _tuple_of(alpha, "alpha"), _tuple_of(beta, "beta")
    if trace_key(system, notion, u, alpha) != trace_key(system, notion, u, beta):
        return False
    end_a = run(system, system.initial, alpha)
    end_b = run(system, system.initial, beta)
    return system.obs(end_a, u) != system.obs(end_b, u)


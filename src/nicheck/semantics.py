"""Trace semantics: purge functions, per-domain views, and information trees.

Everything here is a pure function of a system and an action sequence.  The
functions fall into three families:

* subsequence semantics: which actions an observer is permitted to know about
  at all (`purge`, `sources`, `ipurge`);
* view semantics: the stutter-free record of one domain's own actions and
  observations (`view`, `tview`, `lpre`, `ftview`);
* tree semantics: the maximal information a domain may hold, represented as
  hash-consed trees whose interior nodes are labelled with actions (`ta`,
  `to`, `ito`).

Views are sequences of tagged elements so that an action can never be
confused with an observation token of the same spelling: ("a", name) marks an
action of the viewing domain, ("o", token) an observation.
"""

from __future__ import annotations

from typing import Iterable

from .errors import InputError
from .system import System, _int_of, _lookup, _tuple_of

ACT = "a"
OBS = "o"

#: Leaf payload of the empty-history information tree.
EPSILON = ("eps",)


def _indices(system: System, u: str, alpha: Iterable[str]) -> tuple[int, list[int]]:
    return system.policy.index(u), [system.action_index(a) for a in _tuple_of(alpha, "alpha")]


# ---------------------------------------------------------------------------
# Subsequence semantics
# ---------------------------------------------------------------------------


def purge(system: System, u: str, alpha: Iterable[str]) -> tuple[str, ...]:
    """The subsequence of `alpha` whose actions belong to domains that may
    interfere with `u`."""
    ui, idxs = _indices(system, u, alpha)
    may, dom = system._may, system._dom
    return tuple(system.actions[a] for a in idxs if may[dom[a]][ui])


def sources(system: System, alpha: Iterable[str], u: str) -> frozenset[str]:
    """Domains from which a policy-permitted chain of interferences inside
    `alpha` can reach `u`: `u` itself and the domains of the actions that
    `ipurge` keeps.
    """
    ui, idxs = _indices(system, u, alpha)
    dom, names = system._dom, system.policy.domains
    return frozenset([names[ui]] + [names[dom[a]] for a in _ipurge_idx(system, ui, idxs)])


def _ipurge_idx(system: System, ui: int, idxs: list[int]) -> list[int]:
    may, dom = system._may, system._dom
    cur = {ui}
    keep = [False] * len(idxs)
    for pos in range(len(idxs) - 1, -1, -1):
        d = dom[idxs[pos]]
        if any(may[d][v] for v in cur):
            cur.add(d)
            keep[pos] = True
    return [a for a, k in zip(idxs, keep) if k]


def ipurge(system: System, u: str, alpha: Iterable[str]) -> tuple[str, ...]:
    """The intransitive purge: the subsequence of `alpha` that could form part
    of a permitted causal chain ending at `u`.

    Idempotent, and equal to `purge` whenever the policy is transitive.
    """
    ui, idxs = _indices(system, u, alpha)
    return tuple(system.actions[a] for a in _ipurge_idx(system, ui, idxs))


# ---------------------------------------------------------------------------
# View semantics
# ---------------------------------------------------------------------------


def view(system: System, u: str, alpha: Iterable[str]) -> tuple:
    """Domain `u`'s complete record of the run driven by `alpha`: its own
    actions plus the observation after every step, stutter-free."""
    ui, idxs = _indices(system, u, alpha)
    step, obs, dom = system._step, system._obs, system._dom
    s = system.state_index(system.initial)
    out = [(OBS, obs[s][ui])]
    for a in idxs:
        s = step[s][a]
        if dom[a] == ui:
            out.append((ACT, system.actions[a]))
        # Stuttering observations collapse; an action element never absorbs.
        elem = (OBS, obs[s][ui])
        if out[-1] != elem:
            out.append(elem)
    return tuple(out)


def tview(system: System, u: str, alpha: Iterable[str]) -> tuple:
    """Largest prefix of `view` ending in one of `u`'s own actions; empty when
    `u` performs no action in `alpha`.

    That is `ftview` without its last observation: the view of `lpre(alpha)`
    ends in u's last action and the observation after it, and when u never
    acts it is the initial observation alone."""
    return ftview(system, u, alpha)[:-1]


def lpre(system: System, u: str, alpha: Iterable[str]) -> tuple[str, ...]:
    """Largest prefix of `alpha` ending in an action of `u`; empty if none."""
    ui, idxs = _indices(system, u, alpha)
    dom = system._dom
    alpha = tuple(system.actions[a] for a in idxs)
    for i in range(len(idxs) - 1, -1, -1):
        if dom[idxs[i]] == ui:
            return alpha[: i + 1]
    return ()


def ftview(system: System, u: str, alpha: Iterable[str]) -> tuple:
    """`u`'s view of the trace truncated at `u`'s last action, observation
    after that action included."""
    return view(system, u, lpre(system, u, alpha))


# ---------------------------------------------------------------------------
# Information trees
# ---------------------------------------------------------------------------


class InfoTree:
    """A hash-consed information term.

    A leaf carries a payload: EPSILON, ("o", token) for an initial
    observation, or ("v", view) for a transmitted view.  An interior node
    carries the observer's previous tree, the transmitted tree, and the action
    that did the transmitting.

    Trees built against the same system share structure: structurally equal
    trees are the same object, so `is` (or `==`, which is identity) decides
    equality in constant time.  The system's table holds them weakly, so
    a tree lives only as long as its callers hold it.
    """

    __slots__ = ("left", "mid", "action", "payload", "__weakref__")

    def __init__(self, left, mid, action, payload):
        self.left = left
        self.mid = mid
        self.action = action
        self.payload = payload

    @property
    def is_leaf(self) -> bool:
        return self.action is None

    def __repr__(self):
        if self.is_leaf:
            return f"Leaf({self.payload!r})"
        return f"Node({self.left!r}, {self.mid!r}, {self.action})"


def _cons(system: System, left=None, mid=None, action=None, payload=None) -> InfoTree:
    # Children are already consed, so identity keys give exact structural
    # sharing without deep comparisons; a leaf has neither child nor action.
    # A node holds its children, so no live entry's key names a freed id.
    key = (id(left), id(mid), action, payload)
    table = system._trees
    node = table.get(key)
    if node is None:
        node = table[key] = InfoTree(left, mid, action, payload)
    return node


def ta(system: System, u: str, alpha: Iterable[str]) -> InfoTree:
    """Maximal information `u` may hold about past actions: every action of an
    interfering domain adds that domain's own maximal information at the time,
    plus the fact that the action happened."""
    ui, idxs = _indices(system, u, alpha)
    may, dom, names = system._may, system._dom, system.actions
    vec = [_cons(system, payload=EPSILON)] * len(system.policy.domains)
    for a in idxs:
        d = dom[a]
        transmitted = vec[d]
        row = may[d]
        for v in range(len(vec)):
            if row[v]:
                vec[v] = _cons(system, vec[v], transmitted, names[a])
    return vec[ui]


def _transmitted(system: System, u: str, alpha: Iterable[str], immediate: bool) -> InfoTree:
    # From u's initial observation, every action of a domain d that may
    # interfere with u adds d's view of the prefix before the action, or,
    # when `immediate` and d is not u, of the prefix including it.
    ui, idxs = _indices(system, u, alpha)
    may, dom, names = system._may, system._dom, system.actions
    domains = system.policy.domains
    alpha = [names[a] for a in idxs]
    tree = _cons(system, payload=(OBS, system._obs[system.state_index(system.initial)][ui]))
    for i, a in enumerate(idxs):
        d = dom[a]
        if may[d][ui]:
            seen = alpha[: i + 1] if immediate and d != ui else alpha[:i]
            sent = _cons(system, payload=("v", view(system, domains[d], seen)))
            tree = _cons(system, tree, sent, names[a])
    return tree


def to(system: System, u: str, alpha: Iterable[str]) -> InfoTree:
    """Like `ta`, but an action transmits only what its domain has actually
    observed so far: its view before the action.  The tree starts from `u`'s
    initial observation."""
    return _transmitted(system, u, alpha, immediate=False)


def ito(system: System, u: str, alpha: Iterable[str]) -> InfoTree:
    """Like `to`, except an action of another domain also transmits the
    observation that domain makes immediately after the action: its view
    including the action.  At `u`'s own actions both trees hold `u`'s view
    before the action."""
    return _transmitted(system, u, alpha, immediate=True)


# ---------------------------------------------------------------------------
# Order sensitivity
# ---------------------------------------------------------------------------


def swappable(system: System, u: str, alpha, i: int) -> bool:
    """Whether the adjacent actions at positions i, i+1 of `alpha` can be
    swapped without any domain that may observe both of them (directly or via
    `u` or via any later actor) being able to notice.

    Concretely: no domain in the image of both actors occurs among `u` and
    the domains acting from position i onward.
    """
    _int_of(i, "position")
    ui, idxs = _indices(system, u, alpha)
    if not 0 <= i < len(idxs) - 1:
        raise InputError(f"position {i} out of range for a trace of length {len(idxs)}")
    may, dom = system._may, system._dom
    da, db = dom[idxs[i]], dom[idxs[i + 1]]
    witnesses = {ui} | {dom[a] for a in idxs[i:]}
    return not any(may[da][w] and may[db][w] for w in witnesses)


# ---------------------------------------------------------------------------
# Incremental per-prefix profile (drives the enumeration oracles)
# ---------------------------------------------------------------------------

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
# never an entry: `TraceProfile.children` interns each as a child's key,
# and the bounded scan's last level only looks it up, so the level that
# holds most traces grows the table by nothing else.
#
# Every key of u changes only at actions whose domain may interfere with u:
# purge_u, ipurge_u with its position mask, and the trees move only where
# the policy row of the acting domain holds u.  So every other domain keeps
# its parent's key, and `bounded_check` judges those domains by their
# observation alone, with no key lookup, on the strength of this.  A job's
# u may be any domain of `System._moved[ai]`: `children` passes all of
# them, and the scan's last level only the domains it checks: never a blind
# one, nor one that every action moves.


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
    action-major; the bounded scan's last level makes the same entries and
    only looks them up.

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
    otherwise.  Nothing turns an id back into its value; `oracle.trace_key`
    reads the definitional functions instead, so no witness check reads a
    profile.

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

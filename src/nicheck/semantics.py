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
from .system import System, _known

ACT = "a"
OBS = "o"

#: Leaf payload of the empty-history information tree.
EPSILON = ("eps",)


def _indices(system: System, u: str, alpha: Iterable[str]) -> tuple[int, list[int]]:
    return system.policy.index(u), [system.action_index(a) for a in alpha]


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


def _absorb(seq: tuple, elem: tuple) -> tuple:
    # Stuttering observations collapse; an action element never absorbs.
    if seq and seq[-1] == elem:
        return seq
    return seq + (elem,)


def view(system: System, u: str, alpha: Iterable[str]) -> tuple:
    """Domain `u`'s complete record of the run driven by `alpha`: its own
    actions plus the observation after every step, stutter-free."""
    ui, idxs = _indices(system, u, alpha)
    step, obs, dom = system._step, system._obs, system._dom
    s = system.state_index(system.initial)
    out = ((OBS, obs[s][ui]),)
    for a in idxs:
        s = step[s][a]
        if dom[a] == ui:
            out = out + ((ACT, system.actions[a]),)
        out = _absorb(out, (OBS, obs[s][ui]))
    return out


def tview(system: System, u: str, alpha: Iterable[str]) -> tuple:
    """Largest prefix of `view` ending in one of `u`'s own actions; empty when
    `u` performs no action in `alpha`."""
    v = view(system, u, alpha)
    for i in range(len(v) - 1, -1, -1):
        if v[i][0] == ACT:
            return v[: i + 1]
    return ()


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
    equality in constant time.
    """

    __slots__ = ("left", "mid", "action", "payload")

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
    if not isinstance(i, int) or isinstance(i, bool):
        raise InputError(f"position must be an int, got {i!r}")
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

# One key recurrence per notion.  CHILD_KEYS[notion](profile, ai, moved,
# after) gives the keys of the domains in `moved` for the trace
# `profile.trace + (action ai,)`, read off the parent's profile without
# building the child's; `after` is the child's observation row.  Ids are
# interned in the parent's table.  `TraceProfile.step` writes them into the
# child, and the bounded scan reads its last level straight from them.
#
# Every key of u changes only at actions whose domain may interfere with u:
# purge_u, ipurge_u with its position mask, and the trees move only where
# the policy row of the acting domain holds u.  So every other domain keeps
# its parent's key, and `bounded_check` skips those domains on the strength
# of this.  `moved` may be any subset of `System._moved[ai]`: `step` passes
# all of it, and the scan's last level only the domains it checks.


def _child_p(profile, ai, moved, after):
    table, keys = profile.table, profile.keys
    return [table.setdefault((keys[u], ai), len(table)) for u in moved]


def _child_ip(profile, ai, moved, after):
    # keys[v] is the id of the trace at masks[v]; any other mask is walked.
    table, keys, masks = profile.table, profile.keys, profile.masks
    linked = masks[profile.system._dom[ai]]
    out = []
    for u in moved:
        m = masks[u] | linked
        k = keys[u] if m == masks[u] else (
            keys[masks.index(m)] if m in masks else _walk_id(profile, m))
        out.append(table.setdefault((k, ai), len(table)))
    return out


def _walk_id(profile, mask):
    table, aidx, k = profile.table, profile.system._aidx, 0
    for i, a in enumerate(profile.trace):
        if mask >> i & 1:
            k = table.setdefault((k, aidx[a]), len(table))
    return k


def _child_ta(profile, ai, moved, after):
    table, keys = profile.table, profile.keys
    sent = keys[profile.system._dom[ai]]
    return [table.setdefault((keys[u], sent, ai), len(table)) for u in moved]


def _child_to(profile, ai, moved, after):
    table, keys = profile.table, profile.keys
    sent = profile.views[profile.system._dom[ai]]
    return [table.setdefault((keys[u], sent, ai), len(table)) for u in moved]


def _child_ito(profile, ai, moved, after):
    table, keys = profile.table, profile.keys
    d = profile.system._dom[ai]
    sent = profile.views[d]
    seen = table.setdefault((table.setdefault((sent, ai), len(table)), after[d]), len(table))
    return [table.setdefault((keys[u], sent if u == d else seen, ai), len(table))
            for u in moved]


CHILD_KEYS = {"p": _child_p, "ip": _child_ip, "ta": _child_ta,
              "to": _child_to, "ito": _child_ito}


class TraceProfile:
    """Every domain's key under one notion for one action prefix.

    `start(system, notion)` makes the profile of the empty trace, and
    `step(ai)` extends a profile by the action of index ai in O(|D|) work
    plus a copy of the trace.  `key(ui)` is domain ui's key: two keys of
    one domain from one `start` are equal exactly when the notion's
    definitional function (`purge`, `ipurge`, `ta`, `to`, `ito`) gives equal
    values, which the test suite checks in both directions.  `step` and the
    bounded scan's last level compute keys by the one recurrence
    `CHILD_KEYS[notion]`.

    Purges, views and trees are int ids in an intern table that `start`
    creates and every profile stepped from it shares.  A sequence is a trie
    node, id(seq + (e,)) = table[(id(seq), e)], whose elements are action
    indices and, in views, observation tokens; a tree node is table[(left
    id, transmitted id, action index)], where an action of d transmits d's
    `ta` tree, under `to` d's view before the action, and under `ito` d's
    view after it to every domain but d.  Id 0 is both the empty sequence
    and every empty-history tree: the `to`/`ito` trees drop their
    initial-observation leaf, one per domain.  `views` holds each domain's
    view id under `to`/`ito`, which transmit views, and is None otherwise.
    Nothing turns an id back into its value; `oracle.trace_key` reads the
    definitional functions instead, so no witness check reads a profile.

    Every key is an int id.  Under `ip`, `masks[u]` (None otherwise) is an
    int bitmask of the trace positions a permitted chain links to u, and
    `keys[u]` is the id of the trace at them: u's intransitive purge.  An
    action of d at position n sets every u that d may interfere with to
    u | d | {n}: the positions linked to the set {u, d} are those linked to
    u or to d, and a chain through the new action must reach d before it.
    """

    __slots__ = ("system", "notion", "table", "state", "trace", "keys", "views", "masks")

    def __init__(self, system, notion, table, state, trace, keys, views, masks):
        self.system = system
        self.notion = notion
        self.table = table
        self.state = state
        self.trace = trace
        self.keys = keys
        self.views = views
        self.masks = masks

    @classmethod
    def start(cls, system: System, notion: str) -> "TraceProfile":
        """The profile of the empty trace under `notion`, with a new intern
        table; `InputError` unless `notion` is one of the five notions."""
        if not _known(notion, CHILD_KEYS):
            raise InputError(f"unknown security notion {notion!r}")
        s0 = system.state_index(system.initial)
        table = {None: 0}  # id 0: the empty sequence and the empty-history tree
        nd = len(system.policy.domains)
        views = None
        if notion in ("to", "ito"):
            views = [table.setdefault((0, t), len(table)) for t in system._obs[s0]]
        masks = [0] * nd if notion == "ip" else None
        return cls(system, notion, table, s0, (), [0] * nd, views, masks)

    def step(self, ai: int) -> "TraceProfile":
        """The profile of the trace extended by the action of index `ai`."""
        sys, table, keys = self.system, self.table, self.keys
        d = sys._dom[ai]
        moved = sys._moved[ai]
        state = sys._step[self.state][ai]
        obs = sys._obs[state]

        grown = list(keys)
        for u, k in zip(moved, CHILD_KEYS[self.notion](self, ai, moved, obs)):
            grown[u] = k
        masks = self.masks
        if masks is not None:
            linked = masks[d] | 1 << len(self.trace)
            masks = list(masks)
            for u in moved:
                masks[u] |= linked

        views = self.views
        if views is not None:
            # Every view ends in its domain's current token, so `_absorb`
            # grows only the actor's view and those whose token changed.
            acted = table.setdefault((views[d], ai), len(table))
            views = list(views)
            views[d] = table.setdefault((acted, obs[d]), len(table))
            before = sys._obs[self.state]
            if obs != before:
                for v, o in enumerate(obs):
                    if o != before[v] and v != d:
                        views[v] = table.setdefault((views[v], o), len(table))

        return TraceProfile(sys, self.notion, table, state,
                            self.trace + (sys.actions[ai],), grown, views, masks)

    def key(self, ui: int) -> int:
        """The key of domain index `ui`: an interned id."""
        return self.keys[ui]

"""Trace semantics: purge functions, per-domain views, and information trees.

Everything here is a pure function of a system and an action sequence: these
are the definitions that the witness check (`oracle.check_witness_pair`)
reads.  The bounded scan's incremental keys (`oracle.TraceProfile` and
`oracle.CHILD_KEYS`) live beside the scan, not here.  The functions fall
into three families:

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
from .system import System, _int_of, _tuple_of

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


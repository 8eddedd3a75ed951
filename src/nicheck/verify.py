"""Polynomial-time security deciders built on union-find closures.

Each closure computes the smallest equivalence over states generated by a
family of seed pairs (the "local respect" pairs) and closed under synchronized
stepping (the "step consistency" rule), checking at every merge that the
merged states agree on the observation of each observer the relation serves.
A disagreement is definitionally a security violation, and the chain of
merges that led to it reconstructs a concrete pair of runs witnessing it.

The relation depends on the observer only in `decide_p`, whose seeds are
the observer's invisible actions, so it runs one closure per observer.
`decide_ip` runs one per excluded domain v, and `decide_ta` one more per
unordered pair {v, w} with no edge either way: the swap seeds of (w, v)
mirror those of (v, w) and the sync set is symmetric.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import InputError
from .system import System


@dataclass(frozen=True)
class Verdict:
    """Outcome of a decider: secure, or insecure with a two-run witness.

    For an insecure verdict the two runs have equal security keys for
    `domain` (purge, intransitive purge, or maximal-information tree,
    depending on the notion decided) but end in states that `domain`
    observes differently.
    """

    secure: bool
    domain: Optional[str] = None
    alpha: Optional[tuple[str, ...]] = None
    beta: Optional[tuple[str, ...]] = None

    def __bool__(self):
        return self.secure


SECURE = Verdict(True)


class UnionFind:
    """Disjoint sets over 0..n-1 with path compression and union by rank."""

    __slots__ = ("parent", "rank", "unions")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.rank = [0] * n
        self.unions = 0

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, x: int, y: int) -> bool:
        """Merge the sets of x and y; False if they were already one set."""
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        rank = self.rank
        if rank[rx] < rank[ry]:
            rx, ry = ry, rx
        self.parent[ry] = rx
        if rank[rx] == rank[ry]:
            rank[rx] += 1
        self.unions += 1
        return True


class WitnessStore:
    """Merge justifications: child pair -> (parent pair, action labels).

    Each entry records that the child states are reached from the parent
    states by the stored action strings (each of length at most two, possibly
    empty).  At most one entry exists per child pair, and following parents
    always terminates in a diagonal pair (r, r), so the store is a forest of
    trees rooted at diagonal pairs.
    """

    __slots__ = ("entries",)

    def __init__(self):
        self.entries: dict[tuple[int, int], tuple[tuple[int, int], tuple, tuple]] = {}

    def add(self, child, parent, labels):
        assert child not in self.entries
        self.entries[child] = (parent, labels[0], labels[1])

    def __contains__(self, pair):
        return pair in self.entries

    def __getitem__(self, pair):
        return self.entries[pair]

    def __len__(self):
        return len(self.entries)


def _shortest_path(system: System, target: int) -> tuple[int, ...]:
    """Action indices of a BFS-shortest path from the initial state to target."""
    start = system.state_index(system.initial)
    if target == start:
        return ()
    step = system._step
    back: dict[int, tuple[int, int]] = {start: (-1, -1)}
    queue = deque([start])
    while queue:
        s = queue.popleft()
        for a, t in enumerate(step[s]):
            if t not in back:
                back[t] = (s, a)
                if t == target:
                    path = []
                    while t != start:
                        s, a = back[t]
                        path.append(a)
                        t = s
                    return tuple(reversed(path))
                queue.append(t)
    raise InputError("witness state is unreachable")  # store invariant breach


def compute_witness(system: System, store: WitnessStore, s: int, t: int) -> tuple:
    """Reconstruct two runs ending in states s and t from the merge forest.

    Walks parent links to the diagonal root and prepends a shortest action
    path from the initial state to that root.  Returns (alpha, beta) as
    action-name tuples with s = s0.alpha and t = s0.beta.
    """
    xs: list = []
    ys: list = []
    while s != t:
        try:
            (s2, t2), x, y = store[(s, t)]
        except KeyError:
            raise InputError("dangling witness entry") from None
        xs[:0] = x
        ys[:0] = y
        s, t = s2, t2
    prefix = _shortest_path(system, s)
    names = system.actions
    alpha = tuple(names[a] for a in prefix) + tuple(xs)
    beta = tuple(names[a] for a in prefix) + tuple(ys)
    return alpha, beta


def _closure(system: System, observers: list[int], lr_pairs: Iterable,
             sc_actions: list[int]):
    """Run one unwinding closure; None when consistent, else a witness
    (domain name, alpha, beta).

    `lr_pairs` yields seed merges (child_s, child_t, diagonal_root, x, y)
    where x and y are the action-name labels justifying the children from the
    root.  `sc_actions` lists the action indices propagated synchronously.
    Every merge is checked against each observer (a domain index) in
    `observers`; the first merge where one of them sees a difference wins,
    and among the observers that do, the first listed is reported.
    """
    uf = UnionFind(len(system.states))
    store = WitnessStore()
    pending = deque()
    step = system._step
    obs = system._obs
    domains = system.policy.domains

    def merge(cs, ct, parent, labels):
        store.add((cs, ct), parent, labels)
        pending.append((cs, ct))
        uf.union(cs, ct)
        obs_s, obs_t = obs[cs], obs[ct]
        for u in observers:
            if obs_s[u] != obs_t[u]:
                return (domains[u], *compute_witness(system, store, cs, ct))
        return None

    for cs, ct, root, x, y in lr_pairs:
        if uf.find(cs) != uf.find(ct):
            hit = merge(cs, ct, (root, root), (x, y))
            if hit is not None:
                return hit
    while pending:
        s, t = pending.popleft()
        for a in sc_actions:
            sa, ta = step[s][a], step[t][a]
            if uf.find(sa) != uf.find(ta):
                name = (system.actions[a],)
                hit = merge(sa, ta, (s, t), (name, name))
                if hit is not None:
                    return hit
    return None


def _lr_single(system: System, reach: list[int], actions: list[int]):
    step, names = system._step, system.actions
    for s in reach:
        for a in actions:
            yield step[s][a], s, s, (names[a],), ()


def _lr_swap(system: System, reach: list[int], v_actions: list[int], w_actions: list[int]):
    step, names = system._step, system.actions
    for s in reach:
        for a in v_actions:
            sa = step[s][a]
            for b in w_actions:
                yield step[sa][b], step[step[s][b]][a], s, (names[a], names[b]), (names[b], names[a])


def decide_p(system: System) -> Verdict:
    """Decide security in the purge sense: every domain's observation depends
    only on the actions of domains permitted to interfere with it."""
    system.require_valid()
    reach = system._reachable_idx()
    may, dom = system._may, system._dom
    all_actions = list(range(len(system.actions)))
    for u in range(len(system.policy.domains)):
        invisible = [a for a in all_actions if not may[dom[a]][u]]
        hit = _closure(system, [u], _lr_single(system, reach, invisible), all_actions)
        if hit is not None:
            return Verdict(False, *hit)
    return SECURE


def decide_ip(system: System) -> Verdict:
    """Decide security in the intransitive-purge sense."""
    system.require_valid()
    reach = system._reachable_idx()
    may, dom = system._may, system._dom
    nd = len(system.policy.domains)
    all_actions = list(range(len(system.actions)))
    for v in range(nd):
        observers = [u for u in range(nd) if not may[v][u]]
        if not observers:
            continue
        seeds = _lr_single(system, reach, system._domain_actions[v])
        sync = [a for a in all_actions if not may[v][dom[a]]]
        hit = _closure(system, observers, seeds, sync)
        if hit is not None:
            return Verdict(False, *hit)
    return SECURE


def decide_ta(system: System) -> Verdict:
    """Decide security in the transmitted-information sense: intransitive
    purge security plus indistinguishability of swappable adjacent actions."""
    system.require_valid()
    first = decide_ip(system)
    if not first.secure:
        return first
    reach = system._reachable_idx()
    may, dom = system._may, system._dom
    nd = len(system.policy.domains)
    all_actions = list(range(len(system.actions)))
    for v in range(nd):
        for w in range(v + 1, nd):
            if may[w][v] or may[v][w]:
                continue
            observers = [u for u in range(nd) if not may[w][u] or not may[v][u]]
            seeds = _lr_swap(
                system, reach, system._domain_actions[v], system._domain_actions[w]
            )
            sync = [
                a for a in all_actions
                if not may[v][dom[a]] or not may[w][dom[a]]
            ]
            hit = _closure(system, observers, seeds, sync)
            if hit is not None:
                return Verdict(False, *hit)
    return SECURE

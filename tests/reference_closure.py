"""The object-based unwinding closure that `nicheck.verify._closure` replaced.

A `UnionFind` object, a pair-keyed `WitnessStore` forest and a `deque` of
pending pairs, kept as the reference the flat engine must match verdict for
verdict and witness for witness.  It makes the same merges in the same order.
Its witness prefixes come from `shortest_path`, the FIFO search that
`System._shortest_path` replaced, so the engine and its reference share no
path code.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from nicheck.errors import InputError
from nicheck.system import System


def shortest_path(system: System, target: int) -> tuple[int, ...]:
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
    raise InputError("witness state is unreachable")  # merge forest invariant breach


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
    prefix = shortest_path(system, s)
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

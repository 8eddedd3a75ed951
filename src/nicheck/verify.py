"""Polynomial-time security deciders built on union-find closures.

Each closure computes the smallest equivalence over states generated by a
family of seed pairs (the "local respect" pairs) and closed under synchronized
stepping (the "step consistency" rule), checking at every merge that the
merged states agree on the observation of each observer the relation serves.
A disagreement is definitionally a security violation, and the chain of
merges that led to it reconstructs a concrete pair of runs witnessing it.

`_closure` is one flat loop with no helper objects: an inlined union-find
over an int list, and the merge forest in parallel lists that a cursor walks
in merge order as the queue of pairs still to step.

The relation depends on the observer only in `decide_p`, whose seeds are
the observer's invisible actions, so it runs one closure per observer.
`decide_ip` runs one per excluded domain v, and `decide_ta` one more per
unordered pair {v, w} with no edge either way: the swap seeds of (w, v)
mirror those of (v, w) and the sync set is symmetric.

A closure serves only observers that see at least two tokens over the
reachable states (`_observing`, computed afresh by each decider).
Every state a closure merges is reachable, so a domain that sees one token
there never sees a difference at a merge: `decide_p` runs no closure for it,
and `decide_ip` and `decide_ta` drop it from each closure's observers and
skip a closure left with none.  That changes no verdict or witness: a
closure stops at the first merge some listed observer sees differently, and
`_violation` reports the first listed observer that does.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Optional

from .system import System, _observing


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


def _witness(system: System, up: list, label: list, k: int) -> tuple:
    """Two runs ending in the states of merge k, rebuilt from the merge forest.

    Walks parent merges down to a seed, whose labels (x, y) lead from its
    diagonal root, and prepends a shortest path from the initial state to
    that root.  Returns (alpha, beta) as action-name tuples.
    """
    acts = []
    while (p := up[k]) >= 0:
        acts.append(label[k])
        k = p
    names = system.actions
    prefix = tuple(names[a] for a in system._shortest_path(-1 - p))
    tail = tuple(names[a] for a in reversed(acts))
    x, y = label[k]
    return prefix + x + tail, prefix + y + tail


def _violation(system: System, observers: list[int], up: list, label: list,
               s: int, t: int):
    """(domain name, alpha, beta) for the last merge, which joined states s
    and t, when an observer tells them apart (the first such observer
    listed); else None."""
    obs_s, obs_t = system._obs[s], system._obs[t]
    for u in observers:
        if obs_s[u] != obs_t[u]:
            return (system.policy.domains[u], *_witness(system, up, label, len(up) - 1))
    return None


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

    The union-find is one int list: `parent[x]` is x's parent, or -1 - rank
    when x is a root.  Finds halve paths and unions go by rank.  Merge k
    joins `left[k]` and `right[k]`.  A seed marks itself: `up[k]` is
    -1 - its diagonal root and `label[k]` its (x, y); any other merge has
    `up[k]` the merge it was stepped from and `label[k]` the action index.
    Seeds come first, and the sync phase walks the merges in order.
    """
    step = system._step
    obs = system._obs
    parent = [-1] * len(system.states)
    left, right, up, label = [], [], [], []
    for cs, ct, root, x, y in lr_pairs:
        if cs == ct:
            continue
        rs = cs
        while (p := parent[rs]) >= 0:
            g = parent[p]
            if g < 0:
                rs = p
                break
            parent[rs] = rs = g
        rt = ct
        while (p := parent[rt]) >= 0:
            g = parent[p]
            if g < 0:
                rt = p
                break
            parent[rt] = rt = g
        if rs == rt:
            continue
        if parent[rs] > parent[rt]:  # -1 - rank: lower means higher rank
            rs, rt = rt, rs
        if parent[rs] == parent[rt]:
            parent[rs] -= 1
        parent[rt] = rs
        left.append(cs)
        right.append(ct)
        up.append(-1 - root)
        label.append((x, y))
        if obs[cs] != obs[ct] and (hit := _violation(system, observers, up, label, cs, ct)):
            return hit
    k = 0
    while k < len(left):
        row_s, row_t = step[left[k]], step[right[k]]
        for a in sc_actions:
            sa, ta = row_s[a], row_t[a]
            if sa == ta:
                continue
            rs = sa
            while (p := parent[rs]) >= 0:
                g = parent[p]
                if g < 0:
                    rs = p
                    break
                parent[rs] = rs = g
            rt = ta
            while (p := parent[rt]) >= 0:
                g = parent[p]
                if g < 0:
                    rt = p
                    break
                parent[rt] = rt = g
            if rs == rt:
                continue
            if parent[rs] > parent[rt]:  # -1 - rank, as above
                rs, rt = rt, rs
            if parent[rs] == parent[rt]:
                parent[rs] -= 1
            parent[rt] = rs
            left.append(sa)
            right.append(ta)
            up.append(k)
            label.append(a)
            if obs[sa] != obs[ta] and (hit := _violation(system, observers, up, label,
                                                         sa, ta)):
                return hit
        k += 1
    return None


def _lr_single(system: System, reach: list[int], actions: list[int]):
    step, names = system._step, system.actions
    labels = [(a, (names[a],)) for a in actions]
    for s in reach:
        row = step[s]
        for a, x in labels:
            yield row[a], s, s, x, ()


def _lr_swap(system: System, reach: list[int], v_actions: list[int], w_actions: list[int]):
    step, names = system._step, system.actions
    for s in reach:
        row = step[s]
        for a in v_actions:
            row_a = step[row[a]]
            for b in w_actions:
                yield row_a[b], step[row[b]][a], s, (names[a], names[b]), (names[b], names[a])


def _first_violation(system: System, closures: Iterable) -> Verdict:
    """Run one closure per (observers, seeds, sync actions) plan, in order:
    the first witness found is the verdict, and SECURE when none is."""
    for observers, seeds, sync in closures:
        hit = _closure(system, observers, seeds, sync)
        if hit is not None:
            return Verdict(False, *hit)
    return SECURE


def decide_p(system: System) -> Verdict:
    """Decide security in the purge sense: every domain's observation depends
    only on the actions of domains permitted to interfere with it."""
    reach = system._reach
    may, dom = system._may, system._dom
    observing = _observing(system)
    all_actions = list(range(len(system.actions)))
    return _first_violation(system, (
        ([u], _lr_single(system, reach, [a for a in all_actions if not may[dom[a]][u]]),
         all_actions)
        for u in range(len(system.policy.domains)) if observing[u]
    ))


def _ip_closures(system: System, observing: list[bool]):
    """The closures of `decide_ip`, one per excluded domain v that some
    observing domain outside v's image watches."""
    reach = system._reach
    may, dom = system._may, system._dom
    nd = len(system.policy.domains)
    return (
        (observers, _lr_single(system, reach, system._domain_actions[v]),
         [a for a in range(len(system.actions)) if not may[v][dom[a]]])
        for v in range(nd)
        if (observers := [u for u in range(nd) if observing[u] and not may[v][u]])
    )


def decide_ip(system: System) -> Verdict:
    """Decide security in the intransitive-purge sense."""
    return _first_violation(system, _ip_closures(system, _observing(system)))


def decide_ta(system: System) -> Verdict:
    """Decide security in the transmitted-information sense: intransitive
    purge security plus indistinguishability of swappable adjacent actions."""
    reach = system._reach
    may, dom = system._may, system._dom
    nd = len(system.policy.domains)
    observing = _observing(system)
    return _first_violation(system, chain(_ip_closures(system, observing), (
        (observers,
         _lr_swap(system, reach, system._domain_actions[v], system._domain_actions[w]),
         [a for a in range(len(system.actions))
          if not may[v][dom[a]] or not may[w][dom[a]]])
        for v in range(nd) for w in range(v + 1, nd)
        if not (may[w][v] or may[v][w])
        and (observers := [u for u in range(nd)
                           if observing[u] and not (may[w][u] and may[v][u])])
    )))

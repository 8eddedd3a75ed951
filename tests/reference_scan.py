"""The per-length depth-first scan that `nicheck.oracle.bounded_check` replaced.

Iterative deepening: each length is scanned from the root with an explicit
stack, and every domain's key is computed and looked up for every trace.
Kept as the reference the level-frontier scan must match verdict for verdict
and witness for witness.
"""

from __future__ import annotations

from typing import Optional

from nicheck.errors import BudgetError, InputError
from nicheck.oracle import DEFAULT_TRACE_BUDGET, NOTIONS, BoundedVerdict, _count_traces
from nicheck.semantics import TraceProfile
from nicheck.system import System


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
    """
    system.require_valid()
    if notion not in NOTIONS:
        raise InputError(f"unknown security notion {notion!r}")
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
    obs = system._obs
    # key -> (observation, representative trace); one table per domain
    seen: list[dict] = [dict() for _ in range(nd)]

    def check(profile: TraceProfile) -> Optional[BoundedVerdict]:
        for ui in range(nd):
            key = profile.keys[ui]
            token = obs[profile.state][ui]
            prior = seen[ui].get(key)
            if prior is None:
                seen[ui][key] = (token, profile.trace)
            elif prior[0] != token:
                return BoundedVerdict(
                    True, None, domains[ui], prior[1], profile.trace
                )
        return None

    # One root for every length: keys are interned ids, comparable only
    # between profiles stepped from the same root.
    root = TraceProfile.start(system, notion)

    def scan(length: int) -> Optional[BoundedVerdict]:
        # Depth-first over the traces of exactly `length` actions, in action
        # declaration order.  The stack holds the extensions of each open
        # prefix with the index of the next one to try, so depth is not
        # bounded by recursion.
        if length == 0:
            return check(root)
        stack = [(root.children(), 0)]
        while stack:
            children, i = stack.pop()
            if i == n_actions:
                continue
            stack.append((children, i + 1))
            child = children[i]
            if len(stack) == length:
                hit = check(child)
                if hit is not None:
                    return hit
            else:
                stack.append((child.children(), 0))
        return None

    # Iterative deepening keeps memory linear in depth while preserving the
    # shortlex scan order; key tables persist so pairs may differ in length.
    for length in range(depth + 1):
        hit = scan(length)
        if hit is not None:
            return hit
    return BoundedVerdict(False, depth)

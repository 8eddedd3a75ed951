#!/usr/bin/env python3
"""Near-linear scaling of the purge-based decider.

The decider does one union-find closure per observer domain that sees at
least two tokens; unions are bounded by the state count, so the whole thing
is effectively linear in |states| for fixed action and domain counts.  The
machines timed here are random with constant observations: secure, so no run
stops at an early violation, but with no observing domain either, so the
decider runs no closure and each timing is its walk over the reachable
states.
"""

from nicheck.cli import linear_fit_max_ratio, run_scaling_bench

SIZES = (1_000, 10_000, 100_000)

results = run_scaling_bench("p", sizes=SIZES, seed=7)
for r in results:
    per_state = 1e6 * r["seconds"] / r["states"]
    print(f"|S| = {r['states']:>7,}   {r['seconds']:8.4f} s   "
          f"{per_state:6.2f} us/state   secure={r['secure']}")

print()
print(f"worst deviation from a linear fit: {linear_fit_max_ratio(results):.2f}x")

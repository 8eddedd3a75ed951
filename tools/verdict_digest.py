"""Print one sha256 over the outcomes of every exact and bounded checker on
a fixed corpus, so that two trees can be shown to give the same output.

    python3 tools/verdict_digest.py      # reads the src/ and tests/ beside it

The corpus is the fixtures, the 500 random systems of
`corpus_params(500, seed=2)`, 100 `_perturb` edits of each of fig5, fig6,
fig7 and fig8 (seeded by the fixture's name, as in `tests/test_verify.py`),
and `augment_final(fig8)`.  On each system it records the repr of the
`decide_p`, `decide_ip` and `decide_ta` verdicts, of `exact_pair_check_p`
and `exact_pair_check_ip`, and of `bounded_check` at depth 4 under ip, ta,
to and ito; an error is recorded as its type and message.  Run it on each
tree and compare the printed lines.
"""

from __future__ import annotations

import hashlib
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import nicheck as nc  # noqa: E402
from conftest import corpus_params  # noqa: E402
from test_verify import _perturb  # noqa: E402

CHECKS = (
    nc.decide_p, nc.decide_ip, nc.decide_ta,
    nc.exact_pair_check_p, nc.exact_pair_check_ip,
    *(lambda s, notion=notion: nc.bounded_check(s, notion, 4)
      for notion in ("ip", "ta", "to", "ito")),
)


def corpus():
    yield from (nc.fixture(name) for name in nc.FIXTURE_NAMES)
    yield from (nc.gen_random_system(p) for p in corpus_params(500, seed=2))
    for name in ("fig5", "fig6", "fig7", "fig8"):
        rng, base = random.Random(name), nc.fixture(name)
        yield from (_perturb(base, rng) for _ in range(100))
    yield nc.augment_final(nc.fixture("fig8"))


def _outcome(check, system) -> str:
    try:
        return repr(check(system))
    except (nc.InputError, nc.BudgetError) as err:
        return f"{type(err).__name__}: {err}"


def main() -> int:
    digest = hashlib.sha256()
    systems = outcomes = 0
    for system in corpus():
        systems += 1
        for check in CHECKS:
            digest.update(_outcome(check, system).encode() + b"\n")
            outcomes += 1
    print(f"{digest.hexdigest()}  {systems} systems, {outcomes} outcomes")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Print one sha256 over the outcomes of every exact and bounded checker,
and of the semantic functions they read, on a fixed corpus, so that two
trees can be shown to give the same output.

    python3 tools/verdict_digest.py      # reads the src/ and tests/ beside it

The corpus is the fixtures, the 500 random systems of
`corpus_params(500, seed=2)`, 100 `_perturb` edits of each of fig5, fig6,
fig7 and fig8 (seeded by the fixture's name, as in `tests/test_verify.py`),
and `augment_final(fig8)`.  On each system it records its
`serialize_system` text, so that a change in how a system is built shows
too.  It then records the repr of the `decide_p`, `decide_ip` and
`decide_ta` verdicts, of `check_witness_pair` on each insecure verdict's
witness, of `exact_pair_check_p` and `exact_pair_check_ip`, and of
`bounded_check` at depth 4 under ip, ta, to and ito.  Then, per domain, on 3 traces of length at most 8 drawn from a
generator seeded by the system's position in the corpus, it records the
repr of `view`, `tview`, `ftview`, `lpre` and of `trace_key` under p, ip,
to and ito, and whether the ta keys of consecutive traces are the same
object.  An error is recorded as its type and message.  Run it on each tree
and compare the printed lines; `EXPECTED` holds this tree's digest, which a
tier-1 test (`tests/test_verdict_digest.py`) checks.
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

#: The digest of the current tree.  A change that alters an outcome on
#: purpose updates it and says so.
EXPECTED = "19945e267644dcf6704cd42bda4a9a811af15eac4ae25ddcd8631d2da8c414b2"

DECIDERS = {"p": nc.decide_p, "ip": nc.decide_ip, "ta": nc.decide_ta}
CHECKS = (
    nc.exact_pair_check_p, nc.exact_pair_check_ip,
    *(lambda s, notion=notion: nc.bounded_check(s, notion, 4)
      for notion in ("ip", "ta", "to", "ito")),
)
SEMANTICS = (
    nc.view, nc.tview, nc.ftview, nc.lpre,
    *(lambda s, u, alpha, notion=notion: nc.trace_key(s, notion, u, alpha)
      for notion in ("p", "ip", "to", "ito")),
)


def corpus():
    yield from (nc.fixture(name) for name in nc.FIXTURE_NAMES)
    yield from (nc.gen_random_system(p) for p in corpus_params(500, seed=2))
    for name in ("fig5", "fig6", "fig7", "fig8"):
        rng, base = random.Random(name), nc.fixture(name)
        yield from (_perturb(base, rng) for _ in range(100))
    yield nc.augment_final(nc.fixture("fig8"))


def _outcome(check, *args) -> str:
    try:
        return repr(check(*args))
    except (nc.InputError, nc.BudgetError) as err:
        return f"{type(err).__name__}: {err}"


def outcomes(system, seed: int):
    yield nc.serialize_system(system)
    for notion, decide in DECIDERS.items():
        verdict = decide(system)
        yield repr(verdict)
        if not verdict.secure:
            yield _outcome(nc.check_witness_pair, system, notion, verdict.domain,
                           verdict.alpha, verdict.beta)
    for check in CHECKS:
        yield _outcome(check, system)
    rng = random.Random(seed)
    for u in system.policy.domains:
        traces = [tuple(rng.choice(system.actions) for _ in range(rng.randint(0, 8)))
                  for _ in range(3)]
        for alpha in traces:
            for fn in SEMANTICS:
                yield _outcome(fn, system, u, alpha)
        trees = [nc.trace_key(system, "ta", u, alpha) for alpha in traces]
        yield repr([a is b for a, b in zip(trees, trees[1:])])


def digest() -> tuple[str, int, int]:
    """The sha256 hex digest over the corpus, its systems and outcomes."""
    sha = hashlib.sha256()
    systems = count = 0
    for seed, system in enumerate(corpus()):
        systems += 1
        for outcome in outcomes(system, seed):
            sha.update(outcome.encode() + b"\n")
            count += 1
    return sha.hexdigest(), systems, count


def main() -> int:
    hexdigest, systems, count = digest()
    print(f"{hexdigest}  {systems} systems, {count} outcomes")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Seeded random machines and the standard separating fixtures.

The fixtures are small machines realizing the classic separations between
the security notions under downgrader-style policies.  fig5, fig7 and fig8
share one template, `_one_bit`: a secret bit passed from H to L through a
downgrader D, the three differing only in what D observes.  Each ships with its
expected classification; `FIXTURE_CLASSIFICATION` records the exact verdicts
for the three decidable notions and, for the two undecidable ones, the
enumeration depth at which a bounded check first finds a violation (None when
no violation exists within `clear_depth`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import InputError
from .reduction import DEMO_INSTANCE, build_pcp_system
from .system import NULL_OBS, Policy, System, _int_of, _known


@dataclass(frozen=True)
class GenParams:
    """Shape of a random machine; the same params and seed always yield the
    identical system."""

    num_states: int
    num_actions: int
    num_domains: int
    obs_alphabet_size: int
    policy_density: float
    seed: int

    def __post_init__(self):
        for field in ("num_states", "num_actions", "num_domains", "obs_alphabet_size", "seed"):
            if _int_of(getattr(self, field), field) < 1 and field != "seed":
                raise InputError(f"{field} must be at least 1")
        density = self.policy_density
        if not isinstance(density, (int, float)) or isinstance(density, bool):
            raise InputError(f"policy_density must be a number, got {density!r}")
        if not 0.0 <= density <= 1.0:
            raise InputError("policy_density must lie in [0, 1]")


def gen_random_system(params: GenParams) -> System:
    """Uniform random transition and observation tables over a random
    reflexive policy of the requested density.

    The tables are drawn as indices, states `s0`, `s1`, ... and actions
    `a0`, `a1`, ... in order, and handed to `System._from_tables` whole;
    every index drawn is in range, so there is nothing to check."""
    rng = random.Random(params.seed)
    ns, na, nd = params.num_states, params.num_actions, params.num_domains
    domains = [f"d{i}" for i in range(nd)]
    edges = [
        (u, v)
        for u in domains
        for v in domains
        if u != v and rng.random() < params.policy_density
    ]
    dom = [rng.randrange(nd) for _ in range(na)]
    step = [tuple([rng.randrange(ns) for _ in range(na)]) for _ in range(ns)]
    tokens = [f"o{i}" for i in range(params.obs_alphabet_size)]
    # A single token certainly stutters everywhere; keep the default.
    obs = ([tuple([rng.choice(tokens) for _ in range(nd)]) for _ in range(ns)]
           if params.obs_alphabet_size > 1 else [(NULL_OBS,) * nd] * ns)
    return System._from_tables(Policy(domains, edges), "s0",
                               {f"s{i}": i for i in range(ns)},
                               {f"a{i}": i for i in range(na)}, dom, step, obs)


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------


def _one_bit(states: tuple[str, str, str], downgrader_sees: str) -> System:
    # The one-bit machine: h sets the bit (state 0 -> 1) and the downgrade d
    # passes it on (1 -> 2).  H sees the bit at once, L only after d, and D
    # sees `downgrader_sees[i]` in state i.
    s0, s1, s2 = states
    sees = {"H": "011", "D": downgrader_sees, "L": "001"}
    observations = {(s, dom): row[i] for dom, row in sees.items() for i, s in enumerate(states)}
    return System(Policy(("H", "D", "L"), (("H", "D"), ("D", "L"))), states, s0,
                  {"h": "H", "d": "D", "l": "L"}, {(s0, "h"): s1, (s1, "d"): s2}, observations)


def _fig6() -> System:
    # Two independent downgrading lanes; L's observation reveals which high
    # action came first, but only once both lanes have downgraded.
    policy = Policy(
        ("H1", "H2", "D1", "D2", "L"),
        (("H1", "D1"), ("D1", "L"), ("H2", "D2"), ("D2", "L")),
    )
    actions = {"h1": "H1", "h2": "H2", "d1": "D1", "d2": "D2"}

    # state: (which high action came first, h1 seen, d1-after-h1, h2 seen,
    # d2-after-h2); only first occurrences matter for L's observation.
    initial = (0, False, False, False, False)

    def step(s, a):
        first, h1s, h1d, h2s, h2d = s
        if a == "h1" and not h1s:
            return (first or 1, True, h1d, h2s, h2d)
        if a == "h2" and not h2s:
            return (first or 2, h1s, h1d, True, h2d)
        if a == "d1" and h1s and not h1d:
            return (first, h1s, True, h2s, h2d)
        if a == "d2" and h2s and not h2d:
            return (first, h1s, h1d, h2s, True)
        return s

    def obs(s, domain):
        first, _, h1d, _, h2d = s
        if domain == "L" and h1d and h2d and first:
            return str(first)
        return "0"

    def name(s):
        return "q" + "".join(str(int(x)) for x in s)

    return System.from_functions(policy, actions, initial, step, obs, name)


_FIXTURES = {
    # D holds the bit as soon as H does.
    "fig5": lambda: _one_bit(("s0", "s1", "s2"), "011"),
    "fig6": _fig6,
    # D observes nothing: it passes on a bit it never held.
    "fig7": lambda: _one_bit(("s0", "s1", "s2"), "000"),
    # D learns the bit by the observation it makes right after downgrading,
    # the moment L learns it.
    "fig8": lambda: _one_bit(("t0", "t1", "t2"), "001"),
    "pcp_demo": lambda: build_pcp_system(DEMO_INSTANCE),
}

FIXTURE_NAMES = tuple(_FIXTURES)

#: Expected classification of every fixture.  "p"/"ip"/"ta" are the exact
#: decider verdicts.  "*_violation_depth" is the smallest enumeration depth at
#: which the bounded checker exhibits a violation of the undecidable notion,
#: or None if none exists up to `clear_depth` (which, for the notions marked
#: None, is NOT a proof of security).
FIXTURE_CLASSIFICATION = {
    "fig5": {"p": False, "ip": True, "ta": True,
             "to_violation_depth": None, "ito_violation_depth": None, "clear_depth": 6},
    "fig6": {"p": False, "ip": True, "ta": False,
             "to_violation_depth": 4, "ito_violation_depth": 4, "clear_depth": 6},
    "fig7": {"p": False, "ip": True, "ta": True,
             "to_violation_depth": 2, "ito_violation_depth": 2, "clear_depth": 6},
    "fig8": {"p": False, "ip": True, "ta": True,
             "to_violation_depth": 2, "ito_violation_depth": None, "clear_depth": 6},
    "pcp_demo": {"p": False, "ip": True, "ta": True,
                 "to_violation_depth": None, "ito_violation_depth": None, "clear_depth": 4},
}


def fixture(name: str) -> System:
    """One of the named separating machines."""
    if not _known(name, _FIXTURES):
        raise InputError(f"unknown fixture {name!r}; known: {', '.join(FIXTURE_NAMES)}")
    return _FIXTURES[name]()

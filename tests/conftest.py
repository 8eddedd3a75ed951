import gc
import itertools
import random
import signal

import pytest

import nicheck as nc


@pytest.fixture(scope="session")
def fig5():
    return nc.fixture("fig5")


@pytest.fixture(scope="session")
def fig6():
    return nc.fixture("fig6")


@pytest.fixture(scope="session")
def fig7():
    return nc.fixture("fig7")


@pytest.fixture(scope="session")
def fig8():
    return nc.fixture("fig8")


@pytest.fixture(scope="session")
def pcp_demo():
    return nc.fixture("pcp_demo")


@pytest.fixture(scope="session")
def direct_leak():
    """Two states, no permitted flow from H to L, yet L's observation flips
    after H's action."""
    return nc.System(
        nc.Policy(("H", "L")),
        ("s0", "s1"),
        "s0",
        {"h": "H"},
        {("s0", "h"): "s1"},
        {("s0", "L"): "0", ("s1", "L"): "1"},
    )


@pytest.fixture(scope="session")
def delayed_leak():
    """H's action changes no observation of L; L's own action then reveals
    whether it happened, so the runs (l) and (h, l) differ at L only after an
    action that every key of L records."""
    return nc.System(
        nc.Policy(("H", "L")),
        ("s0", "s1", "s2"),
        "s0",
        {"h": "H", "l": "L"},
        {("s0", "h"): "s1", ("s1", "l"): "s2"},
        {("s2", "L"): "1"},
    )


@pytest.fixture(scope="session")
def counting_machine():
    """Transitive two-level policy; every observation is a parity of counts of
    the actions visible to the observer, hence secure under every notion."""
    states = [f"c{i}{j}" for i in (0, 1) for j in (0, 1)]
    trans = {}
    obs = {}
    for i in (0, 1):
        for j in (0, 1):
            trans[(f"c{i}{j}", "l")] = f"c{1 - i}{j}"
            trans[(f"c{i}{j}", "h")] = f"c{i}{1 - j}"
            obs[(f"c{i}{j}", "L")] = str(i)
            obs[(f"c{i}{j}", "H")] = str((i + j) % 2)
    return nc.System(
        nc.Policy(("L", "H"), (("L", "H"),)),
        states, "c00", {"l": "L", "h": "H"}, trans, obs,
    )


def corpus_params(count, seed, max_states=6, max_actions=4, max_domains=3, obs_tokens=3):
    """Deterministic parameter list for a random-system corpus."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        out.append(
            nc.GenParams(
                rng.randint(1, max_states),
                rng.randint(1, max_actions),
                rng.randint(1, max_domains),
                obs_tokens,
                rng.choice([0.0, 0.2, 0.35, 0.5, 1.0]),
                seed * 1_000_003 + i,
            )
        )
    return out


def hidden_bit_system(seed):
    """A seeded machine that only L observes, and whose observation changes
    only at L's own actions.

    The policy is fig5's or fig6's.  Every action of another domain sets,
    clears or flips one of a few hidden bits; every action of L shows the
    token that a seeded table assigns to that action and the current bits.
    A violation therefore always falls on L at one of L's actions, which
    moves every key of L.
    """
    rng = random.Random(seed)
    policy = rng.choice([nc.fixture("fig5").policy, nc.fixture("fig6").policy])
    nbits = rng.randint(1, 3)
    actions, effects = {}, {}
    for d in policy.domains:
        for k in range(1 if d != "L" or rng.random() < 0.5 else 2):
            a = f"{d.lower()}{k}"
            actions[a] = d
            effects[a] = (rng.choice(("set", "clear", "flip")), rng.randrange(nbits))
    shows = {(a, bits): rng.choice(("o0", "o1"))
             for a, d in actions.items() if d == "L"
             for bits in itertools.product((0, 1), repeat=nbits)}

    def step(state, a):
        bits, shown = state
        if actions[a] == "L":
            return bits, shows[a, bits]
        op, i = effects[a]
        bit = {"set": 1, "clear": 0, "flip": 1 - bits[i]}[op]
        return bits[:i] + (bit,) + bits[i + 1:], shown

    def obs(state, d):
        return state[1] if d == "L" else nc.NULL_OBS

    def name(state):
        return "q" + "".join(map(str, state[0])) + state[1]

    return nc.System.from_functions(policy, actions, ((0,) * nbits, "o0"), step, obs, name)


def transitive_closure(policy):
    """Smallest transitive policy containing the given one."""
    edges = set(policy.edges)
    changed = True
    while changed:
        changed = False
        for u, v in list(edges):
            for v2, w in list(edges):
                if v2 == v and (u, w) not in edges:
                    edges.add((u, w))
                    changed = True
    return nc.Policy(policy.domains, edges)


def random_trace(rng, system, max_len=8):
    return tuple(rng.choice(system.actions) for _ in range(rng.randint(0, max_len)))


@pytest.fixture(params=[True, False], ids=["gc_enabled", "gc_disabled"])
def collector(request):
    """The cyclic garbage collector switched on or off for the test, and put
    back as it was afterwards; the value is whether it is on."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


@pytest.fixture
def deadline():
    """Fail the test with `TimeoutError` if it runs longer than five seconds,
    so that a loop that would never end fails instead of hanging the run."""
    def expire(signum, frame):
        raise TimeoutError("test ran past its five-second deadline")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(5)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


@pytest.fixture(scope="session")
def actionless():
    """A machine without actions: its one trace is the empty one."""
    return nc.System(nc.Policy(("H", "L")), ("s0",), "s0", {}, {}, {("s0", "L"): "1"})

import random
from collections.abc import Mapping

import pytest
from hypothesis import given, strategies as st

import nicheck as nc
from nicheck.system import _bad_name
from conftest import corpus_params, random_trace


def downgrader():
    return nc.Policy(("H", "D", "L"), (("H", "D"), ("D", "L")))


class TestPolicy:
    def test_reflexive_edges_are_implicit_and_deduplicated(self):
        p = nc.Policy(("A", "B"), (("A", "A"), ("A", "B")))
        assert p.interferes("A", "A") and p.interferes("B", "B")
        assert p.edges == {("A", "A"), ("B", "B"), ("A", "B")}

    def test_unknown_edge_domain_rejected(self):
        with pytest.raises(nc.InputError):
            nc.Policy(("A",), (("A", "X"),))

    def test_duplicate_domain_rejected(self):
        with pytest.raises(nc.InputError):
            nc.Policy(("A", "A"))


class TestPolicyImage:
    def test_downgrader_image_of_high(self):
        assert nc.policy_image(downgrader(), {"H"}) == {"H", "D"}

    def test_empty_sources(self):
        assert nc.policy_image(downgrader(), set()) == set()

    def test_two_level_image(self):
        p = nc.Policy(("L", "H"), (("L", "H"),))
        assert nc.policy_image(p, {"L"}) == {"L", "H"}

    def test_unknown_domain_is_an_input_error(self):
        with pytest.raises(nc.InputError):
            nc.policy_image(downgrader(), {"X"})

    def test_unhashable_domain_is_an_input_error(self):
        with pytest.raises(nc.InputError, match="unknown domain"):
            nc.policy_image(downgrader(), [["L"]])

    def test_unhashable_domain_interferes_with_nothing(self):
        # As for an undeclared domain: no edge names it.
        p = downgrader()
        assert not p.interferes(["L"], "H")
        assert not p.interferes("H", ["D"])
        assert not p.interferes("X", "H")

    def test_extensive_and_monotone(self):
        rng = random.Random(5)
        for i in range(200):
            n = rng.randint(1, 5)
            doms = [f"d{k}" for k in range(n)]
            edges = [(u, v) for u in doms for v in doms if rng.random() < 0.4]
            p = nc.Policy(doms, edges)
            sub = {d for d in doms if rng.random() < 0.5}
            img = nc.policy_image(p, sub)
            assert sub <= img
            assert img <= nc.policy_image(p, set(doms))


class TestIsTransitive:
    def test_downgrader_chain_is_not_transitive(self):
        assert not nc.is_transitive(downgrader())

    def test_reflexive_only_is_transitive(self):
        assert nc.is_transitive(nc.Policy(("A", "B", "C")))

    def test_two_level_is_transitive(self):
        assert nc.is_transitive(nc.Policy(("L", "H"), (("L", "H"),)))

    def test_matches_triple_enumeration(self):
        rng = random.Random(11)
        for i in range(100):
            doms = [f"d{k}" for k in range(rng.randint(1, 4))]
            edges = [(u, v) for u in doms for v in doms if rng.random() < 0.5]
            p = nc.Policy(doms, edges)
            brute = all(
                (u, w) in p.edges
                for (u, v) in p.edges
                for (v2, w) in p.edges
                if v2 == v
            )
            assert nc.is_transitive(p) == brute


class TestRun:
    def test_empty_sequence_is_identity(self, fig5):
        assert nc.run(fig5, "s0", ()) == "s0"

    def test_fig5_high_then_downgrade_reveals_to_low(self, fig5):
        assert fig5.obs(nc.run(fig5, "s0", ("h", "d", "l")), "L") == "1"

    def test_fig5_downgrade_alone_reveals_nothing(self, fig5):
        assert fig5.obs(nc.run(fig5, "s0", ("d", "l")), "L") == "0"

    def test_undeclared_action_rejected(self, fig5):
        with pytest.raises(nc.InputError):
            nc.run(fig5, "s0", ("zap",))
        with pytest.raises(nc.InputError):
            nc.run(fig5, "nowhere", ())

    def test_unhashable_name_is_an_input_error(self, fig5):
        # A name read back from JSON may be a list or a dict.
        with pytest.raises(nc.InputError, match=r"^unknown state \['s0'\]$"):
            nc.run(fig5, ["s0"], ())
        with pytest.raises(nc.InputError, match=r"^unknown domain \{\}$"):
            fig5.obs("s0", {})

    def test_split_law(self):
        rng = random.Random(17)
        for params in corpus_params(50, seed=23):
            s = nc.gen_random_system(params)
            alpha = random_trace(rng, s)
            k = rng.randint(0, len(alpha))
            via = nc.run(s, nc.run(s, s.initial, alpha[:k]), alpha[k:])
            assert via == nc.run(s, s.initial, alpha)


class TestReachableStates:
    def test_single_state_self_loop(self):
        s = nc.System(nc.Policy(("A",)), ("s0",), "s0", {"a": "A"})
        assert nc.reachable_states(s) == ("s0",)

    def test_declared_but_unreachable_state_excluded(self):
        s = nc.System(
            nc.Policy(("A",)), ("s0", "island"), "s0", {"a": "A"},
            {("island", "a"): "s0"},
        )
        assert nc.reachable_states(s) == ("s0",)
        with pytest.raises(nc.InputError, match="^witness state is unreachable$"):
            s._shortest_path(s.state_index("island"))

    def test_fig5_reaches_everything(self, fig5):
        assert nc.reachable_states(fig5) == ("s0", "s1", "s2")

    @staticmethod
    def _set_bfs(s):
        # The BFS that `System._reachable_idx` replaced: a set per layer,
        # sorted into declaration order.
        start = s.state_index(s.initial)
        seen, order, layer = {start}, [start], [start]
        while layer:
            nxt = set()
            for q in layer:
                for t in s._step[q]:
                    if t not in seen:
                        seen.add(t)
                        nxt.add(t)
            layer = sorted(nxt)
            order.extend(layer)
        return order

    def test_order_matches_set_based_bfs(self):
        systems = [nc.fixture(name) for name in nc.FIXTURE_NAMES]
        systems += [nc.gen_random_system(p) for p in corpus_params(40, seed=37)]
        rng = random.Random(37)
        for n in (10, 100, 1000, 10_000):
            for i in range(3):
                systems.append(nc.gen_random_system(nc.GenParams(
                    n, rng.randint(1, 4), rng.randint(1, 3), 2, 0.3, 3700 + i)))
        for s in systems:
            assert s._reachable_idx() == self._set_bfs(s)

    def test_closed_under_step(self):
        for params in corpus_params(40, seed=31):
            s = nc.gen_random_system(params)
            reach = set(nc.reachable_states(s))
            for q in reach:
                for a in s.actions:
                    assert nc.run(s, q, (a,)) in reach


class _Repeated(Mapping):
    """An action mapping whose iteration names every action twice."""

    def __init__(self, actions):
        self._actions = dict(actions)

    def __getitem__(self, a):
        return self._actions[a]

    def __iter__(self):
        for a in self._actions:
            yield a
            yield a

    def __len__(self):
        return 2 * len(self._actions)


def _rejected(states=("s0",), initial="s0", actions=None,
              transitions=None, observations=None) -> list[str]:
    """The diagnostics a one-domain system's constructor rejects it with."""
    with pytest.raises(nc.InputError) as err:
        nc.System(nc.Policy(("A",)), states, initial,
                  {"a": "A"} if actions is None else actions,
                  transitions, observations)
    diagnostics = list(err.value.diagnostics)
    assert str(err.value) == f"invalid system: {diagnostics[0]}"
    return diagnostics


class TestValidate:
    def test_wellformed_fixture_is_ok(self, fig5):
        fig5.require_valid()
        assert nc.System(fig5.policy, fig5.states, fig5.initial, fig5.action_domain,
                         fig5.transitions, fig5.observations) == fig5

    def test_action_with_undeclared_domain(self):
        assert _rejected(actions={"a": "X"}) == ["action a: unknown domain 'X'"]

    def test_dangling_transition_target(self):
        assert _rejected(transitions={("s0", "a"): "s9"}) == [
            "transition s0 --a--> s9: unknown target state"]

    def test_bad_observation_token(self):
        assert _rejected(observations={("s0", "A"): "two words"}) == [
            "observation for (s0, A): bad token 'two words'"]

    @pytest.mark.parametrize("kwargs, diagnostic", [
        ({"states": ("s 0",), "initial": "s 0"}, "bad state name 's 0'"),
        ({"states": ("s0", "s0")}, "duplicate state declaration"),
        ({"states": ()}, "no states declared"),
        ({"initial": "s1"}, "initial state 's1' is not declared"),
        ({"actions": {"a#": "A"}}, "bad action name 'a#'"),
        ({"actions": _Repeated({"a": "A"})}, "duplicate action declaration"),
        ({"transitions": {("s9", "a"): "s0"}},
         "transition s9 --a--> s0: unknown source state"),
        ({"transitions": {("s0", "b"): "s0"}},
         "transition s0 --b--> s0: unknown action"),
        ({"observations": {("s9", "A"): "x"}},
         "observation for (s9, A): unknown state"),
        ({"observations": {("s0", "X"): "x"}},
         "observation for (s0, X): unknown domain"),
        ({"transitions": {("s0",): "s0"}},
         "transition key ('s0',): not a (state, action) pair"),
        ({"transitions": {"s0": "s0"}},
         "transition key 's0': not a (state, action) pair"),
        ({"observations": {("s0", "A", "B"): "x"}},
         "observation key ('s0', 'A', 'B'): not a (state, domain) pair"),
    ])
    def test_each_problem_has_its_diagnostic(self, kwargs, diagnostic):
        assert _rejected(**kwargs) == [diagnostic]

    def test_every_problem_is_reported_in_check_order(self):
        assert _rejected(
            states=("s 0", "s 0"), initial="s1", actions={"a#": "X"},
            transitions={("s9",): "s0", ("s9", "b"): "s8"},
            observations={("s9", "X", "Y"): "x", ("s9", "X"): "two words"},
        ) == [
            "bad state name 's 0'",
            "bad state name 's 0'",
            "duplicate state declaration",
            "initial state 's1' is not declared",
            "bad action name 'a#'",
            "action a#: unknown domain 'X'",
            "transition key ('s9',): not a (state, action) pair",
            "transition s9 --b--> s8: unknown source state",
            "transition s9 --b--> s8: unknown target state",
            "transition s9 --b--> s8: unknown action",
            "observation key ('s9', 'X', 'Y'): not a (state, domain) pair",
            "observation for (s9, X): unknown state",
            "observation for (s9, X): unknown domain",
            "observation for (s9, X): bad token 'two words'",
        ]

    @pytest.mark.parametrize("kwargs, diagnostics", [
        ({"states": (["s0"],)},
         ["bad state name ['s0']", "initial state 's0' is not declared"]),
        ({"transitions": {("s0", "a"): ["s0"]}},
         ["transition s0 --a--> ['s0']: unknown target state"]),
        ({"actions": {"a": ["A"]}}, ["action a: unknown domain ['A']"]),
    ])
    def test_unhashable_name_is_diagnosed(self, kwargs, diagnostics):
        assert _rejected(**kwargs) == diagnostics

    def test_unhashable_names_leave_every_other_problem_reported(self):
        assert _rejected(
            states=(["s0"], "s1", "s1"), initial="s1", actions={"a": ["A"]},
            transitions={("s1", "a"): ["s1"], ("s9", "a"): "s1"},
        ) == [
            "bad state name ['s0']",
            "duplicate state declaration",
            "action a: unknown domain ['A']",
            "transition s1 --a--> ['s1']: unknown target state",
            "transition s9 --a--> s1: unknown source state",
        ]

    @pytest.mark.parametrize("domains, edges, diagnostic", [
        ((["A"], "B"), (), "bad domain name ['A']"),
        (("A", "B"), ((["A"], "B"),), "interference edge (['A'], B) names an undeclared domain"),
        (("A", "B"), (("A", ["B"]),), "interference edge (A, ['B']) names an undeclared domain"),
    ])
    def test_unhashable_policy_name_is_diagnosed(self, domains, edges, diagnostic):
        with pytest.raises(nc.InputError) as err:
            nc.Policy(domains, edges)
        assert list(err.value.diagnostics) == [diagnostic]

    def test_bad_domain_name(self):
        with pytest.raises(nc.InputError) as err:
            nc.Policy(("A", "B C"))
        assert list(err.value.diagnostics) == ["bad domain name 'B C'"]

    @pytest.mark.parametrize("edge, diagnostic", [
        (("A",), "interference edge ('A',): not a (domain, domain) pair"),
        (("A", "B", "A"), "interference edge ('A', 'B', 'A'): not a (domain, domain) pair"),
        ("AB", "interference edge 'AB': not a (domain, domain) pair"),
    ])
    def test_malformed_edge(self, edge, diagnostic):
        with pytest.raises(nc.InputError) as err:
            nc.Policy(("A", "B"), (edge,))
        assert list(err.value.diagnostics) == [diagnostic]

    @pytest.mark.parametrize("build, diagnostic", [
        (lambda: _system(actions=None), "actions must be a mapping, got None"),
        (lambda: _system(actions=5), "actions must be a mapping, got 5"),
        (lambda: _system(actions=["a"]), "actions must be a mapping, got ['a']"),
        (lambda: _system(transitions=[1, 2]), "transitions must be a mapping, got [1, 2]"),
        (lambda: _system(observations=3), "observations must be a mapping, got 3"),
        (lambda: _system(states=None), "states must be iterable, got None"),
        (lambda: _system(policy=None), "policy must be a Policy, got None"),
        (lambda: nc.Policy(None), "domains must be iterable, got None"),
        (lambda: nc.Policy(("A",), None), "edges must be iterable, got None"),
    ])
    def test_malformed_argument_is_named(self, build, diagnostic):
        with pytest.raises(nc.InputError) as err:
            build()
        assert list(err.value.diagnostics) == [diagnostic]


def _system(policy=nc.Policy(("A",)), states=("s0",), actions={"a": "A"},
            transitions=None, observations=None) -> nc.System:
    return nc.System(policy, states, "s0", actions, transitions, observations)


def _bad_name_reference(name) -> bool:
    return (
        not isinstance(name, str)
        or not name
        or "#" in name
        or any(ch.isspace() for ch in name)
    )


class TestBadName:
    @pytest.mark.parametrize(
        "name", ["", "a b", "\x1c", "\x85", " ", "a#b", "s0", "\u00e9", 7, None]
    )
    def test_matches_reference_on_edge_cases(self, name):
        assert _bad_name(name) == _bad_name_reference(name)

    @given(st.text())
    def test_matches_reference_on_any_text(self, name):
        assert _bad_name(name) == _bad_name_reference(name)


class TestTables:
    """`_step` and `_obs` hold exactly the declared entries over the defaults."""

    def systems(self):
        yield from (nc.fixture(name) for name in nc.FIXTURE_NAMES)
        yield nc.augment_final(nc.fixture("fig8"))
        yield from (nc.gen_random_system(p) for p in corpus_params(20, seed=61))
        yield nc.System(
            nc.Policy(("A", "B"), (("A", "B"),)),
            ("s0", "s1"), "s0", {"a": "A", "b": "B"},
            {("s0", "a"): "s0", ("s0", "b"): "s1", ("s1", "b"): "s1"},
            {("s0", "A"): nc.NULL_OBS, ("s1", "B"): "x", ("s1", "A"): nc.NULL_OBS},
        )

    def test_tables_match_declarations(self):
        for system in self.systems():
            assert all(type(row) is tuple for row in system._step)
            for si, s in enumerate(system.states):
                for ai, a in enumerate(system.actions):
                    t = system.transitions.get((s, a), s)
                    assert system._step[si][ai] == system._sidx[t]
                for di, d in enumerate(system.policy.domains):
                    token = system.observations.get((s, d), nc.NULL_OBS)
                    assert system._obs[si][di] == token


class TestFromFunctions:
    def test_matches_explicit_construction(self, fig8):
        rebuilt = nc.System.from_functions(
            fig8.policy,
            fig8.action_domain,
            "t0",
            lambda s, a: nc.run(fig8, s, (a,)),
            lambda s, d: fig8.obs(s, d),
        )
        assert rebuilt == fig8

    def test_duplicate_names_rejected(self):
        with pytest.raises(nc.InputError):
            nc.System.from_functions(
                nc.Policy(("A",)), {"a": "A"}, 0,
                lambda s, a: 1 - s, lambda s, d: "x", name_fn=lambda s: "same",
            )

    def test_state_budget_enforced(self, monkeypatch):
        monkeypatch.setattr(nc.system, "MAX_STATES", 1)
        with pytest.raises(nc.InputError) as err:
            nc.System.from_functions(
                nc.Policy(("A",)), {"a": "A"}, 0,
                lambda s, a: 1 - s, lambda s, d: "x",
            )
        assert str(err.value) == "state space exceeds 1 states"

import ast
import inspect
import random
from collections.abc import Mapping
from types import ModuleType

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


class TestEqualityHashAndRepr:
    @pytest.mark.parametrize("name", nc.FIXTURE_NAMES)
    def test_a_round_trip_is_equal_and_hashes_equal(self, name):
        s = nc.fixture(name)
        back = nc.parse_system(nc.serialize_system(s))
        assert back == s and hash(back) == hash(s)
        assert back.policy == s.policy and hash(back.policy) == hash(s.policy)

    def test_another_type_is_never_equal(self, fig5):
        assert fig5 != "fig5"
        assert fig5.policy != 5
        assert fig5.__eq__("fig5") is NotImplemented
        assert fig5.policy.__eq__(5) is NotImplemented

    def test_reprs(self, fig5):
        assert repr(fig5) == "<System |S|=3 |A|=3 |D|=3>"
        assert repr(fig5.policy) == (
            "Policy(['H', 'D', 'L'], "
            "[('D', 'D'), ('D', 'L'), ('H', 'D'), ('H', 'H'), ('L', 'L')])")


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

    @staticmethod
    def policies():
        """Every policy on 1-3 domains (69), then 100 random ones on 1-4."""
        for n in range(1, 4):
            doms = [f"d{k}" for k in range(n)]
            pairs = [(u, v) for u in doms for v in doms if u != v]
            for mask in range(1 << len(pairs)):
                yield nc.Policy(doms, [e for i, e in enumerate(pairs) if mask >> i & 1])
        rng = random.Random(11)
        for i in range(100):
            doms = [f"d{k}" for k in range(rng.randint(1, 4))]
            yield nc.Policy(doms, [(u, v) for u in doms for v in doms if rng.random() < 0.5])

    def test_matches_triple_enumeration(self):
        policies = list(self.policies())
        assert len(policies) == 169
        for p in policies:
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
        # The BFS that `system._bfs` replaced: a set per layer,
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
            assert s._reach == self._set_bfs(s)

    def test_each_construction_path_stores_the_tree(self, fig8):
        # A System just built, by any of the three paths, holds its BFS
        # order and parents before any decider or walk has run.
        built = nc.System(fig8.policy, fig8.states, fig8.initial,
                          fig8.action_domain, fig8.transitions, fig8.observations)
        parsed = nc.parse_system(nc.serialize_system(fig8))
        explored = nc.System.from_functions(
            fig8.policy, fig8.action_domain, fig8.initial,
            lambda s, a: nc.run(fig8, s, (a,)), lambda s, d: fig8.obs(s, d))
        island = nc.System(nc.Policy(("A",)), ("s0", "island"), "s0", {"a": "A"},
                           {("island", "a"): "s0"})
        for s in (built, parsed, explored, island):
            assert s._reach == self._set_bfs(s)
            assert [q for q, p in enumerate(s._parent) if p >= 0] == sorted(s._reach)

    def test_only_store_assigns_attributes(self):
        # A System is fixed once `_store` returns: no other method of the
        # class assigns, deletes or `setattr`s an attribute of `self`.
        tree = ast.parse(inspect.getsource(nc.System))
        found = []
        for method in ast.walk(tree):
            if not isinstance(method, ast.FunctionDef) or method.name == "_store":
                continue
            for node in ast.walk(method):
                if isinstance(node, (ast.Assign, ast.Delete)):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                      and node.func.id in ("setattr", "delattr")):
                    targets = [ast.Attribute(node.args[0], "?")]
                else:
                    continue
                for target in targets:
                    for leaf in ast.walk(target):
                        if (isinstance(leaf, ast.Attribute)
                                and isinstance(leaf.value, ast.Name)
                                and leaf.value.id == "self"):
                            found.append((method.name, leaf.attr))
        assert found == []
        assert "_store" in {f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)}

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
    def test_wellformed_fixture_is_ok(self):
        systems = [nc.fixture(name) for name in nc.FIXTURE_NAMES]
        systems.append(nc.augment_final(nc.fixture("fig8")))
        systems.append(nc.parse_system(nc.serialize_system(nc.fixture("fig6"))))
        for system in systems:
            system.require_valid()
            assert nc.System(system.policy, system.states, system.initial,
                             system.action_domain, system.transitions,
                             system.observations) == system

    @pytest.mark.parametrize("view, key, value", [
        ("transitions", ("s0", "h"), "s2"),
        ("observations", ("s0", "L"), "9"),
        ("action_domain", "h", "L"),
    ])
    @pytest.mark.parametrize("make", [
        lambda: nc.fixture("fig5"),
        lambda: nc.parse_system(nc.serialize_system(nc.fixture("fig5"))),
    ], ids=["constructed", "parsed"])
    def test_views_are_read_only(self, make, view, key, value):
        system = make()
        assert view not in vars(system)
        before = getattr(system, view)
        getattr(system, view)[key] = value
        assert getattr(system, view) == before
        assert system == nc.fixture("fig5")
        assert nc.run(system, "s0", ["h"]) == "s1"
        assert system.obs("s0", "L") == "0"
        with pytest.raises(AttributeError):
            setattr(system, view, {})

    def test_action_with_undeclared_domain(self):
        assert _rejected(actions={"a": "X"}) == ["action a: unknown domain 'X'"]
        # Each action's domain is checked once, however often it is named.
        assert _rejected(actions=_Repeated({"a": "X"})) == [
            "duplicate action declaration", "action a: unknown domain 'X'"]

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

    def test_policy_lists_every_problem(self):
        with pytest.raises(nc.InputError) as err:
            nc.Policy(("A", "A", "B C"), [("A", "Z"), ("A",)])
        assert list(err.value.diagnostics) == [
            "bad domain name 'B C'",
            "duplicate domain declaration",
            "interference edge (A, Z) names an undeclared domain",
            "interference edge ('A',): not a (domain, domain) pair",
        ]
        assert str(err.value) == "bad domain name 'B C'"

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
    """`_step`, `_obs` and `_dom` hold exactly what each System was built
    from, over the defaults: the mappings passed to `System(...)`, or the
    lines of a parsed text.  A System built from tables it numbered itself
    (`from_functions`, `gen_random_system`) is held to what its views
    declare, which the constructor must rebuild into the same System."""

    @staticmethod
    def constructed():
        yield from (nc.fixture(name) for name in nc.FIXTURE_NAMES)
        yield nc.augment_final(nc.fixture("fig8"))
        yield from (nc.gen_random_system(p) for p in corpus_params(20, seed=61))
        yield nc.System(
            nc.Policy(("A", "B"), (("A", "B"),)),
            ("s0", "s1"), "s0", {"a": "A", "b": "B"},
            {("s0", "a"): "s0", ("s0", "b"): "s1", ("s1", "b"): "s1"},
            {("s0", "A"): nc.NULL_OBS, ("s1", "B"): "x", ("s1", "A"): nc.NULL_OBS},
        )

    @staticmethod
    def texts():
        # The parser builds its tables itself, row by row as states are
        # declared, widening them for an action or domain declared later.
        yield from (nc.serialize_system(nc.fixture(name)) for name in nc.FIXTURE_NAMES)
        yield ("domain H\nstate s0 init\nstate s1\naction h H\nobs s1 H x\n"
               "domain L\nobs s0 L y\ntrans s0 h s1\nstate s2\naction l L\n"
               "trans s1 l s2\ntrans s2 h s0\ninterferes H L\n"
               "trans s2 l s2\nobs s2 H _\n")

    @staticmethod
    def declared(text):
        """The states, actions, transitions and observations that the lines
        of a system file declare."""
        states, actions, trans, obs = [], {}, {}, {}
        for kind, *args in filter(None, map(str.split, text.splitlines())):
            if kind == "state":
                states.append(args[0])
            elif kind == "action":
                actions[args[0]] = args[1]
            elif kind == "trans":
                trans[args[0], args[1]] = args[2]
            elif kind == "obs":
                obs[args[0], args[1]] = args[2]
        return states, actions, trans, obs

    @staticmethod
    def check(system, states, actions, trans, obs):
        assert system.states == tuple(states)
        assert system.actions == tuple(actions)
        assert all(type(row) is tuple for row in system._step)
        policy = system.policy
        domains = policy.domains
        assert system._may == [[policy.interferes(u, v) for v in domains] for u in domains]
        for ai, a in enumerate(system.actions):
            assert domains[system._dom[ai]] == actions[a]
        for si, s in enumerate(system.states):
            for ai, a in enumerate(system.actions):
                assert system.states[system._step[si][ai]] == trans.get((s, a), s)
            for di, d in enumerate(domains):
                assert system._obs[si][di] == obs.get((s, d), nc.NULL_OBS)
        # The views leave out the defaults, even ones declared explicitly.
        assert system.transitions == {k: t for k, t in trans.items() if t != k[0]}
        assert system.observations == {k: o for k, o in obs.items() if o != nc.NULL_OBS}
        assert system.action_domain == dict(actions)
        # In table order: states, then actions or domains.
        moves, tokens = system.transitions, system.observations
        assert list(moves) == [(s, a) for s in system.states
                               for a in system.actions if (s, a) in moves]
        assert list(tokens) == [(s, d) for s in system.states
                                for d in domains if (s, d) in tokens]
        assert list(system.action_domain) == list(system.actions)

    def test_tables_match_declarations(self, monkeypatch):
        built = []
        init = nc.System.__init__

        def recording_init(system, policy, states, initial, actions,
                           transitions=None, observations=None):
            states = list(states)
            init(system, policy, states, initial, actions, transitions, observations)
            built.append((system, states, dict(actions), dict(transitions or {}),
                          dict(observations or {})))

        monkeypatch.setattr(nc.System, "__init__", recording_init)
        systems = list(self.constructed())
        monkeypatch.undo()
        for system, *declarations in built:
            self.check(system, *declarations)
        # Every System is kept alive by `built` or `systems`, so no two
        # share an id.
        recorded = {id(entry[0]) for entry in built}
        for system in systems:
            if id(system) not in recorded:
                declarations = (system.states, system.action_domain,
                                system.transitions, system.observations)
                assert nc.System(system.policy, system.states, system.initial,
                                 *declarations[1:]) == system
                self.check(system, *declarations)
        for text in self.texts():
            self.check(nc.parse_system(text), *self.declared(text))

    def test_numbering_paths_skip_the_constructor(self, fig8, monkeypatch):
        # Paths that number their own states hand finished tables to
        # `_from_tables`; only names given as names go through `__init__`.
        def refuse(*args, **kwargs):
            raise AssertionError("System.__init__ called")

        monkeypatch.setattr(nc.System, "__init__", refuse)
        systems = [nc.fixture("pcp_demo"), nc.fixture("fig6"), nc.augment_final(fig8),
                   nc.gen_random_system(nc.GenParams(40, 3, 3, 3, 0.4, 5))]
        monkeypatch.undo()
        for system in systems:
            assert nc.parse_system(nc.serialize_system(system)) == system

    def test_every_path_stores_the_same_attributes(self, fig8):
        parsed = nc.parse_system(nc.serialize_system(fig8))
        rebuilt = nc.System.from_functions(
            fig8.policy, fig8.action_domain, "t0",
            lambda s, a: nc.run(fig8, s, (a,)), lambda s, d: fig8.obs(s, d))
        assert parsed == rebuilt == fig8
        assert vars(parsed).keys() == vars(rebuilt).keys() == vars(fig8).keys()
        # Systems over one Policy share its interference matrix.
        assert rebuilt._may is fig8._may is fig8.policy._may
        assert parsed._may is parsed.policy._may


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

    # The exact message and diagnostics of each fault in the actions, the
    # state names or the tokens; the unhashable-name case is tested below.
    @pytest.mark.parametrize("actions, name_fn, obs_fn, message, diagnostics", [
        ({"a": "A"}, lambda s: f"s {s}", lambda s, d: "x",
         "invalid system: bad state name 's 0'",
         ("bad state name 's 0'", "bad state name 's 1'")),
        ({"a": "A"}, lambda s: s, lambda s, d: "x",
         "invalid system: bad state name 0", ("bad state name 0", "bad state name 1")),
        ({"a": "A"}, str, lambda s, d: "two words",
         "invalid system: observation for (0, A): bad token 'two words'",
         ("observation for (0, A): bad token 'two words'",
          "observation for (1, A): bad token 'two words'")),
        ({"a": "A"}, str, lambda s, d: ["x"],
         "invalid system: observation for (0, A): bad token ['x']",
         ("observation for (0, A): bad token ['x']",
          "observation for (1, A): bad token ['x']")),
        ({"a b": "A"}, str, lambda s, d: "x",
         "invalid system: bad action name 'a b'", ("bad action name 'a b'",)),
        ({"a": "A"}, lambda s: "same", lambda s, d: "x",
         "state naming function produced duplicate names",
         ("state naming function produced duplicate names",)),
    ], ids=["spaced-name", "int-name", "two-word-token", "list-token", "action-name",
            "duplicate-names"])
    def test_diagnostics(self, actions, name_fn, obs_fn, message, diagnostics):
        with pytest.raises(nc.InputError) as err:
            nc.System.from_functions(nc.Policy(("A",)), actions, 0,
                                     lambda s, a: 1 - s, obs_fn, name_fn=name_fn)
        assert str(err.value) == message
        assert err.value.diagnostics == diagnostics

    def test_unhashable_state_name_is_an_input_error(self):
        with pytest.raises(nc.InputError) as err:
            nc.System.from_functions(
                nc.Policy(("A",)), {"a": "A"}, 0,
                lambda s, a: 1 - s, lambda s, d: "x", name_fn=lambda s: [s],
            )
        assert "bad state name [0]" in err.value.diagnostics

    def test_unhashable_step_value_is_an_input_error(self):
        with pytest.raises(nc.InputError) as err:
            nc.System.from_functions(
                nc.Policy(("A",)), {"a": "A"}, 0,
                lambda s, a: [s], lambda s, d: "x",
            )
        assert str(err.value) == "step_fn(0, 'a') gave [0], which is not hashable"

    def test_state_budget_enforced(self, monkeypatch):
        monkeypatch.setattr(nc.system, "MAX_STATES", 1)
        with pytest.raises(nc.InputError) as err:
            nc.System.from_functions(
                nc.Policy(("A",)), {"a": "A"}, 0,
                lambda s, a: 1 - s, lambda s, d: "x",
            )
        assert str(err.value) == "state space exceeds 1 states"

    @pytest.mark.parametrize("policy, actions, initial, message", [
        (("A",), {"a": "A"}, 0, "policy must be a Policy, got ('A',)"),
        (None, 5, 0, "actions must be a mapping, got 5"),
        (None, ["a"], 0, "actions must be a mapping, got ['a']"),
        (None, {"a": "A"}, [0], "initial state [0] is not hashable"),
        (None, {"a": "Z"}, 0, "invalid system: action a: unknown domain 'Z'"),
        (None, {"a#": "A"}, 0, "invalid system: bad action name 'a#'"),
    ], ids=["policy", "int-actions", "list-actions", "unhashable-initial",
            "unknown-domain", "bad-action-name"])
    def test_arguments_checked_before_exploring(self, policy, actions, initial, message):
        def step(s, a):
            raise AssertionError("explored before the arguments were checked")

        with pytest.raises(nc.InputError) as err:
            nc.System.from_functions(policy or nc.Policy(("A",)), actions, initial,
                                     step, lambda s, d: "x")
        assert str(err.value) == message


# Every public argument that takes a sequence of names, and a call that passes
# `bad` there on fig5.  A str is one name, never a sequence of names, so it is
# refused like any other value that is not a sequence.
_SEQUENCE_ARGUMENTS = {
    "Policy.domains": ("domains", lambda f, bad: nc.Policy(bad)),
    "Policy.edges": ("edges", lambda f, bad: nc.Policy(("A", "B"), bad)),
    "System.states": ("states", lambda f, bad: nc.System(nc.Policy(("A",)), bad, "s",
                                                         {"a": "A"})),
    "policy_image": ("sources", lambda f, bad: nc.policy_image(f.policy, bad)),
    "run": ("alpha", lambda f, bad: nc.run(f, "s0", bad)),
    "purge": ("alpha", lambda f, bad: nc.purge(f, "L", bad)),
    "ipurge": ("alpha", lambda f, bad: nc.ipurge(f, "L", bad)),
    "sources": ("alpha", lambda f, bad: nc.sources(f, bad, "L")),
    "view": ("alpha", lambda f, bad: nc.view(f, "L", bad)),
    "tview": ("alpha", lambda f, bad: nc.tview(f, "L", bad)),
    "lpre": ("alpha", lambda f, bad: nc.lpre(f, "L", bad)),
    "ftview": ("alpha", lambda f, bad: nc.ftview(f, "L", bad)),
    "ta": ("alpha", lambda f, bad: nc.ta(f, "L", bad)),
    "to": ("alpha", lambda f, bad: nc.to(f, "L", bad)),
    "ito": ("alpha", lambda f, bad: nc.ito(f, "L", bad)),
    "swappable": ("alpha", lambda f, bad: nc.swappable(f, "L", bad, 0)),
    "trace_key": ("alpha", lambda f, bad: nc.trace_key(f, "p", "L", bad)),
    "check_witness_pair.alpha": ("alpha", lambda f, bad: nc.check_witness_pair(
        f, "p", "L", bad, ())),
    "check_witness_pair.beta": ("beta", lambda f, bad: nc.check_witness_pair(
        f, "p", "L", (), bad)),
    "convertback": ("alpha", lambda f, bad: nc.convertback(f, bad)),
}


@pytest.mark.parametrize("bad, shape", [("hdl", "a sequence, not the str 'hdl'"),
                                        (5, "iterable, got 5")], ids=["str", "int"])
@pytest.mark.parametrize("entry", list(_SEQUENCE_ARGUMENTS))
def test_sequence_argument_refuses_str_and_int(fig5, entry, bad, shape):
    argument, call = _SEQUENCE_ARGUMENTS[entry]
    with pytest.raises(nc.InputError, match=rf"^{argument} must be {shape}$"):
        call(fig5, bad)


# Every argument whose order numbers its names or is read in order: a set's
# order follows the string hash, which changes with PYTHONHASHSEED, so a set
# there is refused.  Interference edges and policy_image's sources are
# unordered and keep accepting one.
_ORDERED_ARGUMENTS = {
    **{entry: _SEQUENCE_ARGUMENTS[entry] for entry in _SEQUENCE_ARGUMENTS
       if entry not in ("Policy.edges", "policy_image")},
    "PcpInstance.tops": ("tops", lambda f, bad: nc.PcpInstance("ab", bad, ("a", "b"))),
    "PcpInstance.bottoms": ("bottoms", lambda f, bad: nc.PcpInstance("ab", ("a", "b"), bad)),
    "pcp_witness": ("solution", lambda f, bad: nc.pcp_witness(nc.DEMO_INSTANCE, bad)),
}


@pytest.mark.parametrize("kind", [set, frozenset], ids=["set", "frozenset"])
@pytest.mark.parametrize("entry", list(_ORDERED_ARGUMENTS))
def test_ordered_argument_refuses_a_set(fig5, entry, kind):
    argument, call = _ORDERED_ARGUMENTS[entry]
    # The message names the type, never the hash-ordered repr.
    with pytest.raises(nc.InputError, match=rf"^{argument} must be a sequence, not a "
                                            rf"{kind.__name__}$"):
        call(fig5, kind(("b", "a")))


def test_unordered_arguments_accept_a_set_and_ordered_ones_a_dict_view(fig5):
    assert nc.Policy(("A", "B"), {("A", "B")}) == nc.Policy(("A", "B"), (("A", "B"),))
    assert (nc.policy_image(fig5.policy, frozenset({"H"}))
            == nc.policy_image(fig5.policy, ("H",)) == {"H", "D"})
    assert nc.Policy({"B": 0, "A": 1}.keys()).domains == ("B", "A")


def test_star_import_binds_no_module():
    namespace: dict = {}
    exec("from nicheck import *", namespace)
    del namespace["__builtins__"]
    assert not [name for name, value in namespace.items() if isinstance(value, ModuleType)]
    assert set(namespace) == {
        "ACT", "BoundedVerdict", "BudgetError", "DEMO_INSTANCE", "DEMO_SOLUTION",
        "EPSILON", "FIXTURE_CLASSIFICATION", "FIXTURE_NAMES", "GenParams", "InfoTree",
        "InputError", "NOTIONS", "NULL_OBS", "OBS", "PcpInstance", "Policy", "SECURE",
        "System", "TraceProfile", "Verdict", "augment_final", "bounded_check",
        "build_pcp_system", "check_witness_pair", "convertback", "decide_ip",
        "decide_p", "decide_ta", "exact_pair_check_ip", "exact_pair_check_p",
        "fixture", "ftview", "gen_random_system", "ipurge", "is_transitive", "ito",
        "lpre", "parse_system", "pcp_witness", "policy_image", "purge",
        "reachable_states", "run", "serialize_system", "sources", "swappable", "ta",
        "to", "trace_key", "tview", "view",
    }

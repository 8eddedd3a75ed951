import random

import pytest

import nicheck as nc
from nicheck.semantics import ACT, OBS, TraceProfile
from conftest import corpus_params, random_trace


def O(token):
    return (OBS, token)


def A(name):
    return (ACT, name)


class TestPurge:
    def test_fig5_purge_low(self, fig5):
        assert nc.purge(fig5, "L", ("h", "d", "l")) == ("d", "l")
        assert nc.purge(fig5, "L", ("d", "l")) == ("d", "l")

    def test_empty_trace(self, fig5):
        assert nc.purge(fig5, "L", ()) == ()

    def test_identity_when_everything_interferes(self, fig5):
        assert nc.purge(fig5, "D", ("h", "d", "h")) == ("h", "d", "h")

    def test_unknown_domain(self, fig5):
        with pytest.raises(nc.InputError):
            nc.purge(fig5, "X", ("h",))

    def test_order_preserving_subsequence_and_idempotent(self):
        rng = random.Random(3)
        for params in corpus_params(60, seed=3):
            s = nc.gen_random_system(params)
            u = rng.choice(s.policy.domains)
            alpha = random_trace(rng, s)
            p = nc.purge(s, u, alpha)
            assert nc.purge(s, u, p) == p
            it = iter(alpha)
            assert all(a in it for a in p)  # subsequence, order kept


class TestSources:
    def test_empty_trace_is_self(self, fig5):
        assert nc.sources(fig5, (), "L") == frozenset({"L"})

    def test_chain_through_downgrader(self, fig5):
        assert nc.sources(fig5, ("h", "d", "l"), "L") == frozenset({"H", "D", "L"})

    def test_no_bridge_without_downgrade(self, fig5):
        assert nc.sources(fig5, ("h", "l"), "L") == frozenset({"L"})


class TestIpurge:
    def test_high_kept_when_downgraded_later(self, fig5):
        assert nc.ipurge(fig5, "L", ("h", "d", "l")) == ("h", "d", "l")

    def test_high_dropped_without_downgrade(self, fig5):
        assert nc.ipurge(fig5, "L", ("h", "l")) == ("l",)

    def test_empty_trace(self, fig5):
        assert nc.ipurge(fig5, "L", ()) == ()

    def test_idempotent_and_order_preserving(self):
        rng = random.Random(7)
        for params in corpus_params(80, seed=7):
            s = nc.gen_random_system(params)
            u = rng.choice(s.policy.domains)
            alpha = random_trace(rng, s)
            once = nc.ipurge(s, u, alpha)
            assert nc.ipurge(s, u, once) == once
            it = iter(alpha)
            assert all(a in it for a in once)

    def test_equals_purge_on_transitive_policies(self):
        rng = random.Random(13)
        checked = 0
        for params in corpus_params(120, seed=13):
            s = nc.gen_random_system(params)
            if not nc.is_transitive(s.policy):
                continue
            checked += 1
            u = rng.choice(s.policy.domains)
            alpha = random_trace(rng, s)
            assert nc.ipurge(s, u, alpha) == nc.purge(s, u, alpha)
        assert checked >= 20


class TestView:
    def test_empty_trace_is_initial_observation(self, fig5):
        assert nc.view(fig5, "L", ()) == (O("0"),)

    def test_fig5_low_view(self, fig5):
        assert nc.view(fig5, "L", ("h", "d", "l")) == (O("0"), O("1"), A("l"), O("1"))

    def test_constant_observation_fully_absorbed(self, fig7):
        # D never acts in this trace and observes a constant, so the whole
        # run collapses to the initial observation.
        assert nc.view(fig7, "D", ("h", "l", "h")) == (O("0"),)

    def test_starts_with_observation_and_stutter_free(self):
        rng = random.Random(19)
        for params in corpus_params(80, seed=19):
            s = nc.gen_random_system(params)
            u = rng.choice(s.policy.domains)
            v = nc.view(s, u, random_trace(rng, s))
            assert v[0][0] == OBS
            for left, right in zip(v, v[1:]):
                assert not (left[0] == OBS and left == right)


class TestActionTerminatedViews:
    def test_lpre_empty_when_domain_never_acts(self, fig5):
        assert nc.lpre(fig5, "D", ("h", "l", "h")) == ()
        assert nc.tview(fig5, "D", ("h", "l", "h")) == ()
        assert nc.ftview(fig5, "D", ("h", "l", "h")) == (O("0"),)

    def test_lpre_cuts_after_last_own_action(self, fig5):
        assert nc.lpre(fig5, "D", ("h", "d", "l")) == ("h", "d")

    def test_fig5_transmitted_view_of_downgrader(self, fig5):
        assert nc.tview(fig5, "D", ("h", "d")) == (O("0"), O("1"), A("d"))

    def test_ftview_of_empty_trace(self, fig5):
        assert nc.ftview(fig5, "D", ()) == (O("0"),)

    def test_ftview_includes_post_action_observation(self, fig8):
        # The downgrader only sees the bit after its own action.
        assert nc.ftview(fig8, "D", ("h", "d")) == (O("0"), A("d"), O("1"))
        assert nc.ftview(fig8, "D", ("d",)) == (O("0"), A("d"), O("0"))

    def test_tview_is_view_cut_at_last_own_action(self):
        # The definition, read off `view`.
        rng = random.Random(28)
        for params in corpus_params(80, seed=28):
            s = nc.gen_random_system(params)
            for u in s.policy.domains:
                alpha = random_trace(rng, s)
                v = nc.view(s, u, alpha)
                acts = [i for i, elem in enumerate(v) if elem[0] == ACT]
                assert nc.tview(s, u, alpha) == (v[: acts[-1] + 1] if acts else ())


class TestInfoTrees:
    def test_ta_of_empty_trace_is_epsilon_leaf(self, fig5):
        t = nc.ta(fig5, "L", ())
        assert t.is_leaf and t.payload == nc.EPSILON

    def test_ta_structure_after_downgraded_secret(self, fig5):
        t = nc.ta(fig5, "L", ("h", "d"))
        assert t.action == "d"
        assert t.left.is_leaf and t.left.payload == nc.EPSILON
        assert t.mid.action == "h"
        assert t.mid.left.payload == nc.EPSILON and t.mid.mid.payload == nc.EPSILON

    def test_repr_spells_leaves_and_nodes(self, fig5):
        assert repr(nc.ta(fig5, "L", ())) == "Leaf(('eps',))"
        assert repr(nc.ta(fig5, "L", ("h", "d"))) == (
            "Node(Leaf(('eps',)), Node(Leaf(('eps',)), Leaf(('eps',)), h), d)")
        assert repr(nc.to(fig5, "L", ("d",))) == (
            "Node(Leaf(('o', '0')), Leaf(('v', (('o', '0'),))), d)")

    def test_ta_blind_to_noninterfering_actions(self, fig5):
        assert nc.ta(fig5, "L", ("h", "h", "h")) is nc.ta(fig5, "L", ())

    def test_consing_makes_equality_identity(self, fig5):
        assert nc.ta(fig5, "L", ("h", "d")) is nc.ta(fig5, "L", ("h", "d"))
        assert nc.to(fig5, "L", ("d", "l")) is nc.to(fig5, "L", ("d", "l"))

    def test_to_of_empty_trace_is_initial_observation_leaf(self, fig5):
        t = nc.to(fig5, "L", ())
        assert t.is_leaf and t.payload == (OBS, "0")

    def test_fig8_to_equal_but_ito_differs(self, fig8):
        # The downgrader's pre-action views agree, its post-action
        # observations do not.
        assert nc.to(fig8, "L", ("h", "d")) is nc.to(fig8, "L", ("d",))
        assert nc.ito(fig8, "L", ("h", "d")) is not nc.ito(fig8, "L", ("d",))

    def test_tree_table_keeps_only_held_trees(self):
        # The system's table holds its trees weakly: rounds of tree keys
        # whose results are dropped leave only the trees still held.
        s = nc.fixture("pcp_demo")
        kept = nc.ta(s, "watcher", s.actions)
        held = len(s._trees)
        assert held > 1
        rng = random.Random(28)
        for _ in range(500):
            alpha = tuple(rng.choice(s.actions) for _ in range(12))
            u = rng.choice(s.policy.domains)
            for notion in ("ta", "to", "ito"):
                nc.trace_key(s, notion, u, alpha)
            nc.to(s, u, alpha)
            nc.ito(s, u, alpha)
        assert len(s._trees) == held
        assert nc.ta(s, "watcher", s.actions) is kept
        del kept
        assert len(s._trees) == 0

    def test_ito_actor_sends_its_view_before_the_action(self, fig8):
        # At its own action the downgrader transmits its view before `d`;
        # the observer L receives its view after `d`, the fresh bit included.
        assert nc.ito(fig8, "D", ("h", "d")).mid.payload == ("v", (O("0"),))
        assert nc.ito(fig8, "L", ("h", "d")).mid.payload == ("v", (O("0"), A("d"), O("1")))


class TestSwappable:
    def test_independent_domains_swappable(self):
        p = nc.Policy(("A", "B", "C"))
        s = nc.System(p, ("s0",), "s0", {"a": "A", "b": "B"})
        assert nc.swappable(s, "C", ("a", "b"), 0)

    def test_same_domain_never_swappable(self):
        p = nc.Policy(("A", "B"))
        s = nc.System(p, ("s0",), "s0", {"a1": "A", "a2": "A"})
        assert not nc.swappable(s, "B", ("a1", "a2"), 0)

    def test_fig6_highs_swappable_for_low(self, fig6):
        assert nc.swappable(fig6, "L", ("h1", "h2"), 0)

    def test_position_out_of_range(self, fig5):
        with pytest.raises(nc.InputError):
            nc.swappable(fig5, "L", ("h", "d"), 1)

    @pytest.mark.parametrize("position", [True, "0", 1.0])
    def test_position_must_be_an_int(self, fig5, position):
        # True would otherwise read as position 1.
        with pytest.raises(nc.InputError) as err:
            nc.swappable(fig5, "L", ("h", "d", "l"), position)
        assert str(err.value) == f"position must be an int, got {position!r}"

    def test_swap_preserves_ta(self):
        rng = random.Random(29)
        positives = 0
        for params in corpus_params(400, seed=29):
            s = nc.gen_random_system(params)
            u = rng.choice(s.policy.domains)
            alpha = random_trace(rng, s, max_len=7)
            for i in range(len(alpha) - 1):
                if nc.swappable(s, u, alpha, i):
                    positives += 1
                    beta = alpha[:i] + (alpha[i + 1], alpha[i]) + alpha[i + 2:]
                    assert nc.ta(s, u, alpha) is nc.ta(s, u, beta)
        assert positives >= 50

    def test_deletion_variants_with_equal_ipurge_share_ta(self):
        # Dropping actions at random: whenever the intransitive purge is
        # unchanged, the information tree must be too.
        rng = random.Random(37)
        hits = 0
        for params in corpus_params(300, seed=37):
            s = nc.gen_random_system(params)
            u = rng.choice(s.policy.domains)
            alpha = random_trace(rng, s, max_len=7)
            if not alpha:
                continue
            beta = tuple(a for a in alpha if rng.random() < 0.7)
            if nc.ipurge(s, u, alpha) == nc.ipurge(s, u, beta):
                hits += 1
                assert nc.ta(s, u, alpha) is nc.ta(s, u, beta)
        assert hits >= 40


class TestTraceProfile:
    def test_agrees_with_definitional_functions(self):
        # Within one intern table, two ids of a component are equal exactly
        # when its definitional values are: all the bounded scan asks of its
        # keys.  A set compares InfoTrees by `is`.  Under `to`/`ito` the view
        # and tree nodes share one table, so they are also shown not to mix.
        defined = {"p": nc.purge, "ip": nc.ipurge, "ta": nc.ta, "to": nc.to, "ito": nc.ito}
        for params in corpus_params(60, seed=41):
            s = nc.gen_random_system(params)
            for notion in nc.NOTIONS:
                level = [TraceProfile.start(s, notion)]
                profiles = list(level)
                for _ in range(4):
                    level = [c for prof in level for c in prof.children()]
                    profiles += level
                for prof in profiles:
                    assert prof.state == s.state_index(nc.run(s, s.initial, prof.trace))
                components = [("keys", defined[notion])]
                if notion in ("to", "ito"):
                    components.append(("views", nc.view))
                for i, d in enumerate(s.policy.domains):
                    for ids, function in components:
                        pairs = {(getattr(prof, ids)[i], function(s, d, prof.trace))
                                 for prof in profiles}
                        assert len(pairs) == len({k for k, _ in pairs}) == \
                            len({v for _, v in pairs}), (params, notion, d, ids)

    def test_children_are_the_one_action_extensions(self):
        # A profile's children are its one-action extensions in action index
        # order: each holds the trace and the state that action leads to and
        # shares the parent's table, and their keys part the traces as the
        # definitional functions do.
        defined = {"p": nc.purge, "ip": nc.ipurge, "ta": nc.ta, "to": nc.to, "ito": nc.ito}
        for name in nc.FIXTURE_NAMES:
            s = nc.fixture(name)
            for notion in nc.NOTIONS:
                level = [TraceProfile.start(s, notion)]
                profiles = list(level)
                for _ in range(3):
                    grown = []
                    for parent in level:
                        children = parent.children()
                        assert len(children) == len(s.actions), (name, notion)
                        for ai, (a, child) in enumerate(zip(s.actions, children)):
                            assert child.trace == parent.trace + (a,), (name, notion)
                            assert child.state == s._step[parent.state][ai], (name, notion)
                            assert child.table is parent.table, (name, notion)
                        grown += children
                    level = grown
                    profiles += level
                for i, d in enumerate(s.policy.domains):
                    pairs = {(prof.keys[i], defined[notion](s, d, prof.trace))
                             for prof in profiles}
                    assert len(pairs) == len({k for k, _ in pairs}) == \
                        len({v for _, v in pairs}), (name, notion, d)

    def test_untracked_components_stay_none(self, fig5):
        # Views are tracked only where a notion transmits them.
        h = fig5.action_index("h")
        for notion in nc.NOTIONS:
            prof = TraceProfile.start(fig5, notion).children()[h]
            assert prof.keys is not None, notion
            assert (prof.views is None) == (notion in ("p", "ip", "ta")), notion

    def test_unknown_component_rejected(self, fig5):
        # A profile is bound to one of the five notions; the to/ito trees
        # are built by their definitional walk alone.
        for notion in ("nonsense", "to-tree", "ito-tree", ["ta"]):
            with pytest.raises(nc.InputError):
                TraceProfile.start(fig5, notion)

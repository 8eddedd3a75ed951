import random

import pytest

import nicheck as nc
from nicheck import verify
from nicheck.verify import _closure, _lr_single, _lr_swap
from conftest import corpus_params
import reference_closure
from reference_closure import UnionFind, WitnessStore, compute_witness


class TestUnionFind:
    def test_find_idempotent_and_union_semantics(self):
        uf = UnionFind(6)
        assert uf.union(0, 1)
        assert not uf.union(1, 0)
        assert uf.find(0) == uf.find(1)
        assert uf.find(2) != uf.find(0)
        assert uf.find(3) == uf.find(uf.find(3))

    def test_union_count_bounded_by_elements(self):
        rng = random.Random(1)
        for _ in range(50):
            n = rng.randint(1, 40)
            uf = UnionFind(n)
            for _ in range(200):
                uf.union(rng.randrange(n), rng.randrange(n))
            assert uf.unions <= n - 1

    def test_partition_is_smallest_equivalence_over_requested_pairs(self):
        rng = random.Random(2)
        for _ in range(30):
            n = rng.randint(2, 15)
            uf = UnionFind(n)
            pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(10)]
            for x, y in pairs:
                uf.union(x, y)
            # naive closure
            group = list(range(n))
            for x, y in pairs:
                gx, gy = group[x], group[y]
                if gx != gy:
                    group = [gx if g == gy else g for g in group]
            for x in range(n):
                for y in range(n):
                    assert (group[x] == group[y]) == (uf.find(x) == uf.find(y))


class TestWitnessStoreForest:
    def _store_for(self, system, u):
        ui = system.policy.index(u)
        reach = system._reachable_idx()
        invisible = [
            a for a in range(len(system.actions))
            if not system._may[system._dom[a]][ui]
        ]
        uf = UnionFind(len(system.states))
        store = WitnessStore()
        # replay the closure but keep going after violations to get a full store
        from collections import deque
        pending = deque()
        for cs, ct, root, x, y in _lr_single(system, reach, invisible):
            if uf.find(cs) != uf.find(ct):
                store.add((cs, ct), (root, root), (x, y))
                pending.append((cs, ct))
                uf.union(cs, ct)
        while pending:
            s, t = pending.popleft()
            for a in range(len(system.actions)):
                sa, ta = system._step[s][a], system._step[t][a]
                if uf.find(sa) != uf.find(ta):
                    name = (system.actions[a],)
                    store.add((sa, ta), (s, t), (name, name))
                    pending.append((sa, ta))
                    uf.union(sa, ta)
        return store

    def test_every_chain_ends_in_a_diagonal_root(self, fig5, fig6, pcp_demo):
        for system in (fig5, fig6, pcp_demo):
            for u in system.policy.domains:
                store = self._store_for(system, u)
                for pair in store.entries:
                    s, t = pair
                    assert s != t
                    hops = 0
                    while s != t:
                        (s, t), _, _ = store[(s, t)]
                        hops += 1
                        assert hops <= len(system.states) ** 2
                assert len(store) <= len(system.states)

    def test_store_partition_matches_union_find(self, fig5):
        # the merge forest generates exactly the computed equivalence
        for u in fig5.policy.domains:
            store = self._store_for(fig5, u)
            n = len(fig5.states)
            group = list(range(n))
            for (s, t) in store.entries:
                gs, gt = group[s], group[t]
                if gs != gt:
                    group = [gs if g == gt else g for g in group]
            uf = UnionFind(n)
            for (s, t) in store.entries:
                uf.union(s, t)
            for x in range(n):
                for y in range(n):
                    assert (group[x] == group[y]) == (uf.find(x) == uf.find(y))


class TestComputeWitness:
    def test_diagonal_base_case_returns_shortest_path_twice(self, fig5):
        store = WitnessStore()
        s2 = fig5.state_index("s2")
        alpha, beta = compute_witness(fig5, store, s2, s2)
        assert alpha == beta == ("h", "d")

    def test_single_seed_entry(self, fig5):
        store = WitnessStore()
        s0, s1 = fig5.state_index("s0"), fig5.state_index("s1")
        store.add((s1, s0), (s0, s0), (("h",), ()))
        assert compute_witness(fig5, store, s1, s0) == (("h",), ())

    def test_dangling_entry_is_an_internal_error(self, fig5):
        with pytest.raises(nc.InputError):
            compute_witness(fig5, WitnessStore(), 1, 2)


class TestDecideP:
    def test_fig5_insecure_with_purge_equal_witness(self, fig5):
        v = nc.decide_p(fig5)
        assert not v.secure and v.domain == "L"
        assert v.alpha == ("h", "d") and v.beta == ("d",)
        assert nc.purge(fig5, "L", v.alpha) == nc.purge(fig5, "L", v.beta)
        assert nc.check_witness_pair(fig5, "p", v.domain, v.alpha, v.beta)
        # witness pair differs only by inserted h actions
        assert tuple(a for a in v.alpha if a != "h") == v.beta

    def test_constant_observation_system_secure(self):
        s = nc.System(
            nc.Policy(("A", "B")), ("s0", "s1"), "s0",
            {"a": "A", "b": "B"}, {("s0", "a"): "s1", ("s1", "b"): "s0"},
        )
        assert nc.decide_p(s).secure

    def test_counting_machine_secure(self, counting_machine):
        assert nc.decide_p(counting_machine).secure
        assert not nc.bounded_check(counting_machine, "p", 6).insecure

    def test_rejects_invalid_system(self):
        with pytest.raises(nc.InputError) as err:
            nc.decide_p(nc.System(nc.Policy(("A",)), ("s0",), "s0", {"a": "X"}))
        assert list(err.value.diagnostics) == ["action a: unknown domain 'X'"]


class TestDecideIP:
    def test_fig6_secure(self, fig6):
        assert nc.decide_ip(fig6).secure

    def test_fig5_secure(self, fig5):
        assert nc.decide_ip(fig5).secure

    def test_direct_leak_insecure_with_minimal_witness(self, direct_leak):
        v = nc.decide_ip(direct_leak)
        assert not v.secure
        assert (v.domain, v.alpha, v.beta) == ("L", ("h",), ())
        assert nc.ipurge(direct_leak, "L", v.alpha) == nc.ipurge(direct_leak, "L", v.beta)
        assert nc.check_witness_pair(direct_leak, "ip", v.domain, v.alpha, v.beta)


class TestDecideTA:
    def test_fig6_insecure_with_tree_equal_witness(self, fig6):
        v = nc.decide_ta(fig6)
        assert not v.secure and v.domain == "L"
        assert nc.ta(fig6, "L", v.alpha) is nc.ta(fig6, "L", v.beta)
        assert nc.check_witness_pair(fig6, "ta", v.domain, v.alpha, v.beta)

    def test_fig5_and_fig8_secure(self, fig5, fig8):
        assert nc.decide_ta(fig5).secure
        assert nc.decide_ta(fig8).secure

    def test_single_domain_system_always_secure(self):
        rng = random.Random(43)
        for params in corpus_params(25, seed=43, max_domains=1):
            assert nc.decide_ta(nc.gen_random_system(params)).secure

    def test_phase_two_witness_is_one_swap(self, fig6):
        # On a system that passes the first phase, the reported runs differ
        # by exactly one adjacent swap, and that swap is a swappable one.
        v = nc.decide_ta(fig6)
        alpha, beta = v.alpha, v.beta
        assert len(alpha) == len(beta)
        k = next(i for i, (x, y) in enumerate(zip(alpha, beta)) if x != y)
        assert alpha[k] == beta[k + 1] and alpha[k + 1] == beta[k]
        assert alpha[k + 2:] == beta[k + 2:]
        assert nc.swappable(fig6, v.domain, alpha, k)


class TestValidateWitness:
    def test_corrupted_witness_rejected(self, fig5):
        good = nc.decide_p(fig5)
        bad = nc.Verdict(False, good.domain, good.alpha, good.beta + ("d",))
        assert not nc.check_witness_pair(fig5, "p", bad.domain, bad.alpha, bad.beta)


class TestAgreementSmoke:
    # the full 500-system cross-validation lives in the acceptance suite
    def test_deciders_against_pair_oracles(self):
        for params in corpus_params(60, seed=47):
            s = nc.gen_random_system(params)
            assert nc.decide_p(s).secure == nc.exact_pair_check_p(s).secure
            assert nc.decide_ip(s).secure == nc.exact_pair_check_ip(s).secure

    def test_hierarchy_and_transitive_collapse(self):
        for params in corpus_params(60, seed=53):
            s = nc.gen_random_system(params)
            p, ta, ip = nc.decide_p(s), nc.decide_ta(s), nc.decide_ip(s)
            if p.secure:
                assert ta.secure
            if ta.secure:
                assert ip.secure
            if nc.is_transitive(s.policy):
                assert p.secure == ta.secure == ip.secure


def _perturb(system, rng):
    """The system with one or two transition targets or observations changed."""
    trans, obs = dict(system.transitions), dict(system.observations)
    for _ in range(rng.randint(1, 2)):
        s = rng.choice(system.states)
        if rng.random() < 0.5:
            trans[s, rng.choice(system.actions)] = rng.choice(system.states)
        else:
            obs[s, rng.choice(system.policy.domains)] = rng.choice("012")
    return nc.System(system.policy, system.states, system.initial,
                     system.action_domain, trans, obs)


def _per_observer_ip(system):
    """decide_ip as one closure per (observer u, excluded domain v)."""
    reach = system._reachable_idx()
    may, dom = system._may, system._dom
    nd = len(system.policy.domains)
    for u in range(nd):
        for v in range(nd):
            if may[v][u]:
                continue
            sync = [a for a in range(len(system.actions)) if not may[v][dom[a]]]
            seeds = _lr_single(system, reach, system._domain_actions[v])
            hit = _closure(system, [u], seeds, sync)
            if hit is not None:
                return nc.Verdict(False, *hit)
    return nc.SECURE


def _per_observer_ta(system):
    """decide_ta as one swap closure per ordered (u, v, w)."""
    first = _per_observer_ip(system)
    if not first.secure:
        return first
    reach = system._reachable_idx()
    may, dom = system._may, system._dom
    nd = len(system.policy.domains)
    for u in range(nd):
        for v in range(nd):
            for w in range(nd):
                if may[w][v] or may[v][w] or may[w][u]:
                    continue
                sync = [a for a in range(len(system.actions))
                        if not may[v][dom[a]] or not may[w][dom[a]]]
                seeds = _lr_swap(system, reach, system._domain_actions[v],
                                 system._domain_actions[w])
                hit = _closure(system, [u], seeds, sync)
                if hit is not None:
                    return nc.Verdict(False, *hit)
    return nc.SECURE


class TestSharedClosure:
    """One closure per excluded domain (ip) or unordered pair (ta) checks
    every observer at once, and decides exactly what one closure per
    observer decides."""

    BASES = ("fig5", "fig6", "fig7", "fig8", "pcp_demo")

    def test_verdicts_match_per_observer_closures(self):
        separations = {"p_not_ip": 0, "ip_not_ta": 0}
        checked = 0
        for name in self.BASES:
            rng = random.Random(name)
            base = nc.fixture(name)
            for system in [base] + [_perturb(base, rng) for _ in range(100)]:
                p = nc.decide_p(system)
                ip, ta = nc.decide_ip(system), nc.decide_ta(system)
                assert ip.secure == _per_observer_ip(system).secure
                assert ta.secure == _per_observer_ta(system).secure
                for notion, v in (("ip", ip), ("ta", ta)):
                    if not v.secure:
                        assert nc.check_witness_pair(
                            system, notion, v.domain, v.alpha, v.beta
                        )
                separations["p_not_ip"] += not p.secure and ip.secure
                separations["ip_not_ta"] += ip.secure and not ta.secure
                checked += 1
        assert checked == 505
        # the perturbations separate the notions, so the agreement is not vacuous
        assert separations["p_not_ip"] >= 50 and separations["ip_not_ta"] >= 20

    def test_closure_counts_under_fig6_policy(self, fig6, monkeypatch):
        # constant observations: secure, so every closure runs to completion
        secure = nc.System(fig6.policy, fig6.states, fig6.initial,
                           fig6.action_domain, fig6.transitions)
        calls = []
        real = verify._closure

        def counting(*args):
            calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(verify, "_closure", counting)
        assert nc.decide_ip(secure).secure
        assert len(calls) == 5  # one per excluded domain
        calls.clear()
        assert nc.decide_ta(secure).secure
        assert len(calls) == 5 + 6  # plus one per unordered non-interfering pair
        assert max(len(observers) for observers in calls) > 1


def _single_leak(n, seed, fanout):
    """A sparse random machine under fig5's policy where L observes "1" at
    one state entered by an H action late in BFS order, and nothing anywhere
    else: the violation sits at the end of a long merge chain."""
    rng = random.Random(seed)
    policy = nc.fixture("fig5").policy
    actions = {f"a{i}": policy.domains[i % 3] for i in range(6)}
    states = [f"s{i}" for i in range(n)]
    trans = {}
    for s in range(n):
        for a in range(6):
            t = rng.randrange(n)
            if t != s and rng.random() < fanout:
                trans[states[s], f"a{a}"] = states[t]
    base = nc.System(policy, states, states[0], actions, trans)
    for q in reversed(nc.reachable_states(base)):
        for a in actions:
            t = trans.get((q, a), q)
            if actions[a] == "H" and t != q:
                return nc.System(policy, states, states[0], actions, trans,
                                 {(t, "L"): "1"})
    return base


class TestFlatClosureIdentity:
    """The flat `_closure` gives the very verdicts and witnesses of the
    object-based reference engine it replaced."""

    def systems(self):
        yield from (nc.fixture(name) for name in nc.FIXTURE_NAMES)
        yield from (nc.gen_random_system(p) for p in corpus_params(500, seed=2))
        for name in TestSharedClosure.BASES:
            rng = random.Random(name)
            base = nc.fixture(name)
            yield from (_perturb(base, rng) for _ in range(100))
        rng = random.Random(71)
        for i in range(12):
            yield nc.gen_random_system(nc.GenParams(
                rng.randint(250, 350), rng.randint(2, 5), rng.randint(2, 4),
                rng.randint(2, 3), rng.choice([0.0, 0.2, 0.5]), 7100 + i))
        for i in range(6):
            yield _single_leak(500, 7200 + i, 0.3)

    def test_verdicts_equal_reference_engine(self, monkeypatch):
        deciders = (nc.decide_p, nc.decide_ip, nc.decide_ta)
        systems = list(self.systems())
        flat = [decide(s) for s in systems for decide in deciders]
        monkeypatch.setattr(verify, "_closure", reference_closure._closure)
        reference = [decide(s) for s in systems for decide in deciders]
        assert len(flat) == len(reference) == 3 * 1023
        for got, want in zip(flat, reference):
            assert repr(got) == repr(want)
            assert got == want
        # violations are found mid-closure, some at the end of long chains
        insecure = [v for v in flat if not v.secure]
        assert len(insecure) >= 1000
        assert max(len(v.alpha) for v in insecure) >= 15

    def test_paths_equal_reference_search(self):
        # Every reachable state's witness prefix is the path the FIFO search
        # in `reference_closure` finds; two 3 000-state machines add paths of
        # up to about twenty hops.
        systems = list(self.systems())
        rng = random.Random(91)
        systems += [nc.gen_random_system(nc.GenParams(
            3000, rng.randint(2, 4), rng.randint(2, 3), 2, 0.3, 9100 + i)) for i in range(2)]
        checked = 0
        for s in systems:
            for q in s._reachable_idx():
                assert s._shortest_path(q) == reference_closure.shortest_path(s, q)
                checked += 1
        assert checked >= 19_000

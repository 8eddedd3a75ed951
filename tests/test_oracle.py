import gc
import hashlib
import itertools
import random
import sys
from collections import Counter

import pytest

import nicheck as nc
import reference_scan
from conftest import corpus_params, hidden_bit_system, random_trace
from test_verify import _perturb
from nicheck import oracle
from nicheck.oracle import CHILD_KEYS, TraceProfile
from nicheck.system import _observing


class TestTraceKey:
    def test_purge_key_identifies_purge_equal_traces(self, fig5):
        assert nc.trace_key(fig5, "p", "L", ("h", "d", "l")) == \
            nc.trace_key(fig5, "p", "L", ("d", "l"))

    def test_tree_key_of_empty_traces(self, fig5):
        assert nc.trace_key(fig5, "ta", "L", ()) == nc.trace_key(fig5, "ta", "L", ())

    def test_fig5_to_key_separates_on_downgrader_view(self, fig5):
        assert nc.trace_key(fig5, "to", "L", ("h", "d", "l")) != \
            nc.trace_key(fig5, "to", "L", ("d", "l"))

    def test_key_equality_matches_defining_equivalence(self):
        rng = random.Random(61)
        for params in corpus_params(40, seed=61):
            s = nc.gen_random_system(params)
            u = rng.choice(s.policy.domains)
            a1, a2 = random_trace(rng, s, 5), random_trace(rng, s, 5)
            assert (nc.trace_key(s, "p", u, a1) == nc.trace_key(s, "p", u, a2)) == \
                (nc.purge(s, u, a1) == nc.purge(s, u, a2))
            assert (nc.trace_key(s, "ip", u, a1) == nc.trace_key(s, "ip", u, a2)) == \
                (nc.ipurge(s, u, a1) == nc.ipurge(s, u, a2))
            assert (nc.trace_key(s, "ta", u, a1) == nc.trace_key(s, "ta", u, a2)) == \
                (nc.ta(s, u, a1) is nc.ta(s, u, a2))

    def test_unknown_notion(self, fig5):
        with pytest.raises(nc.InputError):
            nc.trace_key(fig5, "zz", "L", ())
        with pytest.raises(nc.InputError, match="^unknown security notion 'zz'$"):
            nc.bounded_check(fig5, "zz", 2)


class TestBoundedCheck:
    def test_fig7_observation_transmission_violation(self, fig7):
        out = nc.bounded_check(fig7, "to", 3)
        assert out.insecure and out.domain == "L"
        assert nc.check_witness_pair(fig7, "to", out.domain, out.alpha, out.beta)

    def test_fig8_immediate_transmission_clear_to_depth_6(self, fig8):
        out = nc.bounded_check(fig8, "ito", 6)
        assert not out.insecure and out.depth == 6

    def test_fig8_observation_transmission_violation_small_depth(self, fig8):
        out = nc.bounded_check(fig8, "to", 2)
        assert out.insecure
        assert (out.alpha, out.beta) == (("d",), ("h", "d"))

    def test_reported_pair_is_shortlex_first(self, fig7):
        out = nc.bounded_check(fig7, "to", 5)
        assert (out.alpha, out.beta) == (("d",), ("h", "d"))

    def test_budget_guard(self, fig6):
        with pytest.raises(nc.BudgetError) as err:
            nc.bounded_check(fig6, "p", 12)
        assert err.value.trace_count == sum(4 ** i for i in range(13))

    def test_caller_budget_above_the_default_is_enforced(self, pcp_demo):
        # 7 actions to depth 12 is about 1.6e10 traces, above a 1e9 budget
        with pytest.raises(nc.BudgetError) as err:
            nc.bounded_check(pcp_demo, "p", 12, budget=10 ** 9)
        assert err.value.trace_count > 10 ** 9

    def test_one_action_budget_is_counted_exactly(self):
        # One trace per length: the count is depth + 1, found without
        # walking the depth (a loop over 10^9 lengths would take seconds).
        one = nc.System(nc.Policy(("A",)), ("s0",), "s0", {"a": "A"})
        with pytest.raises(nc.BudgetError) as err:
            nc.bounded_check(one, "p", 10 ** 9)
        assert err.value.trace_count == 10 ** 9 + 1

    def test_actionless_machine_stops_at_the_empty_level(self, actionless, deadline):
        # Only the empty trace exists, so the count does not walk the depth,
        # and its one state shows each domain one token, so neither does the
        # scan (at 10^18 levels either would never end).
        for notion in nc.NOTIONS:
            assert nc.bounded_check(actionless, notion, 10 ** 18) == \
                nc.BoundedVerdict(False, 10 ** 18)

    def test_negative_depth_rejected(self, fig5):
        with pytest.raises(nc.InputError):
            nc.bounded_check(fig5, "p", -3)

    @pytest.mark.parametrize("args", [(2.0,), ("3",), (2, "10"), (2, None), (True,)])
    def test_non_int_depth_or_budget_rejected(self, fig5, args):
        with pytest.raises(nc.InputError, match="must be an int"):
            nc.bounded_check(fig5, "p", *args)

    @staticmethod
    def swap():
        """One action that swaps two states A tells apart: one trace per
        length, and A sees every action, so no two traces share a key of A's
        and none is scanned."""
        return nc.System(nc.Policy(("A",)), ("s0", "s1"), "s0", {"a": "A"},
                         {("s0", "a"): "s1", ("s1", "a"): "s0"},
                         {("s0", "A"): "0", ("s1", "A"): "1"})

    @staticmethod
    def chain(n):
        """One action b of B, which A may not see, walks s0 ... sn, and A
        sees "1" only at sn: one trace per length, every one in A's single
        key class, so the scan is insecure at exactly depth n."""
        states = tuple(f"s{i}" for i in range(n + 1))
        return nc.System(nc.Policy(("A", "B")), states, "s0", {"b": "B"},
                         {(states[i], "b"): states[i + 1] for i in range(n)},
                         {(states[n], "A"): "1"})

    def test_machine_that_sees_every_action_starts_no_profile(self, monkeypatch):
        # A sees two tokens but every action too, so the check is clear at
        # once, whatever the depth (here 10^18 levels, under a budget that
        # admits them).
        starts = []
        start = TraceProfile.start

        def recorder(system, notion):
            starts.append(notion)
            return start(system, notion)

        monkeypatch.setattr(TraceProfile, "start", recorder)
        for notion in nc.NOTIONS:
            assert nc.bounded_check(self.swap(), notion, 10 ** 18, 10 ** 19) == \
                nc.BoundedVerdict(False, 10 ** 18)
        assert starts == []

    def test_deep_scan_does_not_recurse(self):
        # One action, so depth 300 is 301 traces; a recursive scan would need
        # a frame per action and overflow the lowered limit.
        s = self.chain(300)
        frames, frame = 0, sys._getframe()
        while frame is not None:
            frames, frame = frames + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(frames + 100)
        try:
            out = nc.bounded_check(s, "ip", 300)
        finally:
            sys.setrecursionlimit(limit)
        assert out.insecure and out.alpha == () and out.beta == ("b",) * 300

    def test_each_trace_is_extended_once(self, pcp_demo, monkeypatch):
        calls = made = 0
        children = TraceProfile.children
        traces = set()

        def counted(profile):
            nonlocal calls, made
            out = children(profile)
            calls += 1
            made += len(out)
            traces.update(child.trace for child in out)
            return out

        monkeypatch.setattr(TraceProfile, "children", counted)
        # 7 actions: 7 + 49 + 343 + 2401 non-empty traces shorter than depth
        # 5, made by one call for each of the 1 + 7 + 49 + 343 traces shorter
        # than 4; the 16807 traces of the last level are keyed from their
        # parents.
        assert not nc.bounded_check(pcp_demo, "to", 5).insecure
        assert made == len(traces) == 2_800 and calls == 400
        calls = made = 0
        traces.clear()
        assert nc.bounded_check(self.chain(300), "ip", 300).insecure
        assert made == len(traces) == 299

    def test_scan_leaves_system_trees_empty(self):
        # The scan interns its trees in a table of its own; only the
        # definitional tree functions write the system's shared one.
        s = nc.fixture("pcp_demo")
        assert not nc.bounded_check(s, "ta", 5).insecure
        assert s._trees == {}
        nc.ta(s, "watcher", s.actions)
        consed = dict(s._trees)
        for notion in nc.NOTIONS:
            nc.bounded_check(s, notion, 3)
        assert s._trees == consed

    @staticmethod
    def _reference_ip_scan(s, depth):
        # Shortlex enumeration keyed by the definitional ipurge; the first
        # trace of each key class is its representative.
        seen = [dict() for _ in s.policy.domains]
        for length in range(depth + 1):
            for alpha in itertools.product(s.actions, repeat=length):
                end = nc.run(s, s.initial, alpha)
                for table, u in zip(seen, s.policy.domains):
                    token = s.obs(end, u)
                    prior = table.setdefault(nc.ipurge(s, u, alpha), (token, alpha))
                    if prior[0] != token:
                        return u, prior[1], alpha
        return None

    def test_bounded_ip_matches_definitional_reference(self):
        systems = [nc.fixture(name) for name in nc.FIXTURE_NAMES]
        systems += [nc.gen_random_system(p) for p in corpus_params(40, seed=89)]
        insecure = 0
        for s in systems:
            out = nc.bounded_check(s, "ip", 4)
            ref = self._reference_ip_scan(s, 4)
            if ref is None:
                assert not out.insecure and out.depth == 4
            else:
                insecure += 1
                assert out.insecure
                assert (out.domain, out.alpha, out.beta) == ref
        assert insecure >= 10

    def test_secure_decidable_notions_have_no_bounded_violations(self):
        for params in corpus_params(25, seed=67):
            s = nc.gen_random_system(params)
            for notion, decide in (("p", nc.decide_p), ("ip", nc.decide_ip),
                                   ("ta", nc.decide_ta)):
                if decide(s).secure:
                    assert not nc.bounded_check(s, notion, 4).insecure

    def test_bounded_violations_are_genuine(self):
        for params in corpus_params(25, seed=71):
            s = nc.gen_random_system(params)
            for notion in nc.NOTIONS:
                out = nc.bounded_check(s, notion, 3)
                if out.insecure:
                    assert nc.check_witness_pair(s, notion, out.domain,
                                                 out.alpha, out.beta)


class TestFrontierScanIdentity:
    """The level-frontier scan gives the very verdicts and witnesses of the
    per-length depth-first scan it replaced."""

    @staticmethod
    def systems():
        yield from (nc.fixture(name) for name in nc.FIXTURE_NAMES)
        yield nc.augment_final(nc.fixture("fig5"))
        yield nc.augment_final(nc.fixture("fig8"))
        yield from (nc.gen_random_system(p) for p in corpus_params(200, seed=7))
        yield from (nc.gen_random_system(p)
                    for p in corpus_params(80, seed=11, max_domains=4))

    def test_verdicts_equal_reference_scan(self):
        moved = unmoved = checks = 0
        verdicts = []
        for s in self.systems():
            depth = 4 if len(s.actions) > 6 else 5
            for notion in nc.NOTIONS:
                got = nc.bounded_check(s, notion, depth)
                want = reference_scan.bounded_check(s, notion, depth)
                assert repr(got) == repr(want), (s.policy.domains, notion)
                verdicts.append(repr(got))
                checks += 1
                if got.insecure:
                    # Whether the later trace's last action may interfere
                    # with the reported domain: only then is its key re-read.
                    actor = s._dom[s.action_index(got.beta[-1])]
                    if s._may[actor][s.policy.index(got.domain)]:
                        moved += 1
                    else:
                        unmoved += 1
        assert checks == 5 * 287
        assert moved + unmoved >= 400
        assert moved >= 10 and unmoved >= 10
        # The reference scan steps the same profiles, so a fault in a key
        # recurrence would show on both sides; the verdicts themselves are
        # pinned too.
        digest = hashlib.sha256("\n".join(verdicts).encode()).hexdigest()
        assert digest == "e8d457714589daaae02c65b79232eb705117f6561ac89acaaff0a3a5d738cd32"

    def test_perturbations_equal_reference_scan(self):
        # The reference judges every domain in index order, so a scan that
        # judged the domains the last action moves before the others would
        # report another pair on some of these edits (fig7's edit 17 under
        # `to`: H with ('h',)/('h', 'd') in the reference, L with
        # ('d',)/('h', 'd') under that order).
        checks = insecure = 0
        for name in ("fig5", "fig6", "fig7", "fig8"):
            rng = random.Random(name)
            base = nc.fixture(name)
            for s in [_perturb(base, rng) for _ in range(100)]:
                for notion in ("ip", "ta", "to", "ito"):
                    got = nc.bounded_check(s, notion, 4)
                    want = reference_scan.bounded_check(s, notion, 4)
                    assert repr(got) == repr(want), (name, notion)
                    checks += 1
                    insecure += got.insecure
        assert checks == 1600 and insecure >= 1000

    def test_violations_on_the_last_level_equal_reference_scan(self, delayed_leak):
        # Rerun every violation at the length of its later trace, so that
        # trace is keyed from its parent on the last level, where a key that
        # is too fine misses an earlier, shorter trace of its class.  The
        # random corpora leak mostly through observations that change at an
        # action the observer's keys ignore, so `delayed_leak` adds, for each
        # notion, a pair told apart only after the observer's own action.
        reruns = shorter = 0
        moved = set()
        for s in (*self.systems(), delayed_leak):
            depth = 4 if len(s.actions) > 6 else 5
            for notion in nc.NOTIONS:
                first = reference_scan.bounded_check(s, notion, depth)
                if not first.insecure:
                    continue
                last = len(first.beta)
                got = nc.bounded_check(s, notion, last)
                want = reference_scan.bounded_check(s, notion, last)
                assert repr(got) == repr(want) == repr(first), (s.policy.domains, notion)
                reruns += 1
                if len(first.alpha) < last:
                    shorter += 1
                    actor = s._dom[s.action_index(first.beta[-1])]
                    if s._may[actor][s.policy.index(first.domain)]:
                        moved.add(notion)
        assert reruns >= 400 and shorter >= 400
        assert moved == set(nc.NOTIONS)


class TestMovedDomainViolations:
    """On machines where only L observes, and only at its own actions, every
    first violation falls on a domain whose keys the later trace's last
    action moves: the keys `bounded_check` interns afresh for each trace."""

    def test_verdicts_equal_reference_scan(self):
        moved, unmoved = Counter(), Counter()
        for seed in range(100):
            s = hidden_bit_system(seed)
            for notion in nc.NOTIONS:
                got = nc.bounded_check(s, notion, 4)
                want = reference_scan.bounded_check(s, notion, 4)
                assert repr(got) == repr(want), (seed, notion)
                if not want.insecure:
                    continue
                # Again at the later trace's length, where it is keyed on the
                # last level, from its parent.
                last = len(want.beta)
                got = nc.bounded_check(s, notion, last)
                assert repr(got) == repr(want), (seed, notion, last)
                actor = s._dom[s.action_index(want.beta[-1])]
                if s._may[actor][s.policy.index(want.domain)]:
                    moved[notion] += 1
                else:
                    unmoved[notion] += 1
        assert all(moved[notion] >= 20 for notion in nc.NOTIONS), moved
        assert not unmoved


class TestLastLevelKeys:
    """The keys `bounded_check` computes for the last level straight from the
    parent profile split traces into the classes that the keys of the stepped
    children do, also against the keys of shorter traces."""

    @staticmethod
    def systems():
        yield from (nc.fixture(name) for name in nc.FIXTURE_NAMES)
        yield nc.augment_final(nc.fixture("fig5"))
        yield nc.augment_final(nc.fixture("fig8"))
        yield from (nc.gen_random_system(p)
                    for p in corpus_params(60, seed=101, max_domains=4))

    @staticmethod
    def classes(s, notion, depth):
        """(domain, key from the parent, key of the stepped child, True) for
        every trace of length `depth`, where the key from the parent is its
        entry looked up as the scan's last level does, and (domain, key,
        key, False) for every shorter trace."""
        nd, na = len(s.policy.domains), len(s.actions)
        frontier = [TraceProfile.start(s, notion)]
        rows = []
        for length in range(depth):
            for profile in frontier:
                for u in range(nd):
                    k = profile.keys[u]
                    rows.append((u, k, k, False))
            if length < depth - 1:
                frontier = [c for p in frontier for c in p.children()]
        # Every last-level key is looked up before any child is stepped, so
        # an int is a key that a shorter trace already has, and a tuple an
        # entry that no shorter trace has.
        jobs = [(ai, s._dom[ai], u) for ai in range(na) for u in range(nd)
                if s._may[s._dom[ai]][u]]
        get = frontier[0].table.get
        last = [(profile, [get(e, e) for e in CHILD_KEYS[notion](profile, jobs)])
                for profile in frontier]
        for profile, keys in last:
            children = profile.children()
            for (ai, _, u), k in zip(jobs, keys):
                rows.append((u, k, children[ai].keys[u], True))
        return rows

    def test_last_keys_partition_like_stepped_children(self):
        shared = new = 0
        for s in self.systems():
            depth = 4 if len(s.actions) <= 4 else 3
            for notion in nc.NOTIONS:
                forward, backward = {}, {}
                for u, k, ref, last in self.classes(s, notion, depth):
                    assert forward.setdefault((u, k), ref) == ref, notion
                    assert backward.setdefault((u, ref), k) == k, notion
                    if notion == "ta" and last:
                        if type(k) is int:
                            shared += 1
                        else:
                            new += 1
        assert shared >= 1000 and new >= 1000


class TestScanKeyRepresentation:
    def test_scan_keys_are_ints(self, pcp_demo):
        # Every stepped profile key is one interned int, however deep the
        # trace.  A key straight off a parent is an int the table holds, or
        # else its entry, which the table does not hold: (key, action) under
        # p/ip and (key, sent, action) under ta/to/ito, all ints, where `ito`
        # adds, for every domain but the actor, the actor's next token.
        s = pcp_demo
        nd, na = len(s.policy.domains), len(s.actions)
        jobs = [(ai, s._dom[ai], u) for ai in range(na) for u in range(nd)
                if s._may[s._dom[ai]][u]]
        for notion in nc.NOTIONS:
            size = 2 if notion in ("p", "ip") else 3
            held = fresh = 0
            level = [TraceProfile.start(s, notion)]
            for _ in range(3):
                level = [c for p in level for c in p.children()]
            for profile in level:
                assert all(type(k) is int for k in profile.keys), notion
                table = profile.table
                for (ai, d, u), entry in zip(jobs, CHILD_KEYS[notion](profile, jobs)):
                    if entry in table:
                        assert type(table[entry]) is int, notion
                        held += 1
                        continue
                    fresh += 1
                    if notion == "ito" and u != d:
                        token = s._obs[s._step[profile.state][ai]][d]
                        assert type(token) is str and entry[size:] == (token,), notion
                        entry = entry[:size]
                    assert len(entry) == size and all(type(c) is int for c in entry), notion
            assert held and fresh, notion

    def test_ip_walks_only_masks_no_domain_holds(self, pcp_demo, fig6, monkeypatch):
        # An `ip` key is read off a domain whose position mask equals the
        # union it needs, and the trace is walked only when none does.  Both
        # branches run: the walk on fig6, where L's mask and D1's do not nest
        # after h1 d2, and never on pcp_demo or on a deep one-action machine.
        walks = []
        walk = oracle._walk_id

        def counted(profile, mask):
            walks.append(mask)
            return walk(profile, mask)

        monkeypatch.setattr(oracle, "_walk_id", counted)
        assert not nc.bounded_check(pcp_demo, "ip", 4).insecure
        assert nc.bounded_check(TestBoundedCheck.chain(2_000), "ip", 2_000).insecure
        assert walks == []
        assert not nc.bounded_check(fig6, "ip", 6).insecure
        assert walks

    @pytest.mark.parametrize("notion, depth", [("p", 2), ("ta", 5), ("to", 5), ("ito", 5)])
    def test_last_level_interns_nothing(self, pcp_demo, notion, depth, monkeypatch):
        # Under p, ta, to and ito the last level only looks its entries up,
        # so a clear scan (under p pcp_demo is clear only to depth 2) leaves
        # the root's table as the last profiles below it left it.
        tables, sizes = [], []
        start, children = TraceProfile.start, TraceProfile.children

        def started(system, name):
            root = start(system, name)
            tables.append(root.table)
            return root

        def stepped(profile):
            out = children(profile)
            sizes.extend(len(child.table) for child in out)
            return out

        monkeypatch.setattr(TraceProfile, "start", started)
        monkeypatch.setattr(TraceProfile, "children", stepped)
        assert nc.bounded_check(pcp_demo, notion, depth) == nc.BoundedVerdict(False, depth)
        assert len(tables) == 1 and len(sizes) == sum(7 ** k for k in range(1, depth))
        assert len(tables[0]) == sizes[-1]

    def test_flattened_view_components_are_gone(self, fig5):
        for notion in ("tview", "ftview"):
            with pytest.raises(nc.InputError):
                TraceProfile.start(fig5, notion)


class TestKeySkipInvariance:
    def test_unreachable_domains_keep_their_keys(self):
        # An action whose domain may not interfere with u leaves every key of
        # u as it was; `bounded_check` skips such domains on that ground.
        rng = random.Random(97)
        systems = [nc.fixture(name) for name in nc.FIXTURE_NAMES]
        systems += [nc.gen_random_system(p)
                    for p in corpus_params(60, seed=97, max_domains=4)]
        trees = (nc.to, nc.ito)
        cases = 0
        for s in systems:
            nd = len(s.policy.domains)
            for _ in range(10):
                profiles = [TraceProfile.start(s, notion) for notion in nc.NOTIONS]
                for a in random_trace(rng, s, 6):
                    profiles = [p.children()[s.action_index(a)] for p in profiles]
                trace = profiles[0].trace
                extensions = [p.children() for p in profiles]
                for ai, a in enumerate(s.actions):
                    children = [kids[ai] for kids in extensions]
                    row = s._may[s._dom[ai]]
                    for u in range(nd):
                        if row[u]:
                            continue
                        for profile, child in zip(profiles, children):
                            assert child.keys[u] == profile.keys[u], profile.notion
                        d = s.policy.domains[u]
                        for tree in trees:
                            assert tree(s, d, trace + (a,)) is tree(s, d, trace)
                        cases += 1
        assert cases >= 1000


class TestCheckedDomains:
    """`bounded_check` keys and looks up only the domains that observe at
    least two tokens over the reachable states and that some action does not
    move; the others can never tell two traces apart."""

    @staticmethod
    def sees_every_action(s):
        return [u for u in range(len(s.policy.domains))
                if all(u in moved for moved in s._moved)]

    def test_keys_of_a_domain_that_sees_every_action_are_injective(self):
        # Checked against the definitional keys, not the scan's profiles: no
        # two traces share a key of such a domain under any notion.
        systems = [nc.fixture(name) for name in nc.FIXTURE_NAMES]
        systems += [nc.gen_random_system(p) for p in corpus_params(60, seed=7)]
        domains = 0
        for s in systems:
            depth = 3 if len(s.actions) <= 5 else 2
            traces = [alpha for n in range(depth + 1)
                      for alpha in itertools.product(s.actions, repeat=n)]
            for u in self.sees_every_action(s):
                domains += 1
                for notion in nc.NOTIONS:
                    keys = {}
                    for alpha in traces:
                        key = nc.trace_key(s, notion, s.policy.domains[u], alpha)
                        assert keys.setdefault(key, alpha) == alpha, (notion, alpha)
        assert domains >= 60

    def test_dropping_them_keeps_the_reference_verdicts(self):
        # The reference scan keys every domain.  Most of these systems have
        # an observing domain that every action moves, so the comparison
        # covers the skip.  One level short of `TestFrontierScanIdentity`'s
        # depths, the skip falls on a last level that test steps.
        dropped = insecure = 0
        for s in TestFrontierScanIdentity.systems():
            observing = _observing(s)
            if not any(observing[u] for u in self.sees_every_action(s)):
                continue
            dropped += 1
            depth = 3 if len(s.actions) > 6 else 4
            for notion in nc.NOTIONS:
                got = nc.bounded_check(s, notion, depth)
                want = reference_scan.bounded_check(s, notion, depth)
                assert repr(got) == repr(want), (s.policy.domains, notion)
                insecure += got.insecure
        assert dropped >= 100 and insecure >= 200

    @staticmethod
    def late_token_machines():
        # L alone observes two tokens, and its second one first shows three
        # actions from the start: after three h's, or after two h's and L's
        # own action, which moves L's keys.
        states = ("s0", "s1", "s2", "s3")
        yield nc.System(nc.Policy(("H", "L")), states, "s0", {"h": "H", "l": "L"},
                        {("s0", "h"): "s1", ("s1", "h"): "s2", ("s2", "h"): "s3"},
                        {("s3", "L"): "1"})
        yield nc.System(nc.Policy(("H", "L")), states, "s0", {"h": "H", "l": "L"},
                        {("s0", "h"): "s1", ("s1", "h"): "s2", ("s2", "l"): "s3"},
                        {("s3", "L"): "1"})

    def test_second_token_deep_in_the_machine_still_found(self):
        found = set()
        for s in self.late_token_machines():
            assert [len(set(column)) for column in zip(*s._obs)] == [1, 2]
            for notion in nc.NOTIONS:
                for depth in (3, 4):
                    got = nc.bounded_check(s, notion, depth)
                    want = reference_scan.bounded_check(s, notion, depth)
                    assert repr(got) == repr(want), (notion, depth)
                    assert got.insecure and got.domain == "L" and len(got.beta) == 3
                    found.add(got.beta)
        assert found == {("h", "h", "h"), ("h", "h", "l")}

    def test_one_token_domains_reach_no_last_level_key(self, pcp_demo, monkeypatch):
        # pcp_demo's speller and picker observe one token in every state;
        # closer and watcher observe several, but every action moves closer,
        # so no two traces share one of its keys.  Only watcher is keyed, at
        # the 3 actions that move it: speller's a and b and closer's end.
        s = pcp_demo
        assert [len(set(column)) for column in zip(*s._obs)] == [1, 1, 6, 4]
        closer, watcher = s.policy.index("closer"), s.policy.index("watcher")
        assert all(closer in moved for moved in s._moved)
        movers = {s.action_index(a) for a in ("a", "b", "end")}
        assert {ai for ai, moved in enumerate(s._moved) if watcher in moved} == movers
        depth = 4
        # Under p a violation ends the scan at depth 3; the others clear 4.
        for notion in ("ip", "ta", "to", "ito"):
            calls = []

            def recorder(profile, jobs, recurrence=CHILD_KEYS[notion]):
                calls.append((len(profile.trace), jobs))
                return recurrence(profile, jobs)

            monkeypatch.setitem(CHILD_KEYS, notion, recorder)
            assert not nc.bounded_check(s, notion, depth).insecure
            # One call per last-level parent keys the 3 of its 7 children
            # whose last action moves watcher.
            last = [jobs for length, jobs in calls if length == depth - 1]
            assert len(last) == 7 ** (depth - 1)
            assert all({ai for ai, _, _ in jobs} == movers for jobs in last)
            assert {u for jobs in last for _, _, u in jobs} == {watcher}
            # Profiles below the last level still step every moved domain,
            # since an unchecked actor's keys feed the checked domains' keys.
            stepped = {u for length, jobs in calls if length < depth - 1
                       for _, _, u in jobs}
            assert stepped == set(range(4))

    def test_blind_machine_is_clear_without_a_profile(self, monkeypatch):
        # Every domain sees one token in every state, so no two traces are
        # told apart: the check is clear at once and starts no profile.
        s = nc.gen_random_system(nc.GenParams(200, 6, 3, 1, 0.3, 1))
        assert [len(set(column)) for column in zip(*s._obs)] == [1, 1, 1]
        want = {notion: reference_scan.bounded_check(s, notion, 5) for notion in nc.NOTIONS}
        starts = []
        start = TraceProfile.start

        def recorder(system, notion):
            starts.append(notion)
            return start(system, notion)

        monkeypatch.setattr(TraceProfile, "start", recorder)
        for notion in nc.NOTIONS:
            assert repr(nc.bounded_check(s, notion, 5)) == repr(want[notion])
            assert nc.bounded_check(s, notion, 7) == nc.BoundedVerdict(False, 7)
        assert starts == []


class TestCollectorPaused:
    """The scan runs with the cyclic garbage collector off and leaves it as
    the caller had it, however it ends."""

    def test_state_kept_after_a_verdict(self, fig7, collector):
        assert nc.bounded_check(fig7, "to", 5).insecure
        assert gc.isenabled() is collector
        assert not nc.bounded_check(fig7, "p", 0).insecure
        assert gc.isenabled() is collector

    def test_state_kept_after_an_input_error(self, fig7, collector):
        with pytest.raises(nc.InputError):
            nc.bounded_check(fig7, "to", -1)
        assert gc.isenabled() is collector

    def test_state_kept_after_a_budget_error(self, fig7, collector):
        with pytest.raises(nc.BudgetError):
            nc.bounded_check(fig7, "to", 5, budget=10)
        assert gc.isenabled() is collector

    def test_scan_runs_with_the_collector_off(self, pcp_demo, collector, monkeypatch):
        states = set()

        def recorder(profile, jobs, recurrence=CHILD_KEYS["ta"]):
            states.add(gc.isenabled())
            return recurrence(profile, jobs)

        monkeypatch.setitem(CHILD_KEYS, "ta", recorder)
        nc.bounded_check(pcp_demo, "ta", 3)
        assert states == {False}
        assert gc.isenabled() is collector

    @pytest.mark.parametrize("notion", nc.NOTIONS)
    def test_scan_is_freed_before_the_collector_resumes(self, pcp_demo, notion,
                                                        monkeypatch):
        # Whatever is alive when the collector comes back on is young, and a
        # collection soon walks all of it; the scan must have freed its own.
        young = []
        enable = gc.enable

        def recorder():
            young.append(len(gc.get_objects(generation=0)))
            enable()

        gc.enable()
        gc.collect()
        monkeypatch.setattr(gc, "enable", recorder)
        nc.bounded_check(pcp_demo, notion, 4)
        assert len(young) == 1 and young[0] < 100


class TestExactPairChecks:
    def test_fig5_p_insecure(self, fig5):
        v = nc.exact_pair_check_p(fig5)
        assert not v.secure
        assert nc.check_witness_pair(fig5, "p", v.domain, v.alpha, v.beta)

    def test_constant_observation_secure(self):
        s = nc.System(nc.Policy(("A",)), ("s0", "s1"), "s0", {"a": "A"},
                      {("s0", "a"): "s1"})
        assert nc.exact_pair_check_p(s).secure

    def test_fig6_ip_secure(self, fig6):
        assert nc.exact_pair_check_ip(fig6).secure

    def test_direct_leak_ip_insecure(self, direct_leak):
        v = nc.exact_pair_check_ip(direct_leak)
        assert not v.secure
        assert nc.check_witness_pair(direct_leak, "ip", v.domain, v.alpha, v.beta)

    def test_agreement_with_deciders(self):
        for params in corpus_params(80, seed=73):
            s = nc.gen_random_system(params)
            assert nc.exact_pair_check_p(s).secure == nc.decide_p(s).secure
            assert nc.exact_pair_check_ip(s).secure == nc.decide_ip(s).secure


class TestCheckWitnessPair:
    def test_fig5_classic_pair(self, fig5):
        assert nc.check_witness_pair(fig5, "p", "L", ("h", "d", "l"), ("d", "l"))

    def test_identical_traces_never_violate(self, fig5):
        assert not nc.check_witness_pair(fig5, "p", "L", ("h", "d"), ("h", "d"))

    def test_traces_may_be_iterators(self, fig5):
        # Each trace is read twice, for its key and for its run.
        assert nc.check_witness_pair(fig5, "p", "L", iter(("h", "d", "l")), iter(("d", "l")))

    def test_pcp_generated_pair(self, pcp_demo):
        alpha, beta = nc.pcp_witness(nc.DEMO_INSTANCE, nc.DEMO_SOLUTION)
        assert nc.check_witness_pair(pcp_demo, "to", "watcher", alpha, beta)

    def test_witness_with_nested_lists_is_an_input_error(self, fig5):
        # A witness read back from JSON may hold lists where names belong.
        with pytest.raises(nc.InputError, match=r"^unknown action \['h'\]$"):
            nc.check_witness_pair(fig5, "p", "L", [["h"]], ())
        with pytest.raises(nc.InputError, match=r"^unknown domain \['L'\]$"):
            nc.trace_key(fig5, "p", ["L"], ())

    def test_reads_no_trace_profile(self, direct_leak, monkeypatch):
        # Witnesses are re-checked against the definitional semantics alone,
        # so a fault in the scan's recurrences cannot hide in the checker.
        # Every fixture is ip-secure; `direct_leak` gives an ip witness.
        found = []
        for s in [nc.fixture(name) for name in nc.FIXTURE_NAMES] + [direct_leak]:
            for notion, decide in (("p", nc.decide_p), ("ip", nc.decide_ip),
                                   ("ta", nc.decide_ta)):
                v = decide(s)
                if not v.secure:
                    found.append((s, notion, v.domain, v.alpha, v.beta))
            for notion in ("to", "ito"):
                v = nc.bounded_check(s, notion, 5)
                if v.insecure:
                    found.append((s, notion, v.domain, v.alpha, v.beta))
        assert {n for _, n, *_ in found} == set(nc.NOTIONS)
        found.append((nc.fixture("pcp_demo"), "to", "watcher",
                      *nc.pcp_witness(nc.DEMO_INSTANCE, nc.DEMO_SOLUTION)))

        def refuse(*args, **kwargs):
            raise AssertionError("a witness check built a TraceProfile")

        monkeypatch.setattr(TraceProfile, "start", refuse)
        monkeypatch.setattr(TraceProfile, "children", refuse)
        for s, notion, u, alpha, beta in found:
            assert nc.check_witness_pair(s, notion, u, alpha, beta)
        fig5, alpha = nc.fixture("fig5"), ("h", "d", "l")
        keys = {notion: nc.trace_key(fig5, notion, "L", alpha) for notion in nc.NOTIONS}
        assert keys["p"] == ("d", "l") and keys["ip"] == alpha
        assert keys["ta"] is nc.ta(fig5, "L", alpha)
        own = (("d", "l"), nc.tview(fig5, "L", alpha))
        assert keys["to"] == own + (nc.tview(fig5, "D", alpha),)
        assert keys["ito"] == own + (nc.ftview(fig5, "D", alpha),)
        for name, notion in (("fig7", "to"), ("fig7", "ito"), ("fig8", "to")):
            assert not nc.check_witness_pair(nc.fixture(name), notion, "L",
                                             ("d", "l"), ("h", "d", "l"))

    @pytest.mark.parametrize("name, notion", [
        ("fig7", "to"), ("fig7", "ito"), ("fig8", "to"),
    ])
    def test_observers_own_view_separates_runs(self, name, notion):
        # Before its own action l, L already observes the effect of h in the
        # second run but not in the first.  The information tree records L's
        # own view at l, so the runs are not equivalent and the pair is no
        # violation, although L's final observations differ.
        s = nc.fixture(name)
        alpha, beta = ("d", "l"), ("h", "d", "l")
        tree = getattr(nc, notion)
        assert tree(s, "L", alpha) is not tree(s, "L", beta)
        assert nc.trace_key(s, notion, "L", alpha) != nc.trace_key(s, notion, "L", beta)
        assert not nc.check_witness_pair(s, notion, "L", alpha, beta)


class TestTreeKeyRefinement:
    def test_tree_keys_refine_flattened_keys(self):
        # Equal observation-transmission trees force equal flattened keys
        # (the spine carries the purged trace, the last transmitted view of
        # every sender, the observer included, recovers its action-terminated
        # view), and equal flattened keys force equal trees (each view the
        # tree records is a prefix of a final view in the key).  The witness
        # checker's `trace_key` reads the flattened keys; the scan the trees.
        rng = random.Random(77)
        for params in corpus_params(40, seed=77, max_states=4):
            s = nc.gen_random_system(params)
            u = rng.choice(s.policy.domains)
            buckets, flats = {}, {}
            for _ in range(40):
                alpha = random_trace(rng, s, 5)
                for notion in ("to", "ito"):
                    tree = getattr(nc, notion)(s, u, alpha)
                    flat = nc.trace_key(s, notion, u, alpha)
                    assert buckets.setdefault((notion, tree), flat) == flat
                    assert flats.setdefault((notion, flat), tree) is tree

    def test_flattened_keys_and_trees_partition_fixtures_alike(self):
        # Every trace up to depth 4 (3 for pcp_demo's 7 actions), every
        # observer, both directions.
        merged = 0
        for name in nc.FIXTURE_NAMES:
            s = nc.fixture(name)
            depth = 3 if name == "pcp_demo" else 4
            traces = [alpha for n in range(depth + 1)
                      for alpha in itertools.product(s.actions, repeat=n)]
            for notion in ("to", "ito"):
                tree_of = getattr(nc, notion)
                for u in s.policy.domains:
                    buckets, flats = {}, {}
                    for alpha in traces:
                        tree = tree_of(s, u, alpha)
                        flat = nc.trace_key(s, notion, u, alpha)
                        assert buckets.setdefault(tree, flat) == flat, (name, notion, u)
                        assert flats.setdefault(flat, tree) is tree, (name, notion, u)
                    merged += len(traces) - len(flats)
        assert merged >= 5000

    def test_equal_trees_imply_equal_ipurge_multisets(self):
        # Equal maximal-information trees allow reordering but not changes in
        # which actions are retained or how often.
        rng = random.Random(79)
        for params in corpus_params(40, seed=79):
            s = nc.gen_random_system(params)
            u = rng.choice(s.policy.domains)
            classes = {}
            for _ in range(60):
                alpha = random_trace(rng, s, 5)
                classes.setdefault(nc.ta(s, u, alpha), []).append(
                    Counter(nc.ipurge(s, u, alpha))
                )
            for multisets in classes.values():
                assert all(m == multisets[0] for m in multisets)


class TestTwoPartCharacterization:
    def _swap_condition_somewhere(self, s, depth):
        # direct search for a reachable state and a swappable adjacent pair
        # whose order changes some observation
        for q in nc.reachable_states(s):
            for a in s.actions:
                for b in s.actions:
                    stack = [()]
                    while stack:
                        alpha = stack.pop()
                        for u in s.policy.domains:
                            if not nc.swappable(s, u, (a, b) + alpha, 0):
                                continue
                            qa = nc.run(s, q, (a, b) + alpha)
                            qb = nc.run(s, q, (b, a) + alpha)
                            if s.obs(qa, u) != s.obs(qb, u):
                                return True
                        if len(alpha) < depth:
                            stack.extend((alpha + (c,)) for c in s.actions)
        return False

    def test_on_ip_secure_systems_swap_condition_decides_ta(self):
        # A violating suffix never needs more steps than the closure performs
        # merges, so searching up to |S| steps is complete for these sizes.
        checked = 0
        for params in corpus_params(120, seed=83, max_states=4, max_actions=3):
            s = nc.gen_random_system(params)
            if not nc.decide_ip(s).secure:
                continue
            checked += 1
            found = self._swap_condition_somewhere(s, depth=len(s.states))
            assert found == (not nc.decide_ta(s).secure)
        assert checked >= 25

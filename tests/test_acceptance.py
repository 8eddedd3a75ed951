"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.
"""

import json
import random
import time

import nicheck as nc
from nicheck.cli import linear_fit_max_ratio, main, run_scaling_bench
from nicheck.semantics import OBS, TraceProfile
from conftest import corpus_params, random_trace, transitive_closure


def report(number, ok, message):
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {message}")
    return ok


def test_criterion_1_fixture_classification():
    timings = []
    results = []

    def timed(fn, *args):
        start = time.perf_counter()
        out = fn(*args)
        timings.append(time.perf_counter() - start)
        return out

    fig5, fig6 = nc.fixture("fig5"), nc.fixture("fig6")
    fig7, fig8 = nc.fixture("fig7"), nc.fixture("fig8")
    results.append(not timed(nc.decide_p, fig5).secure)
    results.append(not timed(nc.bounded_check, fig5, "to", 6).insecure)
    results.append(timed(nc.decide_ta, fig5).secure)
    results.append(timed(nc.decide_ip, fig5).secure)
    results.append(timed(nc.decide_ip, fig6).secure)
    results.append(not timed(nc.decide_ta, fig6).secure)
    results.append(timed(nc.decide_ta, fig7).secure)
    results.append(timed(nc.bounded_check, fig7, "to", 5).insecure)
    results.append(timed(nc.bounded_check, fig7, "ito", 5).insecure)
    results.append(timed(nc.bounded_check, fig8, "to", 5).insecure)
    out = timed(nc.bounded_check, fig8, "ito", 6)
    results.append(not out.insecure and out.depth == 6)
    results.append(timed(nc.decide_ta, fig8).secure)
    ok = all(results) and max(timings) < 1.0
    assert report(
        1, ok,
        f"fixture classifications match ({sum(results)}/{len(results)} checks, "
        f"slowest {max(timings):.3f}s)",
    )


def test_criterion_2_oracle_agreement():
    started = time.perf_counter()
    corpus = [nc.gen_random_system(p) for p in corpus_params(500, seed=2)]
    disagreements = 0
    bad_witnesses = 0
    bounded_misses = 0
    for s in corpus:
        if nc.decide_p(s).secure != nc.exact_pair_check_p(s).secure:
            disagreements += 1
        if nc.decide_ip(s).secure != nc.exact_pair_check_ip(s).secure:
            disagreements += 1
        v = nc.decide_ta(s)
        if v.secure:
            if nc.bounded_check(s, "ta", 6).insecure:
                bounded_misses += 1
        elif not nc.check_witness_pair(s, "ta", v.domain, v.alpha, v.beta):
            bad_witnesses += 1
    elapsed = time.perf_counter() - started
    ok = disagreements == 0 and bad_witnesses == 0 and bounded_misses == 0 and elapsed < 120
    assert report(
        2, ok,
        f"500 systems: {disagreements} oracle disagreements, {bad_witnesses} bad "
        f"ta witnesses, {bounded_misses} bounded contradictions, {elapsed:.1f}s",
    )


def test_criterion_3_hierarchy_and_transitive_collapse():
    corpus = [nc.gen_random_system(p) for p in corpus_params(500, seed=2)]
    breaks = 0
    transitive_count = 0
    collapse_breaks = 0
    for s in corpus:
        p, ta, ip = nc.decide_p(s), nc.decide_ta(s), nc.decide_ip(s)
        if p.secure and not ta.secure:
            breaks += 1
        if ta.secure and not ip.secure:
            breaks += 1
        if nc.is_transitive(s.policy):
            transitive_count += 1
            if not (p.secure == ta.secure == ip.secure):
                collapse_breaks += 1
    # top up the transitive sub-corpus with closed random policies
    for params in corpus_params(60, seed=303):
        base = nc.gen_random_system(params)
        closed = transitive_closure(base.policy)
        s = nc.System(closed, base.states, base.initial, base.action_domain,
                      base.transitions, base.observations)
        assert nc.is_transitive(s.policy)
        transitive_count += 1
        if not (nc.decide_p(s).secure == nc.decide_ta(s).secure == nc.decide_ip(s).secure):
            collapse_breaks += 1
    ok = breaks == 0 and collapse_breaks == 0 and transitive_count >= 100
    assert report(
        3, ok,
        f"hierarchy violations {breaks}, transitive corpus {transitive_count} "
        f"with {collapse_breaks} collapse failures",
    )


def test_criterion_4_semantics_laws():
    rng = random.Random(4)
    systems = [nc.gen_random_system(p) for p in corpus_params(200, seed=44)]
    closed_systems = []
    for base in systems[:100]:
        closed = transitive_closure(base.policy)
        closed_systems.append(
            nc.System(closed, base.states, base.initial, base.action_domain,
                      base.transitions, base.observations)
        )
    failures = {"idem": 0, "collapse": 0, "swap": 0, "stutter": 0}
    swap_positive = 0
    for law in ("idem", "collapse", "swap", "stutter"):
        pool = closed_systems if law == "collapse" else systems
        for i in range(10_000):
            s = pool[i % len(pool)]
            u = s.policy.domains[i % len(s.policy.domains)]
            alpha = random_trace(rng, s, 8)
            if law == "idem":
                once = nc.ipurge(s, u, alpha)
                if nc.ipurge(s, u, once) != once:
                    failures[law] += 1
            elif law == "collapse":
                if nc.ipurge(s, u, alpha) != nc.purge(s, u, alpha):
                    failures[law] += 1
            elif law == "swap":
                if len(alpha) < 2:
                    continue
                pos = rng.randrange(len(alpha) - 1)
                if not nc.swappable(s, u, alpha, pos):
                    continue
                swap_positive += 1
                beta = alpha[:pos] + (alpha[pos + 1], alpha[pos]) + alpha[pos + 2:]
                if nc.ta(s, u, alpha) is not nc.ta(s, u, beta):
                    failures[law] += 1
            else:
                v = nc.view(s, u, alpha)
                for left, right in zip(v, v[1:]):
                    if left[0] == OBS and left == right:
                        failures[law] += 1
                        break
    ok = not any(failures.values()) and swap_positive >= 300
    assert report(
        4, ok,
        f"10^4 cases per law, failures {failures}, swappable positives {swap_positive}",
    )


_TREES = {"to-tree": nc.to, "ito-tree": nc.ito}


def _partitions_disagree(system, depth, pairs):
    """Mismatches between flattened-key and tree-key partitions, per notion."""
    nd = len(system.policy.domains)
    mismatches = []
    flat_to_tree = {(n, u): {} for n, _ in pairs for u in range(nd)}
    tree_to_flat = {(n, u): {} for n, _ in pairs for u in range(nd)}

    def scan(profiles, remaining):
        for flat, tree in pairs:
            profile = profiles[flat]
            for u in range(nd):
                fk = profile.keys[u]
                tk = _TREES[tree](system, system.policy.domains[u], profile.trace)
                f2t = flat_to_tree[(flat, u)].setdefault(fk, tk)
                t2f = tree_to_flat[(flat, u)].setdefault(tk, fk)
                if f2t is not tk or t2f != fk:
                    mismatches.append((flat, system.policy.domains[u], profile.trace))
        if remaining:
            children = {flat: p.children() for flat, p in profiles.items()}
            for ai in range(len(system.actions)):
                scan({flat: kids[ai] for flat, kids in children.items()}, remaining - 1)

    scan({flat: TraceProfile.start(system, flat) for flat, _ in pairs}, depth)
    return mismatches


def test_criterion_5_partition_equivalence():
    # The tree-valued keys and the flattened keys must induce identical
    # partitions of all traces up to depth 5, on every fixture and on 50
    # random systems.  Both directions hold: the tree partition refines the
    # flat one (see the refinement tests in test_oracle.py), and the flat
    # key determines the tree because it carries the purged trace and the
    # final action-terminated view of every domain that may interfere with
    # the observer, the observer itself included, whose prefixes are the
    # views the tree records at each action.
    pairs = (("to", "to-tree"), ("ito", "ito-tree"))
    bad = []
    for name in nc.FIXTURE_NAMES:
        system = nc.fixture(name)
        depth = 4 if name == "pcp_demo" else 5  # budget: 7 actions at depth 5
        found = _partitions_disagree(system, depth, pairs)
        if found:
            bad.append((name, len(found), found[0]))
    for params in corpus_params(50, seed=55, max_states=4):
        system = nc.gen_random_system(params)
        found = _partitions_disagree(system, 5, pairs)
        if found:
            bad.append((f"seed{params.seed}", len(found), found[0]))
    ok = not bad
    message = ("partitions coincide everywhere" if ok else
               f"partitions differ on {len(bad)} systems, e.g. {bad[0]}")
    assert report(5, ok, message), message


def test_criterion_6_pcp_reduction():
    from nicheck.reduction import WATCHER, pcp_policy

    machine = nc.build_pcp_system(nc.DEMO_INSTANCE)
    alpha, beta = nc.pcp_witness(nc.DEMO_INSTANCE, nc.DEMO_SOLUTION)
    obs_a = machine.obs(nc.run(machine, machine.initial, alpha), WATCHER)
    obs_b = machine.obs(nc.run(machine, machine.initial, beta), WATCHER)
    ok = (
        nc.check_witness_pair(machine, "to", WATCHER, alpha, beta)
        and {obs_a, obs_b} == {"tops", "bottoms"}
        and len(machine.policy.domains) == 4
        and machine.policy == pcp_policy()
    )
    assert report(
        6, ok,
        f"solution (3,2,3,1) yields an accepted witness, outcomes {obs_a} vs {obs_b}",
    )


def test_criterion_7_augmentation_translation_bounded():
    insecure_side = nc.bounded_check(nc.augment_final(nc.fixture("fig8")), "ito", 8)
    clear_side = nc.bounded_check(nc.augment_final(nc.fixture("fig5")), "ito", 6)
    ok = insecure_side.insecure and not clear_side.insecure and clear_side.depth == 6
    assert report(
        7, ok,
        "augmented fig8 boundedly ito-insecure, augmented fig5 clear to depth 6",
    )


def test_criterion_8_scaling():
    started = time.perf_counter()
    results = run_scaling_bench("p", sizes=(1_000, 10_000, 100_000), seed=7)
    elapsed = time.perf_counter() - started
    ratio = linear_fit_max_ratio(results)
    ok = ratio <= 3.0 and elapsed < 300 and all(r["secure"] for r in results)
    assert report(
        8, ok,
        f"decide_p at 10^3..10^5 states within {ratio:.2f}x of linear, "
        f"bench total {elapsed:.1f}s",
    )


def test_criterion_9_witness_self_containment(tmp_path, capsys):
    jobs = [
        ("check", "p", "fig5"),
        ("check", "p", "fig7"),
        ("check", "ta", "fig6"),
        ("check", "p", "pcp_demo"),
        ("bounded", "to", "fig7"),
        ("bounded", "to", "fig8"),
        ("bounded", "ito", "fig6"),
    ]
    reverified = 0
    for mode, notion, name in jobs:
        path = tmp_path / f"{name}.ni"
        path.write_text(nc.serialize_system(nc.fixture(name)), encoding="utf-8")
        argv = ["check", "--notion", notion, str(path)] if mode == "check" else \
            ["bounded", "--notion", notion, "--depth", "5", str(path)]
        code = main(argv)
        payload = capsys.readouterr().out
        assert code == 1, (name, notion, payload)
        witness = json.loads(payload)
        # re-verify from the file alone
        system = nc.parse_system(path.read_text(encoding="utf-8"))
        assert nc.check_witness_pair(
            system, witness["notion"], witness["domain"],
            tuple(witness["alpha"]), tuple(witness["beta"]),
        )
        end_a = nc.run(system, system.initial, witness["alpha"])
        end_b = nc.run(system, system.initial, witness["beta"])
        assert system.obs(end_a, witness["domain"]) == witness["obs_alpha"]
        assert system.obs(end_b, witness["domain"]) == witness["obs_beta"]
        reverified += 1
    with capsys.disabled():
        assert report(9, reverified == len(jobs),
                      f"{reverified}/{len(jobs)} emitted witnesses re-verified from files")

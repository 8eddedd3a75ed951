import random

import pytest

import nicheck as nc
from nicheck.reduction import (
    CLOSER,
    OUTCOME_BOTTOMS,
    OUTCOME_FAIL,
    OUTCOME_TOPS,
    PICKER,
    SPELLER,
    WATCHER,
    pcp_policy,
)
from conftest import corpus_params, random_trace


class TestPcpInstance:
    def test_demo_solution_really_concatenates_equally(self):
        inst, sol = nc.DEMO_INSTANCE, nc.DEMO_SOLUTION
        top = "".join(inst.tops[j - 1] for j in sol)
        bottom = "".join(inst.bottoms[j - 1] for j in sol)
        assert top == bottom == "bbaabbbaa"

    def test_rejects_single_letter_alphabet(self):
        with pytest.raises(nc.InputError):
            nc.PcpInstance("a", ("a",), ("aa",))

    def test_rejects_empty_words_and_mismatched_lists(self):
        with pytest.raises(nc.InputError):
            nc.PcpInstance("ab", ("a", ""), ("b", "a"))
        with pytest.raises(nc.InputError):
            nc.PcpInstance("ab", ("a",), ("b", "a"))

    def test_rejects_non_str_alphabet(self):
        with pytest.raises(nc.InputError) as err:
            nc.PcpInstance(12, ("a",), ("b",))
        assert str(err.value) == "alphabet must be a str, got 12"

    def test_rejects_non_str_word(self):
        with pytest.raises(nc.InputError) as err:
            nc.PcpInstance("ab", (["a"],), ("b",))
        assert str(err.value) == "word ['a'] is not a str"

    def test_rejects_non_alphanumeric_letter(self):
        with pytest.raises(nc.InputError) as err:
            nc.PcpInstance("a-", ("a",), ("-",))
        assert str(err.value) == "letters must be alphanumeric, got '-'"

    def test_rejects_non_iterable_word_list(self):
        with pytest.raises(nc.InputError) as err:
            nc.PcpInstance("ab", 5, 5)
        assert str(err.value) == "tops must be iterable, got 5"

    def test_rejects_str_word_list(self):
        # A str would otherwise be read letter by letter as a list of words.
        with pytest.raises(nc.InputError) as err:
            nc.PcpInstance("ab", "ab", "ba")
        assert str(err.value) == "tops must be a sequence, not the str 'ab'"


class TestBuildPcpSystem:
    def test_fixed_policy_and_four_domains(self, pcp_demo):
        assert pcp_demo.policy == pcp_policy()
        assert len(pcp_demo.policy.domains) == 4

    def test_initial_observations(self, pcp_demo):
        assert pcp_demo.obs(pcp_demo.initial, CLOSER) == "0"
        assert pcp_demo.obs(pcp_demo.initial, WATCHER) == nc.NULL_OBS

    def test_premature_end_is_flagged_to_the_watcher(self, pcp_demo):
        end_state = nc.run(pcp_demo, pcp_demo.initial, ("end",))
        assert pcp_demo.obs(end_state, WATCHER) == OUTCOME_FAIL

    def test_solution_run_reports_which_list_matched(self, pcp_demo):
        alpha, beta = nc.pcp_witness(nc.DEMO_INSTANCE, nc.DEMO_SOLUTION)
        assert pcp_demo.obs(nc.run(pcp_demo, pcp_demo.initial, alpha), WATCHER) == OUTCOME_TOPS
        assert pcp_demo.obs(nc.run(pcp_demo, pcp_demo.initial, beta), WATCHER) == OUTCOME_BOTTOMS

    def test_watcher_blind_before_the_end(self, pcp_demo):
        rng = random.Random(5)
        non_end = tuple(a for a in pcp_demo.actions if a != "end")
        for _ in range(50):
            alpha = tuple(rng.choice(non_end) for _ in range(rng.randint(0, 8)))
            state = nc.run(pcp_demo, pcp_demo.initial, alpha)
            assert pcp_demo.obs(state, WATCHER) == nc.NULL_OBS

    def test_domain_action_split(self, pcp_demo):
        owners = {a: d for a, d in pcp_demo.action_domain.items()}
        assert owners["end"] == CLOSER
        assert owners["switch"] == PICKER
        assert owners["a"] == owners["b"] == SPELLER
        assert all(owners[f"pick{i}"] == PICKER for i in (1, 2, 3))
        assert not any(d == WATCHER for d in owners.values())


class TestPcpWitness:
    def test_demo_witness_shape_and_validity(self, pcp_demo):
        alpha, beta = nc.pcp_witness(nc.DEMO_INSTANCE, nc.DEMO_SOLUTION)
        assert len(alpha) == 14 and len(beta) == 15
        assert beta[0] == "switch" and alpha[-1] == beta[-1] == "end"
        assert nc.check_witness_pair(pcp_demo, "to", WATCHER, alpha, beta)
        assert nc.check_witness_pair(pcp_demo, "ito", WATCHER, alpha, beta)

    def test_witness_equalities_match_the_construction(self, pcp_demo):
        alpha, beta = nc.pcp_witness(nc.DEMO_INSTANCE, nc.DEMO_SOLUTION)
        assert nc.purge(pcp_demo, WATCHER, alpha) == nc.purge(pcp_demo, WATCHER, beta)
        for v in (SPELLER, CLOSER):
            assert nc.tview(pcp_demo, v, alpha) == nc.tview(pcp_demo, v, beta)

    def test_degenerate_instance(self):
        inst = nc.PcpInstance("xy", ("x",), ("x",))
        alpha, beta = nc.pcp_witness(inst, (1,))
        assert alpha == ("x", "pick1", "end")
        assert beta == ("switch", "x", "pick1", "end")
        machine = nc.build_pcp_system(inst)
        assert nc.check_witness_pair(machine, "to", WATCHER, alpha, beta)

    def test_non_solution_rejected_with_position(self):
        with pytest.raises(nc.InputError) as err:
            nc.pcp_witness(nc.DEMO_INSTANCE, (1, 1))
        assert "position 0" in str(err.value)

    def test_empty_and_out_of_range_solutions_rejected(self):
        with pytest.raises(nc.InputError):
            nc.pcp_witness(nc.DEMO_INSTANCE, ())
        with pytest.raises(nc.InputError):
            nc.pcp_witness(nc.DEMO_INSTANCE, (4,))

    def test_non_int_index_rejected(self):
        with pytest.raises(nc.InputError) as err:
            nc.pcp_witness(nc.DEMO_INSTANCE, ["3", 2, 3, 1])
        assert str(err.value) == "index '3' is not an int"

    def test_non_iterable_solution_rejected(self):
        with pytest.raises(nc.InputError) as err:
            nc.pcp_witness(nc.DEMO_INSTANCE, 3)
        assert str(err.value) == "solution must be iterable, got 3"

    def test_bool_index_rejected(self):
        # True would otherwise read as index 1.
        with pytest.raises(nc.InputError) as err:
            nc.pcp_witness(nc.DEMO_INSTANCE, [True])
        assert str(err.value) == "index True is not an int"

    def test_solution_differing_only_in_length_rejected(self):
        with pytest.raises(nc.InputError) as err:
            nc.pcp_witness(nc.PcpInstance("ab", ("a",), ("aa",)), (1,))
        assert str(err.value) == "not a solution: concatenations differ in length (1 vs 2)"


class TestAugmentFinal:
    def test_smallest_machine_doubles_actions_and_freezes(self):
        base = nc.System(
            nc.Policy(("A",)), ("s0",), "s0", {"a": "A"}, {},
            {("s0", "A"): "live"},
        )
        aug = nc.augment_final(base)
        assert len(aug.actions) == 2
        assert aug.obs(nc.run(aug, aug.initial, ()), "A") == "live"
        frozen = nc.run(aug, aug.initial, ("a!",))
        assert aug.obs(frozen, "A") == nc.NULL_OBS
        # later actions of a finished domain are ignored
        assert nc.run(aug, frozen, ("a", "a!")) == frozen

    def test_action_named_like_a_final_variant_rejected(self):
        base = nc.System(nc.Policy(("A",)), ("s0",), "s0", {"a": "A", "a!": "A"})
        with pytest.raises(nc.InputError) as err:
            nc.augment_final(base)
        assert str(err.value) == "action names ['a!'] collide with final variants"

    def test_final_actions_keep_their_domain(self, fig8):
        aug = nc.augment_final(fig8)
        for fa, a in aug.final_action_base.items():
            assert aug.action_domain[fa] == fig8.action_domain[a]

    def test_fig8_augmentation_is_boundedly_insecure_for_ito(self, fig8):
        out = nc.bounded_check(nc.augment_final(fig8), "ito", 8)
        assert out.insecure

    def test_fig5_augmentation_clear_to_depth_6(self, fig5):
        out = nc.bounded_check(nc.augment_final(fig5), "ito", 6)
        assert not out.insecure and out.depth == 6

    def test_state_components_track_convertback(self):
        rng = random.Random(9)
        for params in corpus_params(25, seed=91, max_states=4, max_actions=3):
            base = nc.gen_random_system(params)
            aug = nc.augment_final(base)
            for _ in range(20):
                alpha = random_trace(rng, aug, 6)
                name = nc.run(aug, aug.initial, alpha)
                base_part, _, marks = name.partition("|")
                finished = set(marks.split("+")) - {""}
                expected = {
                    aug.action_domain[a]
                    for a in alpha if a in aug.final_action_base
                }
                assert finished == expected
                assert base_part == nc.run(base, base.initial, nc.convertback(aug, alpha))


class TestConvertback:
    def test_without_final_actions_it_is_the_identity(self, fig8):
        aug = nc.augment_final(fig8)
        assert nc.convertback(aug, ("h", "d", "l")) == ("h", "d", "l")

    def test_first_final_becomes_base_rest_of_domain_dropped(self, fig8):
        aug = nc.augment_final(fig8)
        assert nc.convertback(aug, ("d!", "d")) == ("d",)
        assert nc.convertback(aug, ("d!", "d", "h")) == ("d", "h")

    def test_empty_trace(self, fig8):
        aug = nc.augment_final(fig8)
        assert nc.convertback(aug, ()) == ()

    def test_unknown_action_rejected(self, fig8):
        with pytest.raises(nc.InputError) as err:
            nc.convertback(nc.augment_final(fig8), ("d!", "zz"))
        assert str(err.value) == "unknown action 'zz'"

    def test_unhashable_action_rejected(self, fig5):
        with pytest.raises(nc.InputError) as err:
            nc.convertback(fig5, [["h"]])
        assert str(err.value) == "unknown action ['h']"

    def test_file_round_trip_converts_alike(self, fig8):
        aug = nc.augment_final(fig8)
        back = nc.parse_system(nc.serialize_system(aug))
        assert back == aug
        assert back.final_action_base == aug.final_action_base
        alpha = ("h", "d!", "d", "l")
        assert nc.convertback(back, alpha) == nc.convertback(aug, alpha) == ("h", "d", "l")

    def test_final_actions_are_read_off_the_names(self):
        policy = nc.Policy(("A", "B"))
        same = nc.System(policy, ("s0",), "s0", {"a": "A", "a!": "A"})
        assert same.final_action_base == {"a!": "a"}
        assert nc.convertback(same, ("a!", "a")) == ("a",)
        other = nc.System(policy, ("s0",), "s0", {"a": "A", "a!": "B"})
        assert other.final_action_base == {}
        assert nc.convertback(other, ("a!", "a")) == ("a!", "a")
        with pytest.raises(AttributeError):
            same.final_action_base = {}


def finalize_last_actions(system, augmented, observer, alpha):
    """Replace the last action of every other domain that may pass
    information to the observer by its final variant."""
    alpha = list(alpha)
    for v in system.policy.domains:
        if v == observer or not system.policy.interferes(v, observer):
            continue
        for i in range(len(alpha) - 1, -1, -1):
            if system.action_domain[alpha[i]] == v:
                alpha[i] = alpha[i] + "!"
                break
    return tuple(alpha)


class TestViolationTransfer:
    def test_bounded_to_violations_map_to_ito_violations(self, fig7, fig8):
        for base in (fig7, fig8):
            out = nc.bounded_check(base, "to", 4)
            assert out.insecure
            aug = nc.augment_final(base)
            alpha = finalize_last_actions(base, aug, out.domain, out.alpha)
            beta = finalize_last_actions(base, aug, out.domain, out.beta)
            assert nc.check_witness_pair(aug, "ito", out.domain, alpha, beta)

import random
import time

import pytest

import nicheck as nc
import reference_fileformat
from conftest import corpus_params

MINIMAL = "domain H\naction h H\nstate s0 init\n"

GOLDEN_PARAMS = nc.GenParams(3, 2, 2, 2, 0.5, 42)
GOLDEN_TEXT = (
    "domain d0\ndomain d1\ninterferes d1 d0\n"
    "action a0 d1\naction a1 d0\n"
    "state s0 init\nstate s1\nstate s2\n"
    "trans s1 a0 s2\ntrans s1 a1 s0\n"
    "obs s0 d0 o0\nobs s0 d1 o1\nobs s1 d0 o0\nobs s1 d1 o0\n"
    "obs s2 d0 o0\nobs s2 d1 o0\n"
)


class TestParse:
    def test_minimal_file_defaults_to_self_loops(self):
        s = nc.parse_system(MINIMAL)
        assert s.states == ("s0",) and s.initial == "s0"
        assert nc.run(s, "s0", ("h", "h")) == "s0"
        assert s.obs("s0", "H") == nc.NULL_OBS

    def test_comments_and_blank_lines_ignored(self):
        s = nc.parse_system("# heading\n\n" + MINIMAL + "  # trailing\n")
        assert s.states == ("s0",)

    def test_undeclared_transition_target(self):
        text = MINIMAL + "trans s0 h s1\n"
        with pytest.raises(nc.InputError) as err:
            nc.parse_system(text)
        assert any("unknown state 's1'" in d for d in err.value.diagnostics)

    def test_multiple_initial_states(self):
        text = "domain H\naction h H\nstate s0 init\nstate s1 init\n"
        with pytest.raises(nc.InputError) as err:
            nc.parse_system(text)
        assert any("multiple initial states" in d for d in err.value.diagnostics)

    def test_missing_initial_state(self):
        with pytest.raises(nc.InputError) as err:
            nc.parse_system("domain H\naction h H\nstate s0\n")
        assert any("no initial state" in d for d in err.value.diagnostics)
        with pytest.raises(nc.InputError) as err:
            nc.parse_system("domain H\n")
        assert list(err.value.diagnostics) == ["no states declared"]

    def test_unknown_keyword_reports_line_number(self):
        with pytest.raises(nc.InputError) as err:
            nc.parse_system(MINIMAL + "bogus x y\n")
        assert any(d.startswith("line 4:") for d in err.value.diagnostics)

    def test_diagnostics_accumulate(self):
        text = "domain H\ndomain H\naction h X\nstate s0 init\nobs s9 H 1\n"
        with pytest.raises(nc.InputError) as err:
            nc.parse_system(text)
        assert len(err.value.diagnostics) >= 3

    def test_mixed_errors_give_exact_diagnostics(self):
        # A state used before its declaration is unknown on that line, even
        # though a later line declares it.
        text = (
            "domain H\n"
            "domain L\n"
            "action h H\n"
            "action l L\n"
            "state s0 init\n"
            "trans s0 h s1\n"
            "state s1\n"
            "state s0\n"
            "obs s9 L 1\n"
            "obs s1 L 1\n"
            "trans s1 l s0\n"
            "trans s1 l s1\n"
            "domain\n"
            "interferes H X\n"
            "action h L\n"
            "state s2 init now\n"
            "trans s1 x s0\n"
            "obs s1 Z 1\n"
            "obs s1 L 2\n"
        )
        with pytest.raises(nc.InputError) as err:
            nc.parse_system(text)
        assert list(err.value.diagnostics) == [
            "line 6: unknown state 's1'",
            "line 8: duplicate state 's0'",
            "line 9: unknown state 's9'",
            "line 12: duplicate transition for (s1, l)",
            "line 13: 'domain' takes 1 arguments",
            "line 14: unknown domain 'X'",
            "line 15: duplicate action 'h'",
            "line 16: expected 'state NAME [init]'",
            "line 17: unknown action 'x'",
            "line 18: unknown domain 'Z'",
            "line 19: duplicate observation for (s1, L)",
        ]
        assert str(err.value) == "cannot parse system: line 6: unknown state 's1'"

    def test_parse_is_linear_in_lines(self):
        # 20 000 states, 160 000 lines: a parser that scans the earlier state
        # declarations on each line is quadratic and far exceeds the bound.
        system = nc.gen_random_system(nc.GenParams(20000, 4, 3, 2, 0.3, 1))
        text = nc.serialize_system(system)
        start = time.perf_counter()
        parsed = nc.parse_system(text)
        elapsed = time.perf_counter() - start
        assert parsed == system
        assert elapsed < 10.0, f"parsing {len(text.splitlines())} lines took {elapsed:.1f} s"

    def test_form_feed_in_a_comment_neither_ends_it_nor_shifts_lines(self):
        with pytest.raises(nc.InputError) as err:
            nc.parse_system("domain H # page\x0c break\nstate s0 init\nbogus x\n")
        assert list(err.value.diagnostics) == ["line 3: unknown declaration 'bogus'"]

    @pytest.mark.parametrize(
        "separator", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_only_lf_cr_lf_and_cr_end_a_line(self, separator):
        text = f"domain H # a{separator}b c\naction h H\nstate s0 init\nbogus\n"
        with pytest.raises(nc.InputError) as err:
            nc.parse_system(text)
        assert list(err.value.diagnostics) == ["line 4: unknown declaration 'bogus'"]

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_cr_lf_and_cr_end_lines_like_lf(self, end):
        text = "domain H\naction h H\nstate s0 init\ntrans s0 h s0\nbogus\n"
        with pytest.raises(nc.InputError) as err:
            nc.parse_system(text.replace("\n", end))
        assert list(err.value.diagnostics) == ["line 5: unknown declaration 'bogus'"]
        assert nc.parse_system(MINIMAL.replace("\n", end)) == nc.parse_system(MINIMAL)

    def test_explicit_reflexive_edge_accepted(self):
        s = nc.parse_system("domain H\ninterferes H H\naction h H\nstate s0 init\n")
        assert s.policy.interferes("H", "H")


class TestSerialize:
    def test_single_state_machine_is_three_lines(self):
        assert nc.serialize_system(nc.parse_system(MINIMAL)) == MINIMAL

    def test_round_trip_every_fixture(self):
        for name in nc.FIXTURE_NAMES:
            system = nc.fixture(name)
            text = nc.serialize_system(system)
            assert nc.parse_system(text) == system
            assert nc.serialize_system(nc.parse_system(text)) == text

    def test_round_trip_augmented_and_random_systems(self):
        for system in (
            nc.augment_final(nc.fixture("fig8")),
            nc.gen_random_system(nc.GenParams(6, 4, 3, 3, 0.3, 9)),
        ):
            assert nc.parse_system(nc.serialize_system(system)) == system

    def test_golden_snapshot_of_seeded_generator(self):
        assert nc.serialize_system(nc.gen_random_system(GOLDEN_PARAMS)) == GOLDEN_TEXT

    def test_defaults_are_omitted(self, fig5):
        text = nc.serialize_system(fig5)
        assert "trans s0 d" not in text  # self-loop
        assert nc.NULL_OBS not in [line.split()[-1] for line in text.splitlines()
                                   if line.startswith("obs ")]


def _outcome(parse, text):
    """What loading `text` gives: the System and its canonical text, or
    the error message and every diagnostic."""
    try:
        system = parse(text)
    except nc.InputError as err:
        return "rejected", str(err), err.diagnostics
    return "accepted", system, nc.serialize_system(system)


class TestMutationCorpus:
    """The flat line loop loads every mutated file exactly as the parser it
    replaced (`tests/reference_fileformat.py`) does."""

    INJECTED = (
        "", "   ", "# a comment", "state s0 # trailing", "state zz", "state zz init",
        "trans s0 a0 s1", "obs s0 L 1", "domain Z", "domain", "interferes H Z",
        "action zz H", "action h L", "bogus x y", "trans s0", "obs s0 d0 o0 o1",
        "state s1 init now", "  trans\ts0 a0 s0  ",
    )
    ALPHABET = "abcdHLs019 \t#_!"

    @staticmethod
    def bases():
        systems = [nc.fixture(name) for name in nc.FIXTURE_NAMES]
        systems.append(nc.augment_final(nc.fixture("fig8")))
        systems += [nc.gen_random_system(p) for p in corpus_params(30, seed=71)]
        return [nc.serialize_system(s).splitlines() for s in systems]

    def mutate(self, rng, lines):
        lines = list(lines)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(lines) + 1)
            op = rng.choice(("drop", "duplicate", "swap", "corrupt", "inject"))
            if op == "inject" or not lines:
                lines.insert(i, rng.choice(self.INJECTED + tuple(lines)))
                continue
            i = min(i, len(lines) - 1)
            if op == "drop":
                del lines[i]
            elif op == "duplicate":
                lines.insert(rng.randrange(len(lines) + 1), lines[i])
            elif op == "swap":
                j = rng.randrange(len(lines))
                lines[i], lines[j] = lines[j], lines[i]
            else:
                line = lines[i]
                k = rng.randrange(len(line) + 1)
                cut = rng.randint(0, 2)
                lines[i] = line[:k] + rng.choice(self.ALPHABET) + line[k + cut:]
        return lines

    def test_new_and_reference_parsers_agree(self):
        rng = random.Random(7103)
        bases = self.bases()
        outcomes = []
        for n in range(1200):
            text = "\n".join(self.mutate(rng, rng.choice(bases))) + "\n"
            got = _outcome(nc.parse_system, text)
            assert got == _outcome(reference_fileformat.parse_system, text), text
            outcomes.append(got[0])
        assert outcomes.count("rejected") >= 500
        assert outcomes.count("accepted") >= 100

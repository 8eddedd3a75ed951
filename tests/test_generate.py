import hashlib

import pytest

import nicheck as nc

#: sha256 of `serialize_system` of each built-in machine, and of the
#: `augment_final` of two ("+final"), so that a change in how a fixture is
#: written down cannot change the machine it builds.
FIXTURE_DIGESTS = {
    "fig5": "ac173ba6f9c6841f1a68fb3bb580c5d91d909c981855064b50073a95eb4d479d",
    "fig6": "b05ea5a0503c445111f4e692f46352606d90443cce0e9b9c291654812cbd2075",
    "fig7": "271bb4fdd514990399c21b4a4ead751bf8ad97b0639e0334dba4419ccc5b09e0",
    "fig8": "4955dc89ded971039dd5edb7625b69f1d2a05d2b67a5522cf1cf543dc0b67a51",
    "pcp_demo": "adfa86ec1520a8f5abdc275ae03d2b015f539715cd829d01199f437a665a80d8",
    "fig5+final": "488784d4d0c3fa2e975bb68764d8c215096d85469df8236f2a5a2f336a8103d1",
    "fig8+final": "dbdff6e9c699252156c53eaceaafd80ca469de2f8b7501774b6bb599434118c6",
}


class TestGenRandomSystem:
    def test_minimal_params_give_the_self_loop_machine(self):
        s = nc.gen_random_system(nc.GenParams(1, 1, 1, 1, 0.0, 0))
        assert s.states == ("s0",)
        assert nc.run(s, "s0", ("a0",) * 5) == "s0"

    def test_same_seed_same_bytes(self):
        params = nc.GenParams(6, 4, 3, 3, 0.3, 42)
        first = nc.serialize_system(nc.gen_random_system(params))
        second = nc.serialize_system(nc.gen_random_system(params))
        assert first == second

    def test_different_seed_usually_differs(self):
        a = nc.serialize_system(nc.gen_random_system(nc.GenParams(6, 4, 3, 3, 0.3, 1)))
        b = nc.serialize_system(nc.gen_random_system(nc.GenParams(6, 4, 3, 3, 0.3, 2)))
        assert a != b

    def test_generated_systems_validate(self):
        for seed in range(30):
            s = nc.gen_random_system(nc.GenParams(6, 4, 3, 3, 0.3, seed))
            assert nc.parse_system(nc.serialize_system(s)) == s

    def test_bad_params_rejected(self):
        with pytest.raises(nc.InputError):
            nc.GenParams(0, 1, 1, 1, 0.5, 0)
        with pytest.raises(nc.InputError):
            nc.GenParams(1, 1, 1, 1, 1.5, 0)

    def test_string_count_is_an_input_error(self):
        with pytest.raises(nc.InputError, match="num_states must be an int, got '3'"):
            nc.GenParams("3", 1, 1, 1, 0.5, 0)

    def test_fractional_count_is_an_input_error(self):
        with pytest.raises(nc.InputError, match="num_states must be an int, got 2.5"):
            nc.GenParams(2.5, 1, 1, 1, 0.5, 0)

    def test_bool_count_is_an_input_error(self):
        with pytest.raises(nc.InputError, match="num_domains must be an int, got True"):
            nc.GenParams(1, 1, True, 1, 0.5, 0)

    def test_string_density_is_an_input_error(self):
        with pytest.raises(nc.InputError, match="policy_density must be a number, got 'x'"):
            nc.GenParams(1, 1, 1, 1, "x", 0)

    # A seed other than an int would reach `random.Random` and either fail
    # there with a bare TypeError or, for None, seed from the OS.
    @pytest.mark.parametrize("seed", [[1], None, True, 1.5, "3"])
    def test_non_int_seed_is_an_input_error(self, seed):
        with pytest.raises(nc.InputError) as err:
            nc.GenParams(2, 1, 1, 2, 0.5, seed)
        assert str(err.value) == f"seed must be an int, got {seed!r}"


class TestFixtures:
    def test_unknown_name(self):
        with pytest.raises(nc.InputError):
            nc.fixture("fig9")

    def test_unhashable_name_is_an_input_error(self):
        with pytest.raises(nc.InputError, match=r"unknown fixture \['fig5'\]"):
            nc.fixture(["fig5"])

    def test_all_fixtures_validate(self):
        for name in nc.FIXTURE_NAMES:
            s = nc.fixture(name)
            assert nc.parse_system(nc.serialize_system(s)) == s

    @pytest.mark.parametrize("name", FIXTURE_DIGESTS)
    def test_serialization_digest(self, name):
        base, _, final = name.partition("+")
        system = nc.fixture(base)
        if final:
            system = nc.augment_final(system)
        text = nc.serialize_system(system)
        assert hashlib.sha256(text.encode()).hexdigest() == FIXTURE_DIGESTS[name]

    @pytest.mark.parametrize("name", nc.FIXTURE_NAMES)
    def test_classification_table(self, name):
        system = nc.fixture(name)
        expected = nc.FIXTURE_CLASSIFICATION[name]
        assert nc.decide_p(system).secure == expected["p"]
        assert nc.decide_ip(system).secure == expected["ip"]
        assert nc.decide_ta(system).secure == expected["ta"]
        for notion in ("to", "ito"):
            depth = expected[f"{notion}_violation_depth"]
            if depth is None:
                clear = nc.bounded_check(system, notion, expected["clear_depth"])
                assert not clear.insecure
            else:
                assert nc.bounded_check(system, notion, depth).insecure
                if depth > 1:
                    assert not nc.bounded_check(system, notion, depth - 1).insecure

import pytest

import nicheck as nc


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
            assert s.diagnostics == ()
            assert nc.parse_system(nc.serialize_system(s)) == s

    def test_bad_params_rejected(self):
        with pytest.raises(nc.InputError):
            nc.GenParams(0, 1, 1, 1, 0.5, 0)
        with pytest.raises(nc.InputError):
            nc.GenParams(1, 1, 1, 1, 1.5, 0)


class TestFixtures:
    def test_unknown_name(self):
        with pytest.raises(nc.InputError):
            nc.fixture("fig9")

    def test_all_fixtures_validate(self):
        for name in nc.FIXTURE_NAMES:
            s = nc.fixture(name)
            assert s.diagnostics == ()
            assert nc.parse_system(nc.serialize_system(s)) == s

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

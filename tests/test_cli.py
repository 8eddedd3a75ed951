import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nicheck as nc
from nicheck.cli import _build_parser, linear_fit_max_ratio, main, run_scaling_bench


def write_fixture(tmp_path, name):
    path = tmp_path / f"{name}.ni"
    path.write_text(nc.serialize_system(nc.fixture(name)), encoding="utf-8")
    return str(path)


class TestCheck:
    def test_secure_exits_zero(self, tmp_path, capsys):
        assert main(["check", "--notion", "ip", write_fixture(tmp_path, "fig6")]) == 0
        assert "secure" in capsys.readouterr().out

    def test_insecure_exits_one_with_witness_json(self, tmp_path, capsys):
        path = write_fixture(tmp_path, "fig6")
        assert main(["check", "--notion", "ta", path]) == 1
        witness = json.loads(capsys.readouterr().out)
        assert witness["notion"] == "ta"
        assert witness["obs_alpha"] != witness["obs_beta"]
        system = nc.parse_system(open(path, encoding="utf-8").read())
        assert nc.check_witness_pair(
            system, "ta", witness["domain"],
            tuple(witness["alpha"]), tuple(witness["beta"]),
        )

    def test_missing_file_exits_three(self, capsys):
        assert main(["check", "--notion", "p", "/nonexistent.ni"]) == 3
        assert capsys.readouterr().err

    def test_undecidable_notion_rejected_as_usage_error(self, tmp_path):
        assert main(["check", "--notion", "to", write_fixture(tmp_path, "fig5")]) == 3

    def test_undecodable_file_exits_three_not_one(self, tmp_path, capsys):
        path = tmp_path / "binary.ni"
        path.write_bytes(b"\xff\xfe\x00states s0\n\x80\x81")
        assert main(["check", "--notion", "p", str(path)]) == 3
        assert "UnicodeDecodeError" in capsys.readouterr().err

    def test_byte_order_mark_is_skipped(self, tmp_path, capsys):
        path = tmp_path / "bom.ni"
        path.write_text(nc.serialize_system(nc.fixture("fig6")), encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbfdomain ")
        assert main(["check", "--notion", "ip", str(path)]) == 0
        assert capsys.readouterr().out == "secure (ip)\n"


class TestBounded:
    def test_violation_exits_one(self, tmp_path, capsys):
        assert main(
            ["bounded", "--notion", "to", "--depth", "5", write_fixture(tmp_path, "fig7")]
        ) == 1
        witness = json.loads(capsys.readouterr().out)
        assert witness["notion"] == "to"

    def test_no_violation_exits_two(self, tmp_path, capsys):
        assert main(
            ["bounded", "--notion", "to", "--depth", "5", write_fixture(tmp_path, "fig5")]
        ) == 2
        assert json.loads(capsys.readouterr().out)["no_violation_up_to"] == 5

    def test_negative_depth_exits_three(self, tmp_path, capsys):
        assert main(
            ["bounded", "--notion", "p", "--depth", "-3", write_fixture(tmp_path, "fig5")]
        ) == 3
        captured = capsys.readouterr()
        assert captured.err and not captured.out

    def test_budget_exceeded_exits_three(self, tmp_path, capsys):
        code = main(
            ["bounded", "--notion", "p", "--depth", "12", write_fixture(tmp_path, "fig6")]
        )
        assert code == 3 and capsys.readouterr().err

    def test_zero_budget_is_enforced(self, tmp_path, capsys):
        code = main(["bounded", "--notion", "p", "--depth", "3", "--budget", "0",
                     write_fixture(tmp_path, "fig6")])
        captured = capsys.readouterr()
        assert code == 3 and not captured.out
        assert "budget 0" in captured.err


class TestGenerators:
    def test_fixture_output_parses_back(self, capsys):
        assert main(["fixture", "fig8"]) == 0
        text = capsys.readouterr().out
        assert nc.parse_system(text) == nc.fixture("fig8")

    def test_gen_is_deterministic(self, capsys):
        argv = ["gen", "--states", "5", "--actions", "3", "--domains", "2", "--seed", "11"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_reduce_pcp_writes_the_demo_machine(self, tmp_path):
        out = tmp_path / "pcp.ni"
        assert main([
            "reduce-pcp", "--sigma", "ab", "--u", "a,ab,bba", "--w", "baa,aa,bb",
            "--out", str(out),
        ]) == 0
        assert nc.parse_system(out.read_text(encoding="utf-8")) == nc.fixture("pcp_demo")

    def test_reduce_pcp_bad_alphabet(self, capsys):
        assert main(["reduce-pcp", "--sigma", "a", "--u", "a", "--w", "aa"]) == 3
        assert capsys.readouterr().err

    def test_augment_final_round_trips(self, tmp_path, capsys):
        assert main(["augment-final", write_fixture(tmp_path, "fig8")]) == 0
        text = capsys.readouterr().out
        assert nc.parse_system(text) == nc.augment_final(nc.fixture("fig8"))

    def test_usage_error_exits_three(self):
        assert main(["frobnicate"]) == 3
        assert main([]) == 3

    def test_usage_error_leaves_the_shared_parser_usable(self, tmp_path, capsys):
        assert _build_parser() is _build_parser()
        assert main(["check", "--notion", "zz", "machine.ni"]) == 3
        assert main(["check", "--notion", "ip", write_fixture(tmp_path, "fig6")]) == 0
        assert capsys.readouterr().out == "secure (ip)\n"


class TestBench:
    def test_small_bench_runs_and_fits(self, capsys):
        assert main(["bench", "--notion", "p", "--sizes", "50,100", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "states=50" in out and "linear fit" in out

    def test_fit_ratio_of_perfectly_linear_data(self):
        data = [{"states": n, "seconds": 2e-6 * n} for n in (10, 100, 1000)]
        assert linear_fit_max_ratio(data) == pytest.approx(1.0)

    def test_bench_systems_are_secure_so_the_closure_runs_fully(self):
        results = run_scaling_bench("p", sizes=(200,), seed=5)
        assert results[0]["secure"]


class TestModuleEntry:
    @staticmethod
    def nicheck(*argv, module="nicheck"):
        # The package's parent directory on the path, as with an uninstalled
        # checkout, and no other site state.
        src = str(Path(nc.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        return subprocess.run([sys.executable, "-m", module, *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    def test_exit_codes_follow_the_contract(self, tmp_path):
        fig5, fig6 = write_fixture(tmp_path, "fig5"), write_fixture(tmp_path, "fig6")
        secure = self.nicheck("check", "--notion", "ip", fig6)
        assert secure.returncode == 0 and "secure" in secure.stdout
        insecure = self.nicheck("check", "--notion", "ta", fig6)
        assert insecure.returncode == 1 and json.loads(insecure.stdout)["notion"] == "ta"
        clear = self.nicheck("bounded", "--notion", "to", "--depth", "5", fig5)
        assert clear.returncode == 2
        assert json.loads(clear.stdout)["no_violation_up_to"] == 5
        missing = self.nicheck("check", "--notion", "p", str(tmp_path / "absent.ni"))
        assert missing.returncode == 3 and missing.stderr and not missing.stdout

    def test_cli_module_runs_the_cli(self, tmp_path):
        # Running the module must not just define `main` and exit 0, which
        # would read as "secure".
        missing = self.nicheck("check", "--notion", "p", str(tmp_path / "absent.ni"),
                               module="nicheck.cli")
        assert missing.returncode == 3 and missing.stderr and not missing.stdout

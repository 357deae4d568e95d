import json

import pytest

from qharm.cli import SWEEP_HEADER, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGamma:
    def test_hand_value(self, capsys):
        code, out, _ = run_cli(capsys, "gamma", "--q", "2", "--n", "1", "--z", "2,0")
        assert code == 0
        assert out.startswith("value=-1.3333333333333333 ")
        assert "reflection_defect=" in out

    def test_pole_is_parameter_error(self, capsys):
        code, _, err = run_cli(capsys, "gamma", "--q", "2", "--n", "1", "--z", "0,0")
        assert code == 1
        assert "PoleError" in err

    def test_missing_flag_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "gamma", "--q", "2")
        assert code == 1
        assert "usage error" in err


class TestKernel:
    def test_point_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "kernel", "--q", "2", "--n", "1", "--alpha", "1",
            "--z", "1,0", "--kx", "0",
        )
        assert code == 0
        assert out.startswith("K=")
        assert "bound_ratio=" in out

    def test_sweep_header_contract(self, capsys):
        code, out, _ = run_cli(
            capsys, "kernel", "--q", "3", "--n", "1", "--alpha", "1", "--sweep"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 1 + 7 * 5 * 5  # args x moduli x crowns
        first = lines[1].split(",")
        assert len(first) == 9

    def test_z_required_without_sweep(self, capsys):
        code, _, err = run_cli(
            capsys, "kernel", "--q", "2", "--n", "1", "--alpha", "1", "--kx", "0"
        )
        assert code == 1


class TestVerify:
    def test_levy_json_verdict(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "levy", "--q", "2", "--n", "1", "--alpha", "1"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert payload["max_defect"] <= 1e-12

    def test_unknown_suite_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "nonsense")
        assert code == 1

    def test_failing_baseline_exits_2(self, capsys, tmp_path, monkeypatch):
        bad = tmp_path / "baselines.txt"
        bad.write_text(
            "# suite q n alpha value\nrbound_p4 2 1 1.0 1e-9\n"
        )
        monkeypatch.setenv("QHARM_BASELINES", str(bad))
        code, out, _ = run_cli(capsys, "rbound", "--trials", "5")
        assert code == 2
        assert json.loads(out)["pass"] is False


class TestRbound:
    def test_baseline_keyed_by_family(self, capsys, tmp_path, monkeypatch):
        # the rbound_p4 constant belongs to p = 4, theta = 1.3, 16 points
        bad = tmp_path / "baselines.txt"
        bad.write_text("# suite q n alpha value\nrbound_p4 2 1 1.0 1e-9\n")
        monkeypatch.setenv("QHARM_BASELINES", str(bad))
        for extra in (["--p", "2"], ["--theta", "1.2"], ["--points", "8"]):
            code, out, _ = run_cli(capsys, "rbound", "--trials", "5", *extra)
            assert code == 0
            assert json.loads(out)["baseline"] is None

    def test_deterministic_stdout(self, capsys):
        argv = ["rbound", "--trials", "10", "--seed", "99", "--points", "4"]
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["seed"] == 99
        assert payload["trials"] == 10

    @pytest.mark.parametrize("p", ["nan", "0.5"])
    def test_p_outside_range_exits_1(self, capsys, p):
        code, out, err = run_cli(capsys, "rbound", "--p", p, "--trials", "4")
        assert code == 1
        assert out == ""
        assert "ValueError: p must be >= 1" in err


class TestEvolve:
    CONFIG = """\
[field]
q = 2
n = 1
alpha = 1.0

[window]
kmin = -2
kmax = 2

[initial]
c_0 = 1.0 0.0

[forcing]
breakpoints = 0.0 0.5 1.0

[forcing.0]
c_1 = 0.5 -0.25

[output]
times = 0.25 1.0
"""

    def test_solves_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(self.CONFIG)
        code, out, _ = run_cli(capsys, "evolve", "--config", str(cfg))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t,k,re,im"
        assert all(len(line.split(",")) == 4 for line in lines[1:])
        times = {line.split(",")[0] for line in lines[1:]}
        assert times == {"0.25", "1.0"}

    def test_write_to_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.ini"
        out_csv = tmp_path / "out.csv"
        cfg.write_text(self.CONFIG + f"file = {out_csv}\n")
        code, out, _ = run_cli(capsys, "evolve", "--config", str(cfg))
        assert code == 0
        assert out_csv.exists()
        assert out_csv.read_text().splitlines()[0] == "t,k,re,im"

    def test_missing_config(self, capsys):
        code, _, err = run_cli(capsys, "evolve", "--config", "/nonexistent.ini")
        assert code == 1

    def test_determinism(self, capsys, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(self.CONFIG)
        _, out1, _ = run_cli(capsys, "evolve", "--config", str(cfg))
        _, out2, _ = run_cli(capsys, "evolve", "--config", str(cfg))
        assert out1 == out2

    @pytest.mark.parametrize("value", ["", "abc 0", "1 2 3", "1%", "50%% 0"])
    def test_bad_profile_value_is_usage_error(self, capsys, tmp_path, value):
        cfg = tmp_path / "run.ini"
        cfg.write_text(self.CONFIG.replace("c_0 = 1.0 0.0", f"c_0 = {value}"))
        code, out, err = run_cli(capsys, "evolve", "--config", str(cfg))
        assert code == 1 and out == ""
        assert err.startswith("usage error: [initial] c_0 = ")
        assert repr(value) in err

    @pytest.mark.parametrize(
        "line,section",
        [("breakpoints = 0.0 half 1.0", "forcing"), ("times = 0.25 x", "output")],
    )
    def test_bad_time_list_is_usage_error(self, capsys, tmp_path, line, section):
        key = line.split(" = ")[0]
        cfg = tmp_path / "run.ini"
        text = "\n".join(line if s.startswith(key + " =") else s for s in self.CONFIG.splitlines())
        cfg.write_text(text + "\n")
        code, _, err = run_cli(capsys, "evolve", "--config", str(cfg))
        assert code == 1
        assert err.startswith(f"usage error: [{section}] {key} = ")

    @pytest.mark.parametrize("times", ["nan", "0.25 inf"])
    def test_non_finite_time_exits_1(self, capsys, tmp_path, times):
        cfg = tmp_path / "run.ini"
        cfg.write_text(self.CONFIG.replace("times = 0.25 1.0", f"times = {times}"))
        code, out, err = run_cli(capsys, "evolve", "--config", str(cfg))
        assert code == 1 and out == ""
        assert err.strip() == "ValueError: output times must be finite"


    def test_nan_breakpoint_exits_1(self, capsys, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(self.CONFIG.replace("0.0 0.5 1.0", "0.0 nan 1.0"))
        code, out, err = run_cli(capsys, "evolve", "--config", str(cfg))
        assert code == 1 and out == ""
        assert err.strip() == "ValueError: breakpoints must be finite"


class TestVerifyOverflow:
    def test_taibleson_weight_past_float_range(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "taibleson", "--q", "5", "--n", "3", "--alpha", "100"
        )
        assert code == 1 and out == ""
        assert err.startswith("WindowOverflowError: crown weight 5**")

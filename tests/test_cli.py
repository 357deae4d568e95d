import configparser
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qharm
from qharm import verification
from qharm.cli import (
    SWEEP_HEADER,
    _build_parser,
    _profile_from_section,
    _profile_per_key,
    _read_config,
    main,
)
from qharm.field import FieldParams

README = Path(__file__).resolve().parent.parent / "README.md"

# the example of README "evolve config format", verbatim
README_EXAMPLE = """\
[field]
q = 2
n = 1
alpha = 1.0

[window]
kmin = -2
kmax = 2

[initial]            ; optional initial state, crown values + tail
c_0 = 1.0 0.0

[forcing]
breakpoints = 0.0 0.5 1.0

[forcing.0]          ; profile on [0.0, 0.5); omitted sections mean zero
c_1 = 0.5 -0.25

[output]
times = 0.25 1.0
file = out.csv       ; optional, default stdout
"""

# SHA-256 of the CSV that TestEvolve.CONFIG and README_EXAMPLE give (the same
# problem), recorded when configparser still read the config
EVOLVE_CSV_SHA256 = "aedd79cc2daa24428d578489131fcaf76628ceaf6a1e903734af0b2debeea2de"


# SHA-256 of the stdout of `qharm kernel --sweep` on three fields and of the
# three kernel suites of `qharm verify`; each prints the kernel evaluators'
# values, so their last bits are pinned here
KERNEL_STDOUT_SHA256 = {
    "sweep-q2n1a1": (
        ["kernel", "--q", "2", "--n", "1", "--alpha", "1.0", "--sweep"],
        "7206b9d08a5c670d0eab35de6c802b4bf20ce2e009f63ce9c2f6c33aab139271",
    ),
    "sweep-q3n2a0.5": (
        ["kernel", "--q", "3", "--n", "2", "--alpha", "0.5", "--sweep"],
        "e007685d99f8679886ce4fdb7ba1799c5f4dba93de49aa22b2c5f6d7a5087a0a",
    ),
    "sweep-q2n2a2": (
        ["kernel", "--q", "2", "--n", "2", "--alpha", "2.0", "--sweep"],
        "bc5cbbf8d2275eebd48379915191119744f4d42f97ed971d707f75c65a432a8e",
    ),
    "kernel-agree": (
        ["verify", "kernel-agree"],
        "bdaf16e3ee349359ce499c7746e6423e81bfb5a65ae514167564d3cfd05fbdbe",
    ),
    "kernel-bounds": (
        ["verify", "kernel-bounds"],
        "928693c04a31b28c36db5c6fed793a64b24b07464b8ff65f284d5397aa423aa7",
    ),
    "semigroup": (
        ["verify", "semigroup"],
        "047e6f92cf8070f5ce4cb78d87769a2df59b7c0f34af82a8e78234ad9bd18556",
    ),
}


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

    @pytest.mark.parametrize("z", ["abc", "1,abc", "abc,0", "", "1,2,3"])
    def test_bad_z_is_usage_error(self, capsys, z):
        code, out, err = run_cli(capsys, "gamma", "--q", "2", "--n", "1", "--z", z)
        assert code == 1 and out == ""
        assert err == f"usage error: --z expects RE or RE,IM, got {z!r}\n"

    @pytest.mark.parametrize("z", ["nan", "inf", "-inf", "1,nan", "nan,0", "0,-inf", "1e400"])
    def test_non_finite_z_is_usage_error(self, capsys, z):
        # these printed value=nan+nanj with exit 0
        code, out, err = run_cli(capsys, "gamma", "--q", "2", "--n", "1", f"--z={z}")
        assert code == 1 and out == ""
        assert err == f"usage error: --z must be finite, got {z!r}\n"


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

    @pytest.mark.parametrize("z", ["abc", "0.5,x"])
    def test_bad_z_is_usage_error(self, capsys, z):
        code, out, err = run_cli(
            capsys, "kernel", "--q", "2", "--n", "1", "--alpha", "1", "--kx", "0", "--z", z
        )
        assert code == 1 and out == ""
        assert err == f"usage error: --z expects RE or RE,IM, got {z!r}\n"

    @pytest.mark.parametrize("z", ["nan", "1,inf"])
    def test_non_finite_z_is_usage_error(self, capsys, z):
        code, out, err = run_cli(
            capsys, "kernel", "--q", "2", "--n", "1", "--alpha", "1", "--kx", "0", f"--z={z}"
        )
        assert code == 1 and out == ""
        assert err == f"usage error: --z must be finite, got {z!r}\n"


    def test_estimate_factor_past_float_range_fails(self, capsys):
        # printed bound_ratio=nan with exit 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "kernel", "--q", "2", "--n", "1", "--alpha", "0.5", "--z", "1",
                "--kx", "-1100",
            )
        assert code == 1 and out == ""
        assert err == (
            "WindowOverflowError: estimate factor at Re z = 1.0, ||x|| = 2**1100 "
            "is no finite float\n"
        )



@pytest.mark.parametrize("name", list(KERNEL_STDOUT_SHA256))
def test_kernel_stdout_pinned(capsys, name):
    argv, digest = KERNEL_STDOUT_SHA256[name]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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

    @pytest.mark.parametrize(
        "argv, flags",
        [
            (["spheres", "--q", "3"], "--q"),
            (["spheres", "--q", "7", "--update-baselines"], "--q, --update-baselines"),
            (["levy", "--update-baselines"], "--update-baselines"),
            (["kernel-bounds", "--alpha", "1"], "--alpha"),
        ],
        ids=["spheres-q", "spheres-q-update", "levy-update", "kernel-bounds-alpha"],
    )
    def test_flag_the_suite_does_not_take_is_usage_error(self, capsys, argv, flags):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 1 and out == ""
        assert err == f"usage error: suite {argv[0]} does not take {flags}\n"

    @pytest.mark.parametrize("given", [["--q", "5"], ["--q", "2", "--n", "1"], ["--alpha", "1"]])
    def test_taibleson_refuses_a_partial_triple(self, capsys, given):
        code, out, err = run_cli(capsys, "verify", "taibleson", *given)
        assert code == 1 and out == ""
        assert err == (
            "ValueError: the taibleson suite takes all of q, n and alpha or none of them\n"
        )

    def test_kernel_bounds_maxima_are_those_of_the_sweep_rows(self):
        for combo in verification.verify_kernel_bounds()["combos"]:
            rows = verification.kernel_sweep_rows(
                FieldParams(combo["q"], combo["n"], combo["alpha"])
            )
            assert combo["max_bound_ratio"] == max(r["bound_ratio"] for r in rows)
            assert combo["max_l1_ratio"] == max(r["l1_ratio"] for r in rows)

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

    @pytest.mark.parametrize("theta", ["inf", "-inf", "nan", "1e400"])
    def test_non_finite_theta_is_usage_error(self, capsys, theta):
        # inf gave "ValueError: math domain error", nan a semigroup-time error
        code, out, err = run_cli(capsys, "rbound", f"--theta={theta}", "--trials", "4")
        assert code == 1 and out == ""
        assert err == f"usage error: --theta must be finite, got {float(theta)!r}\n"

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
        assert err.startswith("usage error: config file '/nonexistent.ini' cannot be read")

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

    def test_stdout_pinned(self, capsys, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(self.CONFIG)
        code, out, _ = run_cli(capsys, "evolve", "--config", str(cfg))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == EVOLVE_CSV_SHA256

    def test_readme_example_pinned(self, capsys, tmp_path, monkeypatch):
        assert README_EXAMPLE in README.read_text()
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.ini").write_text(README_EXAMPLE)
        code, out, _ = run_cli(capsys, "evolve", "--config", "run.ini")
        assert code == 0
        assert out == "wrote 116 rows to out.csv\n"
        csv = (tmp_path / "out.csv").read_bytes()
        assert hashlib.sha256(csv).hexdigest() == EVOLVE_CSV_SHA256

    def test_continued_breakpoints_give_the_same_csv(self, capsys, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(self.CONFIG.replace("0.0 0.5 1.0", "0.0\n    0.5  ; mid\n\n    1.0"))
        code, out, _ = run_cli(capsys, "evolve", "--config", str(cfg))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == EVOLVE_CSV_SHA256

    def test_one_number_values_match_two(self, capsys, tmp_path):
        # "RE" rows fail the array pass and take the per-key pass
        cfg = tmp_path / "run.ini"
        cfg.write_text(self.CONFIG.replace("c_0 = 1.0 0.0", "c_0 = 1.0\ntail = -0.5"))
        _, one, _ = run_cli(capsys, "evolve", "--config", str(cfg))
        cfg.write_text(self.CONFIG.replace("c_0 = 1.0 0.0", "c_0 = 1.0 0.0\ntail = -0.5 0"))
        _, two, _ = run_cli(capsys, "evolve", "--config", str(cfg))
        assert one == two and one.startswith("t,k,re,im\n")

    def test_duplicate_crown_is_usage_error(self, capsys, tmp_path):
        # the last value used to win without a word
        cfg = tmp_path / "run.ini"
        cfg.write_text(self.CONFIG.replace("c_0 = 1.0 0.0", "c_00 = 5 0\nc_0 = 2 0"))
        code, out, err = run_cli(capsys, "evolve", "--config", str(cfg))
        assert code == 1 and out == ""
        assert err == "usage error: [initial] c_00 and c_0 both name crown 0\n"

    @pytest.mark.parametrize(
        "old,new,prefix",
        [
            ("c_0 = 1.0 0.0", "c_x = 1 0", "[initial] c_x = '1 0': "),
            ("q = 2", "q = 2.5", "[field] q = '2.5': "),
            ("alpha = 1.0", "alpha = one", "[field] alpha = 'one': "),
            ("kmin = -2", "kmin = 3", "[window] kmin = 3: "),
            ("c_1 = 0.5 -0.25", "c_9 = 0.5 -0.25", "[forcing.0] c_9 = '0.5 -0.25': "),
            ("c_0 = 1.0 0.0", "c_-3 = 1.0 0.0", "[initial] c_-3 = '1.0 0.0': "),
            ("c_1 = 0.5 -0.25", "d_1 = 0.5 -0.25", "[forcing.0] d_1 = '0.5 -0.25': "),
        ],
        ids=[
            "crown-key", "int-q", "float-alpha", "kmin-above-kmax", "above-window",
            "below-window", "key",
        ],
    )
    def test_typed_config_errors(self, capsys, tmp_path, old, new, prefix):
        # the first three used to exit 1 with an untyped ValueError
        cfg = tmp_path / "run.ini"
        cfg.write_text(self.CONFIG.replace(old, new))
        code, out, err = run_cli(capsys, "evolve", "--config", str(cfg))
        assert code == 1 and out == ""
        assert err.startswith("usage error: " + prefix)

    @pytest.mark.parametrize(
        "old,new,prefix",
        [
            ("c_0 = 1.0 0.0", "c_0 = nan 0", "[initial] c_0 = 'nan 0'"),
            ("c_0 = 1.0 0.0", "c_0 = 1.0 inf", "[initial] c_0 = '1.0 inf'"),
            ("c_0 = 1.0 0.0", "c_0 = 1e400", "[initial] c_0 = '1e400'"),
            ("c_1 = 0.5 -0.25", "tail = -inf 0", "[forcing.0] tail = '-inf 0'"),
        ],
    )
    def test_non_finite_profile_value_is_usage_error(self, capsys, tmp_path, old, new, prefix):
        # these failed deep in the window extension, the inf one as a
        # misleading WindowOverflowError
        cfg = tmp_path / "run.ini"
        cfg.write_text(self.CONFIG.replace(old, new))
        code, out, err = run_cli(capsys, "evolve", "--config", str(cfg))
        assert code == 1 and out == ""
        assert err == f"usage error: {prefix}: expected finite numbers\n"

    def test_window_past_float_range_fails_before_any_warning(self, capsys, tmp_path):
        # the crown-weight check runs before the eigenvalues and the Duhamel
        # factors are built, so no overflow or invalid-value warning comes first
        cfg = tmp_path / "run.ini"
        cfg.write_text(self.CONFIG.replace("kmax = 2", "kmax = 100000"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "evolve", "--config", str(cfg))
        assert code == 1 and out == ""
        assert err == (
            "WindowOverflowError: crown weight q**(100001) at q=2 leaves the float range\n"
        )

    def test_eigenvalue_past_float_range_fails_before_any_warning(self, capsys, tmp_path):
        # alpha > n: the eigenvalue q**(-alpha kmin) leaves the float range
        # before the crown weights do; this printed 182 nan rows with exit 0
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            self.CONFIG.replace("alpha = 1.0", "alpha = 2.0").replace("kmax = 2", "kmax = 600")
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "evolve", "--config", str(cfg))
        assert code == 1 and out == ""
        assert err == "WindowOverflowError: eigenvalue q**(1202) at q=2 leaves the float range\n"

    def test_array_pass_matches_per_key_pass(self):
        rng = np.random.default_rng(7)
        vals = rng.standard_normal((12, 2)) * 10.0 ** rng.integers(-320, 300, (12, 2))
        vals[0] = (-0.0, 0.0)
        vals[1] = (0.0, -0.0)
        texts = [f"{re!r} {im!r}" for re, im in vals.tolist()]
        section = {f"c_{k}": t for k, t in zip(rng.permutation(11) - 5, texts)}
        section["tail"] = texts[-1]
        params = FieldParams(3, 1, 0.5)
        fast = _profile_from_section({"s": section}, "s", params, -5, 5)
        slow = _profile_per_key(section, "s", params, -5, 5)
        assert fast.coeffs.tobytes() == slow.coeffs.tobytes()
        assert repr(fast.tail) == repr(slow.tail)


def _configparser_sections(path) -> dict:
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";", "#"))
    cp.read(path)
    return {name: dict(cp[name]) for name in cp.sections()}


class TestConfigReader:
    CORPUS = {
        "readme": README_EXAMPLE,
        "delimiters-case-comments": """\
# a full-line comment before any section
; and another

[Field]
Q: 2
N = 1
ALPHA : 1.0
  # an indented comment line
My Key=value#not a comment
url: http://host/a=b
file = a:b=c.csv ; a comment after whitespace
empty =

[output]   # a comment after a header
times:0.25 1.0\t; tab before the comment
""",
        "continuations-percent": """\
[forcing]
breakpoints = 0.0
    0.5   ; mid
  1.0
pct = 50% of 100%%
multi = first

   after a blank line
  # a comment inside the value
   last


[output]
times = 0.25
  1.0
last = %(not interpolated)s
""",
    }
    MALFORMED = {  # text -> whether configparser raises on it
        "[a]\nx = 1\n[a]\ny = 2\n": True,
        "[a]\nx = 1\nX = 2\n": True,
        "x = 1\n[a]\n": True,
        "[a]\njust words\n": True,
        "[DEFAULT]\nx = 1\n[a]\n": False,
    }

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_matches_configparser(self, tmp_path, name):
        cfg = tmp_path / "c.ini"
        cfg.write_text(self.CORPUS[name])
        mine, ref = _read_config(str(cfg)), _configparser_sections(cfg)
        assert mine == ref
        assert [list(s.items()) for s in mine.values()] == [list(s.items()) for s in ref.values()]

    def test_corpus_reads_as_documented(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text(self.CORPUS["continuations-percent"])
        got = _read_config(str(cfg))
        assert got["forcing"]["breakpoints"] == "0.0\n0.5\n1.0"
        assert got["forcing"]["multi"] == "first\n\nafter a blank line\nlast"
        assert got["forcing"]["pct"] == "50% of 100%%"
        cfg.write_text(self.CORPUS["delimiters-case-comments"])
        got = _read_config(str(cfg))
        assert list(got) == ["Field", "output"]
        assert got["Field"]["my key"] == "value#not a comment"
        assert got["Field"]["url"] == "http://host/a=b"
        assert got["Field"]["file"] == "a:b=c.csv"
        assert got["Field"]["empty"] == ""

    @pytest.mark.parametrize("text", list(MALFORMED), ids=[
        "repeated-section", "repeated-key", "key-before-section", "no-delimiter", "DEFAULT",
    ])
    def test_malformed_is_usage_error(self, capsys, tmp_path, text):
        cfg = tmp_path / "run.ini"
        cfg.write_text(text + TestEvolve.CONFIG)
        if self.MALFORMED[text]:
            with pytest.raises(configparser.Error):
                _configparser_sections(cfg)
        code, out, err = run_cli(capsys, "evolve", "--config", str(cfg))
        assert code == 1 and out == ""
        assert err.startswith("usage error: bad config: line ")


class TestParser:
    def test_built_once_and_reusable(self):
        assert _build_parser() is _build_parser()
        assert _build_parser().parse_args(["rbound", "--p", "2"]).p == 2.0
        assert _build_parser().parse_args(["rbound"]).p == 4.0


class TestVerifyOverflow:
    def test_taibleson_weight_past_float_range(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "taibleson", "--q", "5", "--n", "3", "--alpha", "100"
        )
        assert code == 1 and out == ""
        assert err == "WindowOverflowError: crown weight q**(497) at q=5 leaves the float range\n"


class TestExponentDomain:
    """An exponent or a Gamma argument past the floats exits 1 with one typed
    error line, run as a fresh process so a traceback would reach stderr."""

    CASES = {
        "rbound-alpha-inf": (["rbound", "--alpha", "inf", "--trials", "2"],
                             "ValueError: exponent alpha must be positive and finite, got inf"),
        "levy-alpha-inf": (["verify", "levy", "--alpha", "inf"],
                           "ValueError: exponent alpha must be positive and finite, got inf"),
        "kernel-alpha-1e308": (
            ["kernel", "--q", "2", "--n", "1", "--alpha", "1e308", "--z", "1", "--kx", "0"],
            "WindowOverflowError: field step q**(1e+308) at q=2 leaves the float range",
        ),
        "kernel-alpha-1100": (
            ["kernel", "--q", "2", "--n", "1", "--alpha", "1100", "--z", "1", "--kx", "0"],
            "WindowOverflowError: field step q**(1100) at q=2 leaves the float range",
        ),
        **{
            f"gamma-z{z}": (
                ["gamma", "--q", "2", "--n", "1", f"--z={z}"],
                f"WindowOverflowError: a power of q=2 in Gamma_q^(1)(({float(z):g}+0j)) "
                "leaves the float range",
            )
            for z in ("-2000", "2000", "1e308")
        },
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_typed_error_and_no_traceback(self, case):
        argv, line = self.CASES[case]
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(qharm.__file__))}
        out = subprocess.run([sys.executable, "-m", "qharm.cli", *argv], env=env,
                             capture_output=True, text=True)
        assert out.returncode == 1 and out.stdout == ""
        assert "Traceback" not in out.stderr
        assert out.stderr == line + "\n"

"""Command-line contract: exit codes, JSON shape, cache, config precedence."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import qtheta
from qtheta.cli import main


def run_cli(*argv):
    """In-process invocation capturing stdout."""
    import contextlib
    import io
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_expand():
    code, out, _ = run_cli("expand", "F0_star", "--order", "20")
    assert code == 0
    assert out.strip() == "D=1; T=20; K=1; 0:1 1:-1 5:-1 10:1 11:-1 18:1"


def test_verify_single_pass_and_fail():
    code, out, _ = run_cli("verify", "prop_3rd_nu", "--order", "60")
    assert code == 0 and "PASS" in out
    code, out, _ = run_cli("verify", "negative_control")
    assert code == 1 and "FAIL" in out


def test_verify_json_mismatch_field():
    code, out, _ = run_cli("--json", "verify", "negative_control")
    assert code == 1
    payload = json.loads(out)
    assert payload["schema"] == 1
    rep = payload["results"]["reports"][0]
    assert rep["status"] == "fail"
    assert rep["first_mismatch"] == "7"


def test_verify_tag_subset_exits_zero():
    code, out, _ = run_cli("verify", "--all", "--tags", "structural", "--order", "60")
    assert code == 0
    assert out.count("PASS") == 3


def test_unknown_inputs_exit_two():
    code, _, err = run_cli("expand", "not_a_function", "--order", "5")
    assert code == 2 and "unknown" in err
    code, _, err = run_cli("verify", "unknown_identity")
    assert code == 2
    code, _, err = run_cli("wrt", "sigma_2_3_5", "1")
    assert code == 2
    code, _, _ = run_cli("dsl", "poch(q; 1")
    assert code == 2


def test_usage_error_exit_two():
    code, out, err = run_cli("definitely_not_a_command")
    assert code == 2


def test_wrt_json():
    code, out, _ = run_cli("--json", "wrt", "sigma_2_3_5", "3")
    assert code == 0
    payload = json.loads(out)
    res = payload["results"]
    assert res["manifold"] == "sigma_2_3_5" and res["N"] == 3
    assert res["value"]["cyclotomic"].startswith("M=")


def test_wrt_cross():
    code, out, _ = run_cli("wrt", "sigma_2_3_5", "3", "--cross")
    assert code == 0 and "PASS" in out


def test_dsl_exit_codes():
    code, out, _ = run_cli("dsl", "poch(q;1;2) == 1 - q - q^2 + q^3")
    assert code == 0
    code, out, _ = run_cli("dsl", "poch(q;1;2) == 1 - q", "--order", "10")
    assert code == 1


def test_lvalue():
    code, out, _ = run_cli("lvalue", "chi60_111", "1", "--method", "cos_generating")
    assert code == 0 and out.strip() == "-238"
    code, out, _ = run_cli("lvalue", "chi60_111", "1", "--method", "bernoulli")
    assert out.strip() == "-238"


def test_cache_round_trip(tmp_path):
    cache = str(tmp_path / "cache")
    code1, out1, _ = run_cli("verify", "prop_3rd_nu", "--order", "40",
                             "--cache", cache)
    files = list((tmp_path / "cache").glob("*.json"))
    assert code1 == 0 and len(files) == 1
    code2, out2, _ = run_cli("verify", "prop_3rd_nu", "--order", "40",
                             "--cache", cache)
    assert code2 == code1 and out2 == out1


def test_config_and_env_precedence(tmp_path, monkeypatch):
    conf = tmp_path / "qtheta.conf"
    conf.write_text("order = 7\n# comment line\ncache_dir =\n")
    code, out, _ = run_cli("expand", "chi0_star", "--config", str(conf))
    assert code == 0 and "T=7;" in out
    monkeypatch.setenv("QTHETA_ORDER", "9")
    code, out, _ = run_cli("expand", "chi0_star", "--config", str(conf))
    assert "T=9;" in out  # environment beats the config file
    code, out, _ = run_cli("expand", "chi0_star", "--config", str(conf),
                           "--order", "11")
    assert "T=11;" in out  # flag beats everything


def test_jobs_parallel_verify():
    code, out, _ = run_cli("verify", "--all", "--tags", "structural",
                           "--order", "40", "--jobs", "2")
    assert code == 0 and out.count("PASS") == 3


def test_installed_entry_point():
    proc = subprocess.run([sys.executable, "-m", "qtheta.cli", "lvalue",
                           "chi24_2", "1"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "-32"


def test_cache_key_holds_resolved_order(tmp_path, monkeypatch):
    cache = str(tmp_path / "cache")
    monkeypatch.setenv("QTHETA_ORDER", "5")
    code, out5, _ = run_cli("expand", "chi0", "--cache", cache)
    assert code == 0 and "T=5;" in out5
    monkeypatch.setenv("QTHETA_ORDER", "12")
    code, out12, _ = run_cli("expand", "chi0", "--cache", cache)
    assert code == 0 and out12.startswith("D=1; T=12; K=1;")


def test_corrupt_cache_file_is_a_miss(tmp_path):
    cache = tmp_path / "cache"
    code, want, _ = run_cli("lvalue", "chi60_111", "1", "--cache", str(cache))
    [entry] = cache.glob("*.json")
    entry.write_text(entry.read_text()[:25])  # a half-written file
    code, out, _ = run_cli("lvalue", "chi60_111", "1", "--cache", str(cache))
    assert code == 0 and out == want
    json.loads(entry.read_text())  # overwritten with a whole entry
    assert [p.name for p in cache.iterdir()] == [entry.name]


def test_program_errors_are_not_usage_errors(monkeypatch):
    from qtheta import lfunc

    def broken(*args, **kw):
        raise ValueError("a bug, not a usage error")

    monkeypatch.setattr(lfunc, "l_value", broken)
    with pytest.raises(ValueError):
        run_cli("lvalue", "chi60_111", "1")


def test_bad_sizes_exit_two(monkeypatch):
    code, out, err = run_cli("expand", "chi0", "--order", "-3")
    assert code == 2 and out == "" and "truncation must be nonnegative" in err
    monkeypatch.setenv("QTHETA_ORDER", "twelve")
    code, _, err = run_cli("expand", "chi0")
    assert code == 2 and "integer" in err


def test_expand_order_zero_is_given():
    code, out, _ = run_cli("expand", "chi0", "--order", "0")
    assert code == 0 and out.strip() == "D=1; T=0; K=1;"


def test_verify_order_zero_exits_two():
    code, out, err = run_cli("verify", "prop_5th_chi0", "--order", "0")
    assert code == 2 and out == "" and "truncation must be at least 1" in err


def test_dsl_equation_order_zero_exits_two():
    code, out, err = run_cli("dsl", "chi0(q) == chi1(q)", "--order", "0")
    assert code == 2 and out == "" and "truncation must be at least 1" in err


def test_missing_config_file_exits_two(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "qtheta.conf").write_text("order = 7\n")
    code, out, err = run_cli("--config", str(tmp_path / "nonexistent.conf"),
                             "expand", "chi0")
    assert code == 2 and out == "" and "config file not found" in err
    monkeypatch.setenv("QTHETA_CONFIG", str(tmp_path / "nonexistent.conf"))
    code, out, err = run_cli("expand", "chi0")
    assert code == 2 and out == "" and "config file not found" in err
    monkeypatch.delenv("QTHETA_CONFIG")
    code, out, _ = run_cli("expand", "chi0")  # ./qtheta.conf is read when present
    assert code == 0 and out.startswith("D=1; T=7;")


def test_unknown_config_key_exits_two(tmp_path):
    conf = tmp_path / "qtheta.conf"
    conf.write_text("oder = 7\n")
    code, out, err = run_cli("--config", str(conf), "expand", "chi0")
    assert code == 2 and out == "" and "unknown config key 'oder'" in err


def test_cache_key_holds_source_digest(tmp_path):
    """An entry stored by one version of the sources is a miss for another."""
    package = tmp_path / "src" / "qtheta"
    shutil.copytree(Path(qtheta.__file__).parent, package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {"PYTHONPATH": str(package.parent), "PATH": ""}
    argv = [sys.executable, "-m", "qtheta.cli", "--json", "--cache",
            str(tmp_path / "cache"), "expand", "chi0", "--order", "5"]

    def cached() -> bool:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
        return json.loads(proc.stdout)["cached"]

    assert not cached() and cached()
    errors = package / "errors.py"
    errors.write_bytes(errors.read_bytes() + b"\n")
    assert not cached()


def test_cache_hit_is_marked(tmp_path):
    cache = str(tmp_path / "cache")
    code1, out1, _ = run_cli("--json", "verify", "prop_3rd_nu", "--order", "40",
                             "--cache", cache)
    code2, out2, _ = run_cli("--json", "verify", "prop_3rd_nu", "--order", "40",
                             "--cache", cache)
    miss, hit = json.loads(out1), json.loads(out2)
    assert code1 == code2 == 0
    assert miss["cached"] is False and hit["cached"] is True
    assert hit["results"] == miss["results"] and hit["schema"] == 1
    assert isinstance(hit["elapsed_ms"], float)


def test_asym_bad_arguments_exit_two():
    for argv in (("5", "7", "3", "2"), ("5", "0", "3", "2"), ("5", "1", "0", "2"),
                 ("5", "1", "3", "-1")):
        code, out, err = run_cli("asym", *argv)
        assert code == 2 and out == "" and err.startswith("error: "), argv


def test_wrt_normalization_below_two_exits_two():
    for manifold in ("s3", "s2xs1"):
        code, out, err = run_cli("wrt", manifold, "0")
        assert code == 2 and out == "" and "at least 2" in err


def test_verify_tags_matching_nothing_exits_two():
    code, out, err = run_cli("verify", "--all", "--tags", "nope")
    assert code == 2 and out == "" and "no identity record" in err


def test_unknown_id_message_is_not_quoted():
    code, _, err = run_cli("verify", "nope")
    assert code == 2 and err.startswith("error: unknown identity id: 'nope'")


def test_hatcheck_bad_tolerance_exits_two():
    for tol in ("0", "inf", "nan", "-1"):
        code, out, err = run_cli("hatcheck", "5", "1", "0.1", "-0.5", "--tol", tol)
        assert code == 2 and out == "" and "tolerance must be finite and positive" in err, tol


def test_wrt_cross_on_normalization_exits_two():
    for manifold in ("s3", "s2xs1"):
        code, out, err = run_cli("wrt", manifold, "5", "--cross")
        assert code == 2 and out == "" and "nothing to cross-verify" in err, manifold


def test_precision_bits_below_64_exits_two(tmp_path, monkeypatch):
    """Values print with 17 significant digits, so an embedding below 64 bits
    would print wrong digits; it is refused from the environment and from a
    config file alike."""
    monkeypatch.chdir(tmp_path)
    argv = ("wrt", "sigma_2_3_5", "7")
    for bits in ("0", "63"):
        monkeypatch.setenv("QTHETA_PRECISION_BITS", bits)
        code, out, err = run_cli(*argv)
        assert code == 2 and out == "" and f"precision_bits must be at least 64, got {bits}" in err
    monkeypatch.setenv("QTHETA_PRECISION_BITS", "64")
    code, out, _ = run_cli(*argv)
    assert code == 0 and "complex: (-3.64794847161988" in out
    monkeypatch.delenv("QTHETA_PRECISION_BITS")
    (tmp_path / "qtheta.conf").write_text("precision_bits = 32\n")
    code, out, err = run_cli(*argv)
    assert code == 2 and out == "" and "precision_bits must be at least 64" in err


def test_jobs_below_one_exits_two(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ("verify", "--all", "--tags", "structural", "--order", "40")
    for jobs in ("0", "-1"):
        code, out, err = run_cli(*argv, "--jobs", jobs)
        assert code == 2 and out == "" and f"jobs must be at least 1, got {jobs}" in err
    monkeypatch.setenv("QTHETA_JOBS", "0")
    code, out, err = run_cli(*argv)
    assert code == 2 and out == "" and "jobs must be at least 1" in err
    code, out, _ = run_cli(*argv, "--jobs", "1")
    assert code == 0 and out.count("PASS") == 3  # the flag beats the environment
    monkeypatch.delenv("QTHETA_JOBS")
    (tmp_path / "qtheta.conf").write_text("jobs = -1\n")
    code, out, err = run_cli(*argv)
    assert code == 2 and out == "" and "jobs must be at least 1" in err

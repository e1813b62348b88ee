import json
import os
import subprocess
import sys
import warnings

import pytest

from helpers import FIXTURES, REPO, run_cli


def test_homology_rp5_table():
    code, out, _ = run_cli("homology", "rp:5")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "P_t = 1 + t^5"
    assert "     1  Z/2" in lines
    assert "     5  Z" in lines


def test_homology_twisted_rp3():
    code, out, _ = run_cli("homology", "rp:3", "--twisted")
    assert code == 0
    assert "     0  Z/2" in out
    assert "     2  Z/2" in out
    assert out.splitlines()[-1] == "P_t = 0"


def test_homology_point():
    code, out, _ = run_cli("homology", "point")
    assert code == 0
    assert out.splitlines()[-1] == "P_t = 1"


def test_homology_errors():
    code, _, err = run_cli("homology", "klein")
    assert code == 2
    assert "unknown space tag" in err
    code, _, err = run_cli("homology", "sphere:2", "--twisted")
    assert code == 3
    assert "orientation character" in err


def test_audit_untwisted_report_and_exit():
    code, out, _ = run_cli("audit", "rp5-counterexample", "--mode", "untwisted")
    assert code == 1
    assert "MB_t = 1 + t + t^4 + t^5" in out
    assert "P_t = 1 + t^5" in out
    assert "FailsNegativeCoefficient at degree 2" in out
    assert "Q = t - t^2 + t^3" in out


def test_audit_local_mode():
    code, out, _ = run_cli("audit", "rp5-counterexample", "--mode", "local")
    assert code == 0
    assert "MB_t = 1 + t^5" in out
    assert "verdict: Holds, Q = 0" in out


def test_audit_accepts_paths_and_bare_names():
    for arg in (
        "rp5-counterexample",
        "rp5-counterexample.json",
        str(FIXTURES / "rp5-counterexample.json"),
    ):
        code, _, _ = run_cli("audit", arg)
        assert code == 1, arg


def test_audit_missing_file():
    code, _, err = run_cli("audit", "no-such-thing")
    assert code == 2
    assert "no such document" in err


def test_audit_malformed_file(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{]")
    assert run_cli("audit", str(p))[0] == 2
    p.write_text(json.dumps({"format": 1, "ambient": "rp:5"}))
    assert run_cli("audit", str(p))[0] == 2  # no criticals to audit


def test_audit_naive_flag():
    code, out, _ = run_cli("audit", "rp5-counterexample", "--naive")
    assert code == 1
    assert "naive E2 (all characters untwisted) total free rank 4" in out
    # without the flag the naive line is absent
    _, out2, _ = run_cli("audit", "rp5-counterexample")
    assert "naive" not in out2


def test_thom_command():
    code, out, _ = run_cli("thom", "sphere:1,1,twisted")
    assert code == 0
    assert "     1  Z/2" in out
    assert out.rstrip().endswith("THOM ISO: fails")
    code, out, _ = run_cli("thom", "sphere:1,1,orientable")
    assert code == 0
    assert out.rstrip().endswith("THOM ISO: holds")
    code, out, _ = run_cli("thom", "point,5,orientable")
    assert "     5  Z" in out
    assert "THOM ISO: holds" in out


def test_thom_errors():
    assert run_cli("thom", "sphere:1,1")[0] == 2
    assert run_cli("thom", "sphere:1,x,twisted")[0] == 2
    assert run_cli("thom", "sphere:2,1,twisted")[0] == 3
    assert run_cli("thom", "point,0,twisted")[0] == 3


def test_morse_plain():
    code, out, _ = run_cli("morse", "s1-moebius")
    assert code == 0
    assert "     0  Z" in out
    assert "     1  Z" in out
    assert "stabilized" not in out
    assert "MATCHES" not in out


def test_morse_stabilize_twist():
    code, out, _ = run_cli("morse", "s1-moebius", "--stabilize", "1", "--twist", "moebius")
    assert code == 0
    assert "stabilized (shift 1, twist moebius):" in out
    assert "     1  Z/2" in out
    assert "MATCHES H(DE-,SE-): yes" in out


def test_morse_stabilize_all_plus():
    code, out, _ = run_cli("morse", "s1-moebius", "--stabilize", "1")
    assert code == 0
    after = out.split("stabilized", 1)[1]
    assert "     1  Z" in after
    assert "     2  Z" in after
    assert "MATCHES H(DE-,SE-): no" in out


def test_morse_unknown_twist_and_missing_block():
    code, _, err = run_cli("morse", "s1-moebius", "--twist", "nope")
    assert code == 2
    assert "no twist named" in err
    code, _, err = run_cli("morse", "rp5-counterexample")
    assert code == 2
    assert "no morse section" in err


def test_morse_inconsistent_twist_exit_4(tmp_path):
    doc = {
        "format": 1,
        "ambient": "sphere:1",
        "morse": {
            "generators": [
                {"label": "a", "index": 0},
                {"label": "b1", "index": 1},
                {"label": "b2", "index": 1},
                {"label": "c", "index": 2},
            ],
            "differentials": {
                "1": {"rows": 1, "cols": 2, "entries": [1, -1]},
                "2": {"rows": 2, "cols": 1, "entries": [1, 1]},
            },
            "twists": {
                "bad": {
                    "1": {"rows": 1, "cols": 2, "entries": [1, -1]},
                    "2": {"rows": 2, "cols": 1, "entries": [1, 1]},
                }
            },
        },
    }
    p = tmp_path / "twist.json"
    p.write_text(json.dumps(doc))
    code, _, err = run_cli("morse", str(p), "--stabilize", "1", "--twist", "bad")
    assert code == 4
    assert "square to zero" in err


def test_morse_twist_shape_mismatch_exit_2(tmp_path):
    doc = json.loads((FIXTURES / "s1-moebius.json").read_text())
    doc["morse"]["twists"]["short"] = {
        "1": {"rows": 2, "cols": 2, "entries": [1, 1, 1, 1]},
        "2": {"rows": 1, "cols": 1, "entries": [1]},
    }
    p = tmp_path / "mismatch.json"
    p.write_text(json.dumps(doc))
    code, _, _ = run_cli("morse", str(p), "--stabilize", "1", "--twist", "short")
    assert code == 2


def test_fixtures_list(tmp_path, monkeypatch):
    code, out, _ = run_cli("fixtures", "list")
    assert code == 0
    lines = out.splitlines()
    names = [line.split()[0] for line in lines]
    assert names == sorted(names)
    for expected in ("rp5-counterexample", "s1-moebius", "torus-perfect"):
        assert expected in names
    missing = tmp_path / "missing"
    monkeypatch.setenv("MBAUDIT_FIXTURES", str(missing))
    assert run_cli("fixtures", "list") == (2, "", f"no fixtures directory at {missing}\n")


def test_cli_golden_replay():
    # stdout and exit code of 143 invocations, recorded byte for byte:
    # audit, morse, homology and thom over the fixtures and catalog spaces
    golden = json.loads((REPO / "tests" / "cli_golden.json").read_text())
    mismatched = [
        case["argv"]
        for case in golden
        if run_cli(*case["argv"])[:2] != (case["code"], case["stdout"])
    ]
    assert mismatched == []


def test_reports_are_deterministic():
    for argv in (
        ("audit", "rp5-counterexample", "--mode", "untwisted", "--naive"),
        ("homology", "torus2", "--twisted"),
        ("thom", "rp:3,1,twisted"),
        ("morse", "s1-moebius", "--stabilize", "1", "--twist", "moebius"),
    ):
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first == second


def test_color_env_toggle(monkeypatch):
    monkeypatch.delenv("MBAUDIT_COLOR", raising=False)
    _, plain, _ = run_cli("audit", "rp5-counterexample")
    assert "\x1b[" not in plain
    monkeypatch.setenv("MBAUDIT_COLOR", "0")
    _, still_plain, _ = run_cli("audit", "rp5-counterexample")
    assert "\x1b[" not in still_plain
    assert still_plain == plain
    monkeypatch.setenv("MBAUDIT_COLOR", "1")
    _, colored, _ = run_cli("audit", "rp5-counterexample")
    assert "\x1b[31m" in colored  # failing verdict painted red
    _, ok, _ = run_cli("audit", "rp5-counterexample", "--mode", "local")
    assert "\x1b[32m" in ok


def test_console_entry_point_runs():
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "mbaudit", "audit", "rp5-counterexample"],
        capture_output=True,
        text=True,
        cwd=REPO,
        env=env,
    )
    assert proc.returncode == 1
    assert "MB_t = 1 + t + t^4 + t^5" in proc.stdout


def test_deeply_nested_document_exits_2_without_traceback(tmp_path):
    p = tmp_path / "deep.json"
    p.write_text("[" * 100_000 + "]" * 100_000)
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    for command in ("audit", "morse"):
        proc = subprocess.run(
            [sys.executable, "-m", "mbaudit", command, str(p)],
            capture_output=True, text=True, cwd=REPO, env=env,
        )
        assert (proc.returncode, proc.stdout) == (2, ""), command
        assert proc.stderr == "error: invalid JSON: nested too deeply\n"


def test_format_true_exits_2(tmp_path):
    doc = json.loads((FIXTURES / "rp5-counterexample.json").read_text())
    doc["format"] = True
    p = tmp_path / "format-true.json"
    p.write_text(json.dumps(doc))
    assert run_cli("audit", str(p)) == (2, "", "error: unsupported format True, expected 1\n")


def test_a_library_warning_as_an_error_exits_2(tmp_path):
    circle = {"ranks": [1, 1], "boundaries": [{"rows": 1, "cols": 1, "entries": [0]}]}
    point_at_1 = {"space": "point", "index": 1, "negative_character": "orientable"}
    p = tmp_path / "doc.json"
    for criticals, message in [
        ([], "no critical submanifolds given"),
        ([point_at_1], "no index-0 critical submanifold; minimum missing?"),
    ]:
        p.write_text(json.dumps({"format": 1, "ambient": circle, "criticals": criticals}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for command in ("audit", "morse"):
                assert run_cli(command, str(p)) == (2, "", f"error: {message}\n"), command


def test_usage_error_is_exit_2():
    assert run_cli("audit")[0] == 2
    assert run_cli("nonsense")[0] == 2


def test_thom_rank_takes_ascii_digits_only():
    code, out, _ = run_cli("thom", "point, 3 ,orientable")
    assert code == 0
    assert "     3  Z" in out
    for rank in ("\u0663", "-1", "+3", "3.0", ""):
        code, out, err = run_cli("thom", f"point,{rank},orientable")
        assert code == 2, rank
        assert out == ""
        assert err == f"error: bundle rank must be an integer, got {rank!r}\n"


def test_morse_stabilize_takes_ascii_digits_only():
    _, plain, _ = run_cli("morse", "s1-moebius", "--stabilize", "1")
    assert run_cli("morse", "s1-moebius", "--stabilize", " 1 ")[1] == plain
    for rank in ("\u0661", "-1", "x"):
        code, out, err = run_cli("morse", "s1-moebius", "--stabilize", rank)
        assert code == 2, rank
        assert out == ""
        assert err == f"error: stabilization rank must be an integer, got {rank!r}\n"


def test_internal_check_failure_is_exit_5(monkeypatch):
    import mbaudit.morsebott
    from mbaudit import IntPoly

    monkeypatch.setattr(
        mbaudit.morsebott, "divide_by_one_plus_t", lambda p: IntPoly([0, 1, -1, 2])
    )
    code, out, err = run_cli("audit", "rp5-counterexample")
    assert code == 5
    assert out == ""
    assert err.startswith("error: internal check failed: (1 + t) * ")
    assert "Traceback" not in err


def test_degree_limit_exits_2():
    huge = "1" + "0" * 30
    assert run_cli("thom", f"point,{huge},orientable") == (
        2, "", "error: bundle rank must be at most 10000, got 31 digits\n"
    )
    assert run_cli("morse", "s1-moebius", "--stabilize", "10001") == (
        2, "", "error: stabilization rank must be at most 10000, got 10001\n"
    )
    assert run_cli("homology", "sphere:10001") == (
        2, "", "error: space: dimension must be at most 10000, got 10001\n"
    )
    code, out, _ = run_cli("thom", "point,10000,orientable")
    assert code == 0
    assert out.endswith(" 10000  Z\nTHOM ISO: holds\n")


def test_morse_differential_shape_exit_2(tmp_path):
    doc = {
        "format": 1,
        "ambient": "sphere:1",
        "morse": {
            "generators": [
                {"label": "a", "index": 0},
                {"label": "b", "index": 0},
                {"label": "c", "index": 1},
            ],
            "differentials": {"1": {"rows": 1, "cols": 1, "entries": [0]}},
        },
    }
    p = tmp_path / "shape.json"
    p.write_text(json.dumps(doc))
    assert run_cli("morse", str(p)) == (2, "", "error: d_1 must be 2x1, got 1x1\n")


def test_degrees_on_the_command_line_have_one_spelling():
    for argv, what, text in [
        (("homology", "rp:03"), "space: dimension", "03"),
        (("thom", "point,01,orientable"), "bundle rank", "01"),
        (("thom", "point, 01 ,orientable"), "bundle rank", "01"),
        (("morse", "s1-moebius", "--stabilize", "01"), "stabilization rank", "01"),
        (("morse", "s1-moebius", "--stabilize", "00"), "stabilization rank", "00"),
    ]:
        assert run_cli(*argv) == (2, "", f"error: {what} must be an integer, got {text!r}\n"), argv
    assert run_cli("morse", "s1-moebius", "--stabilize", "0")[0] == 0


def test_long_degrees_on_the_command_line_give_the_degree_message():
    # int() would refuse these with Python's own "Exceeds the limit" text
    nines = "9" * 5000
    assert run_cli("homology", f"rp:{nines}") == (
        2, "", "error: space: dimension must be at most 10000, got 5000 digits\n"
    )
    assert run_cli("morse", "s1-moebius", "--stabilize", nines) == (
        2, "", "error: stabilization rank must be at most 10000, got 5000 digits\n"
    )
    assert run_cli("thom", f"point,{nines},orientable") == (
        2, "", "error: bundle rank must be at most 10000, got 5000 digits\n"
    )

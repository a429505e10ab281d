import json
import math

import numpy as np
import pytest

from chamberwalk import convolve
from chamberwalk.cli import main
from chamberwalk.walk import substream


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_rho_command(capsys):
    code, out = run_cli(capsys, "rho", "B", "3")
    assert code == 0
    data = json.loads(out)
    assert data["rho"] == [5.0, 3.0, 1.0]
    assert data["manifest"]["command"] == "rho"
    assert "version" in data["manifest"]


def test_eval_semicharacter(capsys):
    code, out = run_cli(capsys, "eval", "semichar", "A", "1", "--x", "[1,-1]")
    assert code == 0
    data = json.loads(out)
    assert np.isclose(data["value_re"], 1.8134302039235095)
    assert data["regularized"] is False


def test_eval_m1(capsys):
    code, out = run_cli(capsys, "eval", "m1", "A", "1", "--x", "[1,-1]")
    assert code == 0
    data = json.loads(out)
    assert np.allclose(data["value"], [0.5373147207275482, -0.5373147207275482])


def test_eval_psi_trivial(capsys):
    code, out = run_cli(capsys, "eval", "psi", "A", "2",
                        "--lambda", "[0,0,0]", "--x", "[0,0,0]")
    assert code == 0
    data = json.loads(out)
    assert data["value_re"] == 1.0 and data["value_im"] == 0.0


def test_eval_phi_regularized_flag(capsys):
    code, out = run_cli(capsys, "eval", "phi", "A", "2",
                        "--lambda", "[1,0,-1]", "--x", "[0.5,0.5,-1]")
    assert code == 0
    data = json.loads(out)
    assert data["regularized"] is True
    assert data["est_abs_error"] > 0


def test_usage_errors_exit_2(capsys):
    assert main(["eval", "psi", "A", "2", "--x", "[1,0,-1]"]) == 2  # missing lambda
    capsys.readouterr()
    assert main(["eval", "semichar", "A", "2", "--x", "[1,-1]"]) == 2  # wrong dim
    capsys.readouterr()
    assert main(["eval", "semichar", "A", "2", "--x", "not-json"]) == 2
    capsys.readouterr()
    assert main(["rho", "B", "1"]) == 2  # rank below minimum
    capsys.readouterr()
    assert main(["convolve", "hermitian", "--d", "2", "--x", "[2,-1]", "--y", "[1,-1]"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["check", "deformation", "--d", "2", "--x", "[1,-1]", "--y", "[0.5,-0.5]", "--n", "0"],
    ["check", "semichar-mult", "--d", "2", "--x", "[1,-1]", "--y", "[1,-1]", "--n", "0"],
    ["check", "transform-homomorphism", "--d", "2", "--x", "[1,-1]", "--y", "[1,-1]",
     "--lambda", "[0.3,-0.3]", "--n", "0"],
    ["convolve", "hermitian", "--d", "2", "--x", "[1,-1]", "--y", "[1,-1]", "--n", "0"],
    ["convolve", "group", "--d", "2", "--x", "[1,-1]", "--y", "[0,0]", "--n", "-3"],
])
def test_sample_size_below_one_exits_2(argv, capsys, recwarn):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == "error: sample size n must be at least 1, got %s\n" % argv[-1], err
    assert not recwarn.list


@pytest.mark.parametrize("argv", [
    ["eval", "psi", "A", "1", "--x", "[NaN,0]", "--lambda", "[1,-1]"],
    ["eval", "phi", "A", "1", "--x", "[1,-1]", "--lambda", "[Infinity,-1]"],
    ["eval", "semichar", "A", "1", "--x", "[NaN,0]"],
    ["eval", "m1", "A", "2", "--x", "[Infinity,0,-1]"],
    ["check", "deformation", "--d", "2", "--x", "[1,-1]", "--y", "[1,-1]", "--lambda", "[NaN,0]"],
])
def test_non_finite_vectors_exit_2(argv, capsys, recwarn):
    flag = next(argv[i - 1] for i, a in enumerate(argv) if "NaN" in a or "Infinity" in a)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} has non-finite entries\n", captured.err
    assert not recwarn.list


def test_non_finite_result_exits_2_and_writes_nothing(tmp_path, capsys):
    # m1's alternating sum cancels to 0 at this small B3 point, and m1 refuses
    # the non-finite value rather than print it
    argv = ["eval", "m1", "B", "3", "--x", "[0.0065,0.0035,0.0012]"]
    out = tmp_path / "m1.json"
    for extra in ([], ["--out", str(out)]):
        assert main(argv + extra) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1, captured.err
        assert captured.err.startswith(
            "error: m1 is not finite at x = [0.0065, 0.0035, 0.0012]"), captured.err
    assert not out.exists()


_OVERFLOW = ["--d", "3", "--x", "[400,0,-400]", "--y", "[400,0,-400]", "--n", "100"]


@pytest.mark.parametrize("argv, message", [
    (["convolve", "group", *_OVERFLOW],
     "error: group cloud overflows a float at x = [400.0, 0.0, -400.0], y = [400.0, 0.0, -400.0]"),
    (["check", "deformation", *_OVERFLOW],
     "error: group cloud overflows a float at x = [400.0, 0.0, -400.0], y = [400.0, 0.0, -400.0]"),
    # a cloud with a non-finite row, from the sampler patched below
    (["convolve", "hermitian", "--d", "2", "--x", "[1,-1]", "--y", "[1,-1]", "--n", "100"],
     "error: atoms has non-finite entries"),
])
def test_a_failed_cloud_command_writes_no_file(argv, message, tmp_path, capsys, recwarn,
                                               monkeypatch):
    real = convolve.conv_hermitian_cloud
    monkeypatch.setattr(convolve, "conv_hermitian_cloud",
                        lambda *a: np.vstack([real(*a)[:-1], [np.nan, np.nan]]))
    out = str(tmp_path / "g") + (".json" if argv[0] == "check" else "")
    assert main(argv + ["--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n", captured.err
    assert not recwarn.list
    assert list(tmp_path.iterdir()) == []


_OUT_OF_RANGE = "is out of range: a root pairing exceeds half the largest float"


@pytest.mark.parametrize("argv, message", [
    (["convolve", "hermitian", "--d", "2", "--x", "[1e308,-1e308]", "--y", "[1e308,-1e308]",
      "--n", "100"], f"error: x [1e+308, -1e+308] {_OUT_OF_RANGE}"),
    (["convolve", "hermitian", "--d", "2", "--x", "[8e307,-8e307]", "--y", "[8e307,-8e307]",
      "--n", "100"], f"error: x [8e+307, -8e+307] {_OUT_OF_RANGE}"),
    (["check", "semichar-mult", "--d", "3", "--x", "[1e308,0,-1e308]", "--y", "[1,0,-1]",
      "--n", "10"], f"error: x [1e+308, 0.0, -1e+308] {_OUT_OF_RANGE}"),
    (["convolve", "group", "--d", "3", "--x", "[1e308,0,-1e308]", "--y", "[1,0,-1]",
      "--n", "10"], f"error: x [1e+308, 0.0, -1e+308] {_OUT_OF_RANGE}"),
    # in range, but the mean of 100 samples near 2e307 is not
    (["convolve", "hermitian", "--d", "2", "--x", "[1e307,-1e307]", "--y", "[1e307,-1e307]",
      "--n", "100"],
     "error: hermitian cloud mean overflows a float at x = [1e+307, -1e+307], "
     "y = [1e+307, -1e+307]"),
    # in range, but e^x is not: no svd is tried on inf or NaN
    (["convolve", "group", "--d", "3", "--x", "[1e300,0,-1e300]", "--y", "[1,0,-1]",
      "--n", "10"],
     "error: group cloud overflows a float at x = [1e+300, 0.0, -1e+300], y = [1.0, 0.0, -1.0]"),
])
def test_chamber_points_near_the_float_limit_exit_2_in_one_line(argv, message, tmp_path,
                                                               capsys, recwarn):
    out = str(tmp_path / "c") + (".json" if argv[0] == "check" else "")
    assert main(argv + ["--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n", captured.err
    assert not recwarn.list
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["eval", "semichar", "A", "1", "--x", "[400,-400]"],
     "error: semicharacter is not finite at x = [400.0, -400.0]: it overflows a float"),
    (["check", "semichar-mult", "--d", "2", "--x", "[400,-400]", "--y", "[400,-400]",
      "--n", "100"],
     "error: semicharacter multiplicativity overflows a float at x = [400.0, -400.0], "
     "y = [400.0, -400.0]"),
    # the target is finite here, but the cloud's semicharacter values are not
    (["check", "semichar-mult", "--d", "2", "--x", "[180,-180]", "--y", "[180,-180]",
      "--n", "1000"],
     "error: semicharacter multiplicativity overflows a float at x = [180.0, -180.0], "
     "y = [180.0, -180.0]"),
], ids=["eval-semichar", "semichar-mult-target", "semichar-mult-cloud"])
def test_semicharacter_beyond_the_float_range_exits_2_in_one_line(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [message], captured.err


_REACH = "is out of range: max |{0}_i| times the 1-norm of rho exceeds the largest float"


@pytest.mark.parametrize("argv, message", [
    # log 2t overflowed in the semicharacter's log form, which then read -inf
    (["eval", "semichar", "A", "1", "--x", "[8e307,-8e307]"],
     "error: semicharacter is not finite at x = [8e+307, -8e+307]: it overflows a float"),
    (["eval", "semichar", "A", "1", "--x", "[1e308,-1e308]"],
     "error: semicharacter is not finite at x = [1e+308, -1e+308]: it overflows a float"),
    (["eval", "psi", "A", "1", "--x", "[1e308,-1e308]", "--lambda", "[1,-1]"],
     "error: x [1e+308, -1e+308] " + _REACH.format("x")),
    (["eval", "phi", "A", "1", "--x", "[1e308,-1e308]", "--lambda", "[1,-1]"],
     "error: x [1e+308, -1e+308] " + _REACH.format("x")),
    (["eval", "psi", "A", "1", "--x", "[1,-1]", "--lambda", "[1e308,-1e308]"],
     "error: lambda [1e+308, -1e+308] " + _REACH.format("lambda")),
    (["eval", "m1", "A", "1", "--x", "[1e308,-1e308]"],
     "error: x [1e+308, -1e+308] " + _REACH.format("x")),
    # the bump is 0 on both clouds, but the rhs weights overflow
    (["check", "deformation", "--d", "2", "--x", "[1e300,-1e300]", "--y", "[1,-1]",
      "--n", "100"],
     "error: deformation check is not finite at x = [1e+300, -1e+300], y = [1.0, -1.0]: "
     "a mean overflows a float or is NaN"),
    # phi is about 1e-313 on the group cloud and 1e-311 on the weighted Hermitian one:
    # subnormal sides that hold only rounding
    (["check", "deformation", "--d", "2", "--x", "[180,-180]", "--y", "[180,-180]",
      "--n", "1000", "--lambda", "[0.5,-0.5]"],
     "error: deformation check is subnormal at x = [180.0, -180.0], y = [180.0, -180.0]: "
     "a nonzero mean is below the smallest normal float"),
], ids=["semichar-8e307", "semichar-1e308", "psi", "phi", "psi-lambda", "m1", "deformation",
        "deformation-subnormal"])
def test_eval_and_check_near_the_float_limit_exit_2_in_one_line(argv, message, tmp_path,
                                                               capsys, recwarn):
    out = tmp_path / "r.json"
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n", captured.err
    assert not recwarn.list
    assert not out.exists()


@pytest.mark.parametrize("argv, key, value", [
    # m1 = x - (1/2, -1/2), which rounds to x; e^{<w.x, rho> - max} is e^{-inf} = 0
    (["eval", "m1", "A", "1", "--x", "[8e307,-8e307]"], "value", [8e307, -8e307]),
    # the bump is 0 on both clouds, and so is every weighted term
    (["check", "deformation", "--d", "2", "--x", "[1e300,-1e300]", "--y", "[1e300,-1e300]",
      "--n", "100"], "lhs_re", 0.0),
    # psi's rounding bound is finite here: eps scales each term before the sum
    (["eval", "psi", "A", "1", "--x", "[8e307,-8e307]", "--lambda", "[1,-1]"],
     "est_abs_error", 2.2204460492506193e-16),
    # phi is psi over a semicharacter of about e^(1.6e308): 0 to all digits
    (["eval", "phi", "A", "1", "--x", "[8e307,-8e307]", "--lambda", "[1,-1]"],
     "value_re", 0.0),
], ids=["m1", "deformation", "psi-bound", "phi-bound"])
def test_eval_and_check_near_the_float_limit_answer_without_a_warning(argv, key, value,
                                                                     capsys, recwarn):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    data = json.loads(out)
    assert data[key] == value
    if argv[0] == "check":
        assert data["pass"] and data["rhs_re"] == 0.0
    assert not recwarn.list


def test_selftest_times_each_check_on_stderr(tmp_path, capsys):
    assert main(["selftest", "--level", "fast", "--out", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    verdicts = captured.out.splitlines()
    assert len(verdicts) == 13 and verdicts[-1].startswith("report written to")
    assert all(line.startswith("PASS  ") for line in verdicts[:12])
    timed = [line.split() for line in captured.err.splitlines()[:12]]
    assert [t[1] for t in timed] == [line.split()[1] for line in verdicts[:12]]
    assert all(t[0].endswith("s") and float(t[0][:-1]) >= 0.0 for t in timed)
    # wall times stay out of the artifacts, which are byte-identical across reruns
    assert "seconds" not in (tmp_path / "selftest_report.json").read_text()


def test_unknown_family_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["rho", "E", "6"])
    assert exc.value.code == 2


def test_convolve_writes_artifacts(tmp_path, capsys):
    prefix = str(tmp_path / "cloud")
    code, _ = run_cli(capsys, "convolve", "hermitian", "--d", "2",
                      "--x", "[1,-1]", "--y", "[1,-1]",
                      "--n", "500", "--seed", "3", "--out", prefix)
    assert code == 0
    summary = json.loads((tmp_path / "cloud.json").read_text())
    assert summary["n"] == 500
    assert 0.0 <= summary["extent_max"][0] <= 2.0 + 1e-9
    csv_text = (tmp_path / "cloud.csv").read_text()
    assert csv_text.startswith("# manifest: ")
    assert csv_text.splitlines()[1] == "x1,x2,weight"
    assert len(csv_text.splitlines()) == 502


def test_convolve_deterministic_for_seed(tmp_path, capsys):
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    for prefix in (a, b):
        run_cli(capsys, "convolve", "group", "--d", "2", "--x", "[1,-1]",
                "--y", "[0.5,-0.5]", "--n", "200", "--seed", "11", "--out", prefix)
    csv_a = (tmp_path / "a.csv").read_text()
    csv_b = (tmp_path / "b.csv").read_text()
    # identical apart from the differing --out path recorded in the manifest
    assert csv_a.splitlines()[1:] == csv_b.splitlines()[1:]


def test_check_deformation_passes(capsys):
    code, out = run_cli(capsys, "check", "deformation", "--d", "2",
                        "--x", "[0.5,-0.5]", "--y", "[0.5,-0.5]",
                        "--n", "20000", "--seed", "2")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True


def test_check_support_passes(capsys):
    code, out = run_cli(capsys, "check", "support", "--d", "2",
                        "--x", "[1,-1]", "--y", "[0.5,-0.5]",
                        "--n", "2000", "--seed", "2")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_check_transform_homomorphism(capsys):
    code, out = run_cli(capsys, "check", "transform-homomorphism", "--d", "2",
                        "--x", "[1,-1]", "--y", "[0.5,-0.5]",
                        "--lambda", "[0.6,-0.6]", "--n", "3000", "--seed", "2")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_check_transform_homomorphism_where_psi_is_complex(capsys):
    # at d = 3 psi_lambda is not real: the estimate, a mean of conj(psi_lambda),
    # meets conj(psi_lambda(x) psi_lambda(y)) and not its conjugate
    code, out = run_cli(capsys, "check", "transform-homomorphism", "--d", "3",
                        "--x", "[1.5,0.5,-2]", "--y", "[1,0.2,-1.2]",
                        "--lambda", "[1.2,0.3,-1.5]", "--n", "100000", "--seed", "1")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert abs(data["target_im"]) > 100 * data["stderr"]
    assert abs(data["estimate_im"] - data["target_im"]) <= 3.0 * data["stderr"]


@pytest.mark.parametrize("which, lam", [("semichar-mult", None),
                                         ("transform-homomorphism", "[0.7,-0.7]")])
def test_exact_side_check_passes_at_a_degenerate_point(which, lam, capsys):
    # delta_x * delta_0 = delta_x makes the identity exact
    argv = ["check", which, "--d", "2", "--x", "[1,-1]", "--y", "[0,0]", "--n", "1000"]
    code, out = run_cli(capsys, *argv, *(["--lambda", lam] if lam else []))
    assert code == 0
    assert json.loads(out)["pass"] is True


_CHECKS = {
    "deformation": (2, [1.0, -1.0], [0.5, -0.5], [0.6, -0.6], 2_000),
    "semichar-mult": (2, [1.0, -1.0], [1.0, -1.0], None, 2_000),
    "support": (3, [1.0, 0.0, -1.0], [0.5, 0.0, -0.5], None, 500),
    "transform-homomorphism": (3, [1.5, 0.5, -2.0], [1.0, 0.2, -1.2], [1.2, 0.3, -1.5], 2_000),
}


def _library_check(which, d, x, y, lam, n, rng):
    if which == "deformation":
        return convolve.deformation_check(d, x, y, ("phi", lam), n, rng)
    if which == "semichar-mult":
        return convolve.semicharacter_multiplicativity(d, x, y, n, rng)
    if which == "support":
        return convolve.support_equivalence(d, x, y, n, rng)
    return convolve.transform_homomorphism(d, x, y, lam, n, rng)


@pytest.mark.parametrize("which", sorted(_CHECKS))
def test_check_verdict_is_the_library_verdict(which, capsys):
    """The exit code and "pass" of each check are .passed of its library call."""
    d, x, y, lam, n = _CHECKS[which]
    seed = 3
    argv = ["check", which, "--d", str(d), "--x", json.dumps(x), "--y", json.dumps(y),
            "--n", str(n), "--seed", str(seed)]
    if lam is not None:
        argv += ["--lambda", json.dumps(lam)]
    code, out = run_cli(capsys, *argv)
    passed = _library_check(which, d, x, y, lam, n, substream(seed, 0)).passed
    assert json.loads(out)["pass"] is passed
    assert code == (0 if passed else 1)


def test_walk_command_with_flags(tmp_path, capsys):
    prefix = str(tmp_path / "walk")
    code, _ = run_cli(capsys, "walk", "--d", "2", "--x", "[0.5,-0.5]",
                      "--n", "300", "--replicas", "2", "--seed", "5",
                      "--out", prefix)
    assert code == 0
    report = json.loads((tmp_path / "walk.json").read_text())
    assert report["checkpoints"][-1] == 300
    assert math.isclose(report["limit_c"][0], 0.15651764274966565)
    csv_lines = (tmp_path / "walk.csv").read_text().splitlines()
    assert csv_lines[1] == "n,q1_over_n,q2_over_n,mz_scaled_dev"


def test_walk_command_with_config(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "d": 2, "atoms": [[0.5, -0.5]], "weights": [1.0],
        "n_steps": 100, "seed": 2,
    }))
    code, out = run_cli(capsys, "walk", "--config", str(cfg_path))
    assert code == 0
    assert json.loads(out)["checkpoints"][-1] == 100


_GOOD_CONFIG = {"d": 2, "atoms": [[0.5, -0.5]], "weights": [1.0], "n_steps": 10}


@pytest.mark.parametrize("config, message", [
    ([1, 2, 3], "must be a JSON object"),
    ({k: v for k, v in _GOOD_CONFIG.items() if k != "d"}, "missing WalkConfig keys: d"),
    ({k: v for k, v in _GOOD_CONFIG.items() if k != "weights"}, "missing WalkConfig keys: weights"),
    ({**_GOOD_CONFIG, "d": "2"}, "'d' must be an integer"),
    ({**_GOOD_CONFIG, "n_steps": 10.5}, "'n_steps' must be an integer"),
    ({**_GOOD_CONFIG, "seed": None}, "'seed' must be an integer"),
    ({**_GOOD_CONFIG, "atoms": [0.5, -0.5]}, "'atoms' must be a 2-d array"),
    ({**_GOOD_CONFIG, "atoms": [["0.5", -0.5]]}, "'atoms' must be a 2-d array"),
    ({**_GOOD_CONFIG, "weights": {"a": 1.0}}, "'weights' must be a 1-d array"),
    ({**_GOOD_CONFIG, "r_exponent": "1"}, "'r_exponent' must be a number"),
    ({**_GOOD_CONFIG, "d": 3}, "atoms of shape (k, 3)"),
    ({**_GOOD_CONFIG, "weights": [0.5, 0.5]}, "atoms of shape (k, 2)"),
    ({**_GOOD_CONFIG, "atoms": [[1, True]]}, "'atoms' must be a 2-d array"),
    ({**_GOOD_CONFIG, "n_steps": True}, "'n_steps' must be an integer"),
    ({**_GOOD_CONFIG, "atoms": [[10**400, -0.5]]}, "'atoms' has an entry too large"),
])
def test_walk_malformed_config_exits_2(tmp_path, capsys, config, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["walk", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err


def test_walk_crosscheck_flag(capsys):
    code, out = run_cli(capsys, "walk", "--d", "2", "--x", "[0.5,-0.5]",
                        "--n", "25", "--replicas", "300", "--seed", "6",
                        "--crosscheck")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert len(data["ks_distances"]) == 2


def test_manifests_carry_no_threads_key(capsys):
    _, out = run_cli(capsys, "convolve", "hermitian", "--d", "2",
                     "--x", "[1,-1]", "--y", "[1,-1]", "--n", "100", "--seed", "1")
    manifest = json.loads(out)["manifest"]
    assert "threads" not in manifest and "threads" not in manifest["params"]
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "4", "rho", "A", "1"])
    assert exc.value.code == 2


def test_selftest_mutation_fails(tmp_path, capsys, monkeypatch):
    # corrupting a rho table must flip the selftest to exit code 1
    import chamberwalk.selftest as st

    broken = dict(st.RHO_FORMULAS)
    broken["A"] = lambda r: np.arange(r, -r - 1, -2, dtype=float) + 1.0
    monkeypatch.setattr(st, "RHO_FORMULAS", broken)
    monkeypatch.setattr(st, "FAST", {**st.FAST, "n_mc": 2000, "n_conv": 2000,
                                     "n_supp": 200, "lln_steps": 64,
                                     "lln_reps": 1, "ks_reps": 120, "ks_steps": 10,
                                     "qr_walks": 3, "contract_pairs": 10, "n_pts": 1})
    monkeypatch.setattr(st, "N_EXTENT", 2000)
    code = main(["selftest", "--level", "fast", "--seed", "0",
                 "--out", str(tmp_path / "st")])
    capsys.readouterr()
    assert code == 1


def test_selftest_refuses_a_negative_seed_before_writing(tmp_path, capsys):
    out = tmp_path / "st"
    assert main(["selftest", "--seed", "-1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: seed must be at least 0, got -1\n", captured.err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["convolve", "group", "--d", "2", "--x", "[1,-1]", "--y", "[1,-1]", "--seed", "-1"],
     "error: seed must be at least 0, got -1"),
    (["walk", "--x", "[0.5,-0.5]", "--n", "10", "--seed", "-1"],
     "error: WalkConfig field 'seed' must be at least 0, got -1"),
    (["convolve", "group", "--d", "2", "--x", "[1,0,-1]", "--y", "[1,-1]"],
     "error: --x must hold 2 numbers, got shape (3,)"),
    (["eval", "psi", "A", "1", "--x", "[1,-1]", "--lambda", "[[1,-1]]"],
     "error: --lambda must hold 2 numbers, got shape (1, 2)"),
])
def test_bad_command_line_inputs_are_named(argv, message, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(message)


def _read_csv(path):
    """(header, rows) of a CLI CSV, every field parsed with float()."""
    lines = path.read_text().splitlines()
    if lines[0].startswith("# manifest: "):
        lines = lines[1:]
    return lines[0].split(","), [[float(v) for v in ln.split(",")] for ln in lines[1:]]


def test_every_cli_csv_parses_as_plain_floats(tmp_path, capsys, monkeypatch):
    prefix = tmp_path / "cloud"
    assert main(["convolve", "group", "--d", "3", "--x", "[1,0,-1]",
                 "--y", "[0.5,0,-0.5]", "--n", "300", "--seed", "4",
                 "--out", str(prefix)]) == 0
    header, rows = _read_csv(tmp_path / "cloud.csv")
    assert header == ["x1", "x2", "x3", "weight"]
    summary = json.loads((tmp_path / "cloud.json").read_text())
    cloud = np.array(rows)
    assert cloud.shape == (300, 4)
    assert np.allclose(cloud[:, :3].mean(axis=0), summary["mean"], rtol=0, atol=1e-15)
    assert np.all(cloud[:, 3] == 1.0 / 300)

    prefix = tmp_path / "walk"
    assert main(["walk", "--d", "2", "--x", "[0.5,-0.5]", "--n", "40",
                 "--seed", "4", "--out", str(prefix)]) == 0
    header, rows = _read_csv(tmp_path / "walk.csv")
    report = json.loads((tmp_path / "walk.json").read_text())
    assert [r[0] for r in rows] == report["checkpoints"]
    assert [r[1:3] for r in rows] == report["trajectory"]
    assert [r[3] for r in rows] == report["mz_scaled_deviation"]

    import chamberwalk.selftest as st

    monkeypatch.setattr(st, "FAST", {**st.FAST, "n_mc": 2000, "n_conv": 2000,
                                     "n_supp": 200, "lln_steps": 64,
                                     "lln_reps": 1, "ks_reps": 120, "ks_steps": 10,
                                     "qr_walks": 3, "contract_pairs": 10, "n_pts": 1})
    monkeypatch.setattr(st, "N_EXTENT", 2000)
    main(["selftest", "--level", "fast", "--seed", "0", "--out", str(tmp_path / "st")])
    capsys.readouterr()
    header, rows = _read_csv(tmp_path / "st" / "walk_trajectory.csv")
    assert header == ["n", "q1_over_n", "q2_over_n", "q3_over_n", "mz_scaled_dev"]
    assert rows[-1][0] == 64


_SEVEN = {"d": 2, "atoms": [[0.5, -0.5]], "weights": [1.0], "n_steps": 8, "n_replicas": 2,
          "seed": 7}


@pytest.mark.parametrize("flags, message", [
    (["--seed", "3", "--n", "99"], "error: walk --config does not use --n, --seed\n"),
    (["--x", "[1,-1]", "--d", "2"], "error: walk --config does not use --x, --d\n"),
    (["--replicas", "1"], "error: walk --config does not use --replicas\n"),
])
def test_walk_config_refuses_the_flags_it_replaces(tmp_path, capsys, flags, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_SEVEN))
    assert main(["walk", "--config", str(cfg), *flags]) == 2
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("argv, message", [
    (["check", "support", "--d", "2", "--x", "[1,-1]", "--y", "[1,-1]", "--lambda", "[1,-1]"],
     "error: check support does not use --lambda\n"),
    (["check", "semichar-mult", "--d", "2", "--x", "[1,-1]", "--y", "[1,-1]",
      "--lambda", "[1,-1]"], "error: check semichar-mult does not use --lambda\n"),
    (["eval", "semichar", "A", "1", "--x", "[1,-1]", "--lambda", "[5,-5]"],
     "error: eval semichar does not use --lambda\n"),
    (["eval", "m1", "A", "1", "--x", "[1,-1]", "--lambda", "[5,-5]"],
     "error: eval m1 does not use --lambda\n"),
])
def test_a_flag_the_command_does_not_use_exits_2(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == message, captured


def test_walk_manifest_records_the_run(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_SEVEN))
    code, out = run_cli(capsys, "walk", "--config", str(cfg))
    assert code == 0
    manifest = json.loads(out)["manifest"]
    assert manifest["seed"] == 7
    assert manifest["params"] == {"config": str(cfg), "crosscheck": False, "d": 2, "n": 8,
                                  "out": None, "replicas": 2, "x": None}
    # without --config the manifest holds walk's defaults, as it always has
    code, out = run_cli(capsys, "walk", "--x", "[0.5,-0.5]", "--n", "10")
    assert code == 0
    manifest = json.loads(out)["manifest"]
    assert manifest["seed"] == 0
    assert manifest["params"] == {"config": None, "crosscheck": False, "d": 2, "n": 10,
                                  "out": None, "replicas": 1, "x": "[0.5,-0.5]"}


@pytest.mark.parametrize("argv, message", [
    (["eval", "semichar", "A", "1", "--x", "[true,-1]"],
     "error: --x must be a 1-d array of numbers, real and not bool"),
    (["eval", "semichar", "A", "1", "--x", '["1","-1"]'],
     "error: --x must be a 1-d array of numbers, real and not bool"),
    (["eval", "psi", "A", "1", "--x", "[1,-1]", "--lambda", "[false,0]"],
     "error: --lambda must be a 1-d array of numbers, real and not bool"),
    (["convolve", "group", "--d", "2", "--x", "[1,-1]", "--y", '["0.5",-0.5]'],
     "error: --y must be a 1-d array of numbers, real and not bool"),
    (["check", "deformation", "--d", "2", "--x", "[1,-1]", "--y", "[1,-1]",
      "--lambda", "[true,false]"], "error: --lambda must be a 1-d array of numbers"),
    (["walk", "--x", "[1,true]"], "error: --x must be a 1-d array of numbers"),
    (["walk", "--x", "[1,[2]]"], "error: --x must be a JSON array of numbers"),
])
def test_command_line_vectors_take_numbers_by_the_library_rule(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(message), captured.err

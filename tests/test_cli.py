import json
import math

import numpy as np
import pytest

from chamberwalk.cli import main


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
])
def test_non_finite_vectors_exit_2(argv, capsys, recwarn):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: vector has non-finite entries\n", captured.err
    assert not recwarn.list


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

"""End-to-end command-line runs against real artifact files."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import opalab
from opalab.cli import main

PI = math.pi


def write_json(path, tree):
    path.write_text(json.dumps(tree))
    return str(path)


@pytest.fixture
def files(tmp_path):
    return {
        "f": write_json(tmp_path / "f.json", {"coeffs": [[1.0, 0.0], [-1.0, 0.0]]}),
        "f_half": write_json(tmp_path / "fh.json", {"coeffs": [[1.0, 0.0], [-0.5, 0.0]]}),
        "two": write_json(tmp_path / "two.json", {"coeffs": [[2.0, 0.0]]}),
        "expg": write_json(
            tmp_path / "expg.json",
            {"coeffs": [[1.0 / math.factorial(k), 0.0] for k in range(13)]},
        ),
        "point": write_json(tmp_path / "pt.json", {"points": [0.0]}),
        "pair": write_json(tmp_path / "pair.json", {"points": [0.0, PI]}),
        "arc": write_json(tmp_path / "arc.json", {"arcs": [[0.0, PI / 2]]}),
        "small_arc": write_json(tmp_path / "sarc.json", {"arcs": [[0.0, 0.2]]}),
        "targets2": write_json(
            tmp_path / "t2.json", {"targets": [[0.0, 2.0, 0.0], [PI, 2.0, 0.0]]}
        ),
        "targets_far": write_json(
            tmp_path / "tf.json", {"targets": [[0.0, 2.0, 0.0], [PI, -1.0, 0.0]]}
        ),
        "dir": tmp_path,
    }


def run(argv, out):
    code = main(argv + ["--out", str(out)])
    art = json.loads(out.read_text()) if out.exists() else None
    return code, art


def test_opa_solve_artifact(files, capsys):
    out = files["dir"] / "solve.json"
    code, art = run(["opa", "solve", "--f", files["f"], "--n", "1"], out)
    assert code == 0
    assert capsys.readouterr().out.strip() == str(out)
    assert art["schema_version"] == 1
    assert art["command"] == "opa solve"
    assert "T" in art["created_at"]
    assert art["inputs"]["n"] == 1
    q = [re for re, im in art["outputs"]["Q"]["coeffs"]]
    assert q == pytest.approx([2.0 / 3.0, 1.0 / 3.0], abs=1e-12)
    assert art["outputs"]["residual_sq"] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert art["diagnostics"]["elapsed_seconds"] >= 0.0
    # --solver stays parseable for old command lines and changes nothing
    code, again = run(["opa", "solve", "--f", files["f"], "--n", "1", "--solver", "toeplitz"], out)
    assert code == 0 and "solver" not in again["inputs"]
    assert again["outputs"] == art["outputs"]


def test_opa_converge_writes_csv(files):
    out = files["dir"] / "conv.json"
    code, art = run(["opa", "converge", "--f", files["f_half"], "--n-max", "8"], out)
    assert code == 0
    assert art["diagnostics"]["orders"] == 9
    lines = (files["dir"] / "conv.csv").read_text().strip().splitlines()
    assert lines[0] == "n,residual,sup_circle,max_interior"
    assert len(lines) == 10
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[1]) == pytest.approx(math.sqrt(0.2), abs=1e-12)


def test_rudin_build_hardy(files):
    out = files["dir"] / "build.json"
    code, art = run(
        ["rudin", "build", "--set", files["point"], "--u", files["small_arc"],
         "--eps", "0.05", "--peak", "8"],
        out,
    )
    assert code == 0
    cert = art["outputs"]["certified"]
    assert cert["sup_bound"] <= 2.0 + 1e-6
    assert cert["off_neighborhood_sup"] < 0.05
    assert art["diagnostics"]["h_degree"] >= 1


def test_rudin_capacity_with_table(files):
    out = files["dir"] / "cap.json"
    code, art = run(["rudin", "capacity", "--set", files["arc"], "--nodes", "512"], out)
    assert code == 0
    target = math.sin(PI / 4)
    assert abs(art["outputs"]["capacity"] - target) / target < 0.03
    lines = (files["dir"] / "cap.csv").read_text().strip().splitlines()
    assert lines[0] == "angle,weight"
    assert len(lines) == art["diagnostics"]["node_count"] + 1
    weights = [float(l.split(",")[1]) for l in lines[1:]]
    assert sum(weights) == pytest.approx(1.0, abs=1e-9)
    # --iterations stays parseable for old command lines and changes nothing
    cfg = files["dir"] / "cap.cfg"
    cfg.write_text("iterations = 5\n")
    code, again = run(
        ["rudin", "capacity", "--set", files["arc"], "--nodes", "512", "--iterations", "5"], out
    )
    assert code == 0 and "iterations" not in again["inputs"]
    assert again["outputs"] == art["outputs"]
    code, again = run(
        ["rudin", "capacity", "--set", files["arc"], "--nodes", "512", "--config", str(cfg)], out
    )
    assert code == 0 and again["outputs"] == art["outputs"]


def test_zerofree_trivial_run(files):
    out = files["dir"] / "zf.json"
    code, art = run(
        ["zerofree", "approx", "--g", files["two"], "--set", files["pair"],
         "--targets", files["targets2"], "--eps", "0.05"],
        out,
    )
    assert code == 0
    assert art["outputs"]["space_error"] == 0.0
    assert art["outputs"]["boundary_error"] == 0.0
    assert art["outputs"]["report"]["zero_free"] is True
    assert art["diagnostics"]["trace"]["level"] == 0


def test_steer_run(files):
    out = files["dir"] / "steer.json"
    code, art = run(
        ["steer", "--f", files["f_half"], "--g", files["two"],
         "--set", files["point"], "--eps", "0.1"],
        out,
    )
    assert code == 0
    assert art["outputs"]["achieved"]["norm_error"] < 0.1
    assert art["outputs"]["achieved"]["boundary_error"] < 0.1
    assert art["outputs"]["m"] >= 0


def test_selftest(files, capsys):
    out = files["dir"] / "self.json"
    code, art = run(["selftest"], out)
    assert code == 0
    text = capsys.readouterr().out
    assert text.count("ok ") >= 5
    assert all(c["ok"] for c in art["outputs"]["checks"])


def test_domain_errors_exit_2_with_json_on_stderr(files, capsys):
    out = files["dir"] / "never.json"
    code, _ = run(
        ["zerofree", "approx", "--g", files["two"], "--set", files["arc"],
         "--targets", files["targets2"], "--eps", "0.05"],
        out,
    )
    assert code == 2
    assert not out.exists()
    err = json.loads(capsys.readouterr().err)
    assert err["error"].endswith("Error")
    assert err["message"]

    code2, _ = run(
        ["steer", "--f", files["f_half"], "--g", files["two"],
         "--set", files["arc"], "--eps", "0.1"],
        files["dir"] / "never2.json",
    )
    assert code2 == 2

    # the root of f = z - 1e-9 snaps to 0, where conj(B(0)) vanishes; and
    # json.load reads NaN, so a set file can carry a non-finite angle
    near_origin = write_json(files["dir"] / "f0.json", {"coeffs": [[-1e-9, 0.0], [1.0, 0.0]]})
    nan_set = files["dir"] / "nan.json"
    nan_set.write_text('{"points": [NaN]}')
    capsys.readouterr()
    for f_path, set_path in ((near_origin, files["point"]), (files["f_half"], str(nan_set))):
        code, _ = run(
            ["steer", "--f", f_path, "--g", files["two"], "--set", set_path, "--eps", "0.1"],
            files["dir"] / "never5.json",
        )
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "InvalidInputError"

    # json.load reads NaN in a targets file too
    nan_targets = files["dir"] / "nan_t.json"
    nan_targets.write_text('{"targets": [[0.0, NaN, 0.0]]}')
    code, _ = run(
        ["zerofree", "approx", "--g", files["two"], "--set", files["point"],
         "--targets", str(nan_targets), "--eps", "0.05"],
        files["dir"] / "never6.json",
    )
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "InvalidInputError"


def test_budget_errors_exit_3_with_diagnostics(files, capsys):
    out = files["dir"] / "never3.json"
    code, _ = run(
        ["zerofree", "approx", "--g", files["expg"], "--set", files["pair"],
         "--targets", files["targets_far"], "--eps", "0.1", "--space", "dirichlet"],
        out,
    )
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ApproximationBudgetError"
    assert err["diagnostics"]["required_boundary_deviation"] == pytest.approx(
        1.3678794413212816, abs=1e-9
    )


def test_ill_conditioned_capacity_exits_3(files, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    out = files["dir"] / "never4.json"
    code, _ = run(["rudin", "capacity", "--set", files["arc"], "--nodes", "64"], out)
    assert code == 3
    assert not out.exists()
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "IllConditionedError"
    assert err["diagnostics"]["nodes"] == 64


def test_usage_errors_exit_64(files, capsys):
    assert main([]) == 64
    assert main(["opa"]) == 64
    with pytest.raises(SystemExit) as exc:
        main(["opa", "solve", "--bogus", "1"])
    assert exc.value.code == 64
    capsys.readouterr()


def test_malformed_input_file_exits_2(files, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run(["opa", "solve", "--f", str(bad), "--n", "1"], tmp_path / "o.json")
    assert code == 2
    capsys.readouterr()


def test_config_file_layering(files, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 3\n# a comment line\nalpha = 0.0\n")
    out = tmp_path / "c1.json"
    code, art = run(
        ["opa", "solve", "--f", files["f"], "--config", str(cfg)], out
    )
    assert code == 0
    assert art["outputs"]["n"] == 3

    out2 = tmp_path / "c2.json"
    code2, art2 = run(
        ["opa", "solve", "--f", files["f"], "--config", str(cfg), "--n", "1"], out2
    )
    assert code2 == 0
    assert art2["outputs"]["n"] == 1

    missing = run(["opa", "solve", "--f", files["f"]], tmp_path / "c3.json")
    assert missing[0] == 2
    capsys.readouterr()


def test_space_outside_the_table_is_refused(files, tmp_path, capsys):
    cfg = tmp_path / "space.cfg"
    cfg.write_text("space = foo\neps = 0.05\n")
    build = ["rudin", "build", "--set", files["point"], "--u", files["small_arc"]]
    out = tmp_path / "never.json"
    code, _ = run(build + ["--config", str(cfg)], out)
    assert code == 2
    assert not out.exists()
    assert json.loads(capsys.readouterr().err)["error"] == "InvalidParameterError"
    with pytest.raises(SystemExit) as exc:
        main(build + ["--eps", "0.05", "--space", "foo"])
    assert exc.value.code == 64
    capsys.readouterr()


def test_default_output_dir_honors_environment(files, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("OPALAB_OUT", str(tmp_path / "artifacts"))
    code = main(["opa", "solve", "--f", files["f"], "--n", "0"])
    assert code == 0
    printed = capsys.readouterr().out.strip()
    assert printed.startswith(str(tmp_path / "artifacts"))
    assert printed.endswith("opa-solve.json")
    assert json.loads((tmp_path / "artifacts").glob("*.json").__next__().read_text())


def test_repeated_runs_have_identical_outputs(files, tmp_path):
    outs = []
    for name in ("r1.json", "r2.json"):
        _, art = run(
            ["zerofree", "approx", "--g", files["two"], "--set", files["pair"],
             "--targets", files["targets2"], "--eps", "0.05"],
            tmp_path / name,
        )
        outs.append(json.dumps(art["outputs"], sort_keys=True))
    assert outs[0] == outs[1]


def test_cli_import_loads_no_scipy_module():
    # A fresh interpreter: other tests load scipy into this process.
    src = os.path.dirname(os.path.dirname(opalab.__file__))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    code = (
        "import sys, opalab.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "[]"

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bellkit import (
    Behavior,
    DeterministicStrategy,
    NetworkSpec,
    behavior_from_correlators,
    quantum_behavior,
    random_model,
    singlet,
    strategy_to_model,
    tsirelson_settings,
)
from bellkit.cli import _write_text, main
from bellkit.io import behavior_to_json, model_to_json, network_to_json
from conftest import src_env
from test_behavior import signaling_table

SQRT2 = math.sqrt(2.0)
GOLDEN = json.loads((Path(__file__).resolve().parent.parent / "perfbench" / "golden.json")
                    .read_text(encoding="utf-8"))


@pytest.fixture()
def singlet_behavior_file(tmp_path, singlet_behavior):
    path = tmp_path / "singlet_behavior.json"
    path.write_text(json.dumps(behavior_to_json(singlet_behavior)))
    return str(path)


@pytest.fixture()
def uniform_behavior_file(tmp_path):
    from bellkit import uniform_behavior

    path = tmp_path / "uniform.json"
    path.write_text(json.dumps(behavior_to_json(uniform_behavior())))
    return str(path)


@pytest.fixture()
def det_network_file(tmp_path):
    spec = NetworkSpec(model=strategy_to_model(DeterministicStrategy(1, 1, 1, 1)))
    path = tmp_path / "network.json"
    path.write_text(json.dumps(network_to_json(spec)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestChshCommand:
    def test_singlet_behavior_verdicts(self, capsys, singlet_behavior_file):
        code, out, _ = run(capsys, "chsh", singlet_behavior_file)
        assert code == 0
        assert "S: -2.8284271" in out
        assert "local bound |S| <= 2: no" in out
        assert "quantum bound |S| <= 2*sqrt(2): yes" in out

    def test_uniform_behavior_verdicts(self, capsys, uniform_behavior_file):
        code, out, _ = run(capsys, "chsh", uniform_behavior_file)
        assert code == 0
        assert "S: 0.0000000" in out
        assert "local bound |S| <= 2: yes" in out

    def test_relabelled_pr_box_verdicts(self, capsys, tmp_path):
        # S = 0 here, but another CHSH sign variant reaches 4
        box = behavior_from_correlators(np.array([[-1.0, 1.0], [1.0, 1.0]]))
        path = tmp_path / "box.json"
        path.write_text(json.dumps(behavior_to_json(box)))
        code, out, _ = run(capsys, "chsh", str(path))
        assert code == 0
        assert "S: 0.0000000" in out
        assert "local bound |S| <= 2: no" in out
        assert "quantum bound |S| <= 2*sqrt(2): no" in out

    def test_signaling_table_refused(self, capsys, tmp_path):
        path = tmp_path / "signaling.json"
        path.write_text(json.dumps(behavior_to_json(Behavior(signaling_table()))))
        code, out, err = run(capsys, "chsh", str(path))
        assert code == 2
        assert out == ""
        assert "behavior signals (max marginal residual 1.000e+00)" in err

    def test_model_file_accepted(self, capsys, tmp_path):
        model = random_model(np.random.default_rng(0), n_lambda=2)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model_to_json(model)))
        code, out, _ = run(capsys, "chsh", str(path))
        assert code == 0
        assert "input kind: model" in out

    def test_missing_block_exits_2(self, capsys, tmp_path, singlet_behavior):
        data = behavior_to_json(singlet_behavior)
        del data["blocks"]["a,b'"]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, "chsh", str(path))
        assert code == 2
        assert "a,b'" in err

    def test_unreadable_file_exits_4(self, capsys, tmp_path):
        code, _, err = run(capsys, "chsh", str(tmp_path / "absent.json"))
        assert code == 4
        assert "absent.json" in err

    def test_non_numeric_block_exits_2(self, capsys, tmp_path, singlet_behavior):
        data = behavior_to_json(singlet_behavior)
        data["blocks"]["a,b"] = [[1, "x"], [0, 0]]
        path = tmp_path / "junk.json"
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, "chsh", str(path))
        assert code == 2
        assert "not numeric" in err

    def test_unrecognized_file_kind_exits_2(self, capsys, tmp_path):
        path = tmp_path / "neither.json"
        path.write_text('{"foo": 1}')
        code, _, err = run(capsys, "chsh", str(path))
        assert code == 2
        assert "blocks" in err and "lambda" in err

    def test_json_syntax_error_reports_line(self, capsys, tmp_path):
        path = tmp_path / "syntax.json"
        path.write_text('{\n  "blocks": oops\n}')
        code, _, err = run(capsys, "chsh", str(path))
        assert code == 2
        assert "line 2" in err

    def test_json_format_parses(self, capsys, singlet_behavior_file):
        code, out, _ = run(capsys, "--format", "json", "chsh", singlet_behavior_file)
        assert code == 0
        body = json.loads(out)
        assert body["results"]["S"] == pytest.approx(-2 * SQRT2, abs=1e-12)


class TestEnumerateCommand:
    def test_sixteen_rows_max_two(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "enumerate")
        assert code == 0
        body = json.loads(out)
        assert body["results"]["count"] == 16
        assert body["results"]["max |S|"] == 2
        rows = body["results"]["strategies (a, a', b, b', S)"]
        assert rows[0] == [1, 1, 1, 1, 2]
        assert len(rows) == 16


class TestOptimizeCommand:
    def test_singlet(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "optimize", "singlet", "--seed", "1")
        assert code == 0
        body = json.loads(out)
        assert abs(body["results"]["best S"] - 2 * SQRT2) <= 1e-6
        assert body["seed"] == 1

    def test_product_state_keyword(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "optimize", "00", "--seed", "3")
        assert code == 0
        assert abs(json.loads(out)["results"]["best S"] - 2.0) <= 1e-6

    def test_explicit_amplitudes(self, capsys):
        r = 1 / SQRT2
        spec = f"0,0,{r},0,{-r},0,0,0"
        code, out, _ = run(capsys, "--format", "json", "optimize", spec, "--seed", "2")
        assert code == 0
        assert abs(json.loads(out)["results"]["best S"] - 2 * SQRT2) <= 1e-6

    def test_unnormalized_amplitudes_exit_2(self, capsys):
        code, _, err = run(capsys, "optimize", "1,0,1,0,0,0,0,0", "--seed", "1")
        assert code == 2
        assert "norm" in err

    @pytest.mark.parametrize("spec, error", [
        ("nan,0,0,0,0,0,1,0", "state amplitudes contain non-finite values"),
        ("1e200,0,0,0,0,0,0,0", "amplitude norm inf deviates from 1 beyond 1e-06"),
    ], ids=["nan", "norm_overflows"])
    def test_bad_amplitudes_stderr_is_one_error_line(self, spec, error):
        # a fresh interpreter, so that a numpy warning would reach stderr as it does for a user
        proc = subprocess.run([sys.executable, "-m", "bellkit.cli", "optimize", spec, "--seed", "1"],
                              env=src_env(), capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: {error}\n"

    def test_seed_required(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["optimize", "singlet"])
        assert excinfo.value.code == 2

    def test_seed_must_be_u64(self, capsys):
        for bad in ("-1", str(2 ** 64), "1.5"):
            with pytest.raises(SystemExit) as excinfo:
                main(["optimize", "singlet", "--seed", bad])
            assert excinfo.value.code == 2

    def test_max_u64_seed_accepted(self, capsys):
        code, _, _ = run(capsys, "optimize", "singlet", "--seed", str(2 ** 64 - 1))
        assert code == 0

    def test_reproducible_output(self, capsys):
        _, out1, _ = run(capsys, "optimize", "singlet", "--seed", "11")
        _, out2, _ = run(capsys, "optimize", "singlet", "--seed", "11")
        assert out1 == out2


class TestSampleCommand:
    def test_deterministic_network(self, capsys, det_network_file, tmp_path):
        out_csv = tmp_path / "data.csv"
        code, out, _ = run(capsys, "--format", "json", "sample", det_network_file,
                           "-n", "1000", "--seed", "5", "--out", str(out_csv))
        assert code == 0
        body = json.loads(out)
        assert body["results"]["estimated S"] == 2.0
        assert body["results"]["stderr"] == 0.0
        assert body["results"]["exact S"] == 2.0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "lambda,x,y,A,B"
        assert len(lines) == 1001

    def test_same_seed_byte_identical_csv(self, capsys, det_network_file, tmp_path):
        p1, p2 = tmp_path / "d1.csv", tmp_path / "d2.csv"
        run(capsys, "sample", det_network_file, "-n", "500", "--seed", "9", "--out", str(p1))
        run(capsys, "sample", det_network_file, "-n", "500", "--seed", "9", "--out", str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_estimate_within_five_stderr(self, capsys, tmp_path):
        model = random_model(np.random.default_rng(21), n_lambda=3)
        path = tmp_path / "model_net.json"
        path.write_text(json.dumps(model_to_json(model)))
        out_csv = tmp_path / "d.csv"
        code, out, _ = run(capsys, "--format", "json", "sample", str(path),
                           "-n", "100000", "--seed", "31", "--out", str(out_csv))
        assert code == 0
        body = json.loads(out)
        gap = abs(body["results"]["estimated S"] - body["results"]["exact S"])
        assert gap <= 5.0 * body["results"]["stderr"]

    @pytest.mark.parametrize("n, prior_a, block", [("3", (0.5, 0.5), None),
                                                   ("1000", (1.0, 0.0), "(a',b)")])
    def test_sparse_block_exits_2_without_csv(self, capsys, tmp_path, n, prior_a, block):
        spec = NetworkSpec(model=strategy_to_model(DeterministicStrategy(1, 1, 1, 1)),
                           setting_prior_a=np.array(prior_a))
        path = tmp_path / "network.json"
        path.write_text(json.dumps(network_to_json(spec)))
        out_csv = tmp_path / "x.csv"
        code, out, err = run(capsys, "sample", str(path), "-n", n, "--seed", "1",
                             "--out", str(out_csv))
        assert code == 2
        assert out == ""
        assert err.startswith("error: block (") and "record(s); need at least 2" in err
        if block is not None:
            assert f"block {block} has 0 record(s)" in err
        assert not out_csv.exists()

    def test_unwritable_out_exits_4(self, capsys, det_network_file, tmp_path):
        code, _, err = run(capsys, "sample", det_network_file, "-n", "10",
                           "--seed", "1", "--out", str(tmp_path / "no_dir" / "x.csv"))
        assert code == 4
        assert "x.csv" in err

    def test_failed_replace_leaves_old_file(self, capsys, monkeypatch, det_network_file, tmp_path):
        out_csv = tmp_path / "data.csv"
        out_csv.write_text("old contents\n")

        def refuse(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", refuse)
        code, out, err = run(capsys, "sample", det_network_file, "-n", "10",
                             "--seed", "1", "--out", str(out_csv))
        assert code == 4
        assert out == ""
        assert "data.csv" in err and "No space left" in err
        assert out_csv.read_text() == "old contents\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "network.json"]

    def test_out_through_link_keeps_link_and_mode(self, capsys, det_network_file, tmp_path):
        target = tmp_path / "data.csv"
        target.write_text("old contents\n")
        target.chmod(0o640)
        link = tmp_path / "link.csv"
        link.symlink_to(target.name)
        code, _, _ = run(capsys, "sample", det_network_file, "-n", "10",
                         "--seed", "1", "--out", str(link))
        assert code == 0
        assert link.is_symlink()
        assert target.read_text().startswith("lambda,x,y,A,B\n")
        assert target.stat().st_mode & 0o777 == 0o640

    @pytest.mark.parametrize("n", [2 ** 70, 10 ** 15])
    def test_huge_n_exits_2_without_csv(self, capsys, monkeypatch, det_network_file, tmp_path, n):
        def no_draws(*args, **kwargs):
            raise AssertionError("records were drawn")

        # the count is refused before any generator, and so any record array, exists
        monkeypatch.setattr(np.random, "SeedSequence", no_draws)
        out_csv = tmp_path / "d.csv"
        code, out, err = run(capsys, "sample", det_network_file, "-n", str(n),
                             "--seed", "1", "--out", str(out_csv))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "-n" in err and str(n) in err
        assert err.count("\n") == 1
        assert not out_csv.exists()

    # the n = 10^6 entries cross 15 chunk edges in the draw and the gather, 13 in the write
    @pytest.mark.parametrize("entry", GOLDEN, ids=lambda e: f"seed{e['seed']}")
    def test_golden_csv_digest(self, capsys, tmp_path, entry):
        path = tmp_path / "network.json"
        path.write_text(json.dumps(entry["network"]))
        out_csv = tmp_path / "d.csv"
        code, _, _ = run(capsys, "sample", str(path), "-n", str(entry["n"]),
                         "--seed", str(entry["seed"]), "--out", str(out_csv))
        assert code == 0
        assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == entry["sha256"]


@pytest.mark.parametrize("labels", [("x,y", "x,y"), ("l0", "l0"), ('say "hi"', "l1"),
                                    ("l0\r", "l1"), ("l0", "l\n1")])
@pytest.mark.parametrize("command", ["sample", "chsh"])
def test_labels_that_break_the_csv_exit_2(capsys, tmp_path, labels, command):
    data = model_to_json(random_model(np.random.default_rng(4), n_lambda=2))
    for entry, label in zip(data["lambda"], labels):
        entry["label"] = label
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    out_csv = tmp_path / "d.csv"
    extra = ["-n", "100", "--seed", "1", "--out", str(out_csv)] if command == "sample" else []
    code, out, err = run(capsys, command, str(path), *extra)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path}: label ")
    assert not out_csv.exists()


@pytest.mark.parametrize("command", ["sample", "chsh"])
def test_label_not_encodable_as_utf8_exits_2(capsys, tmp_path, command):
    data = model_to_json(random_model(np.random.default_rng(4), n_lambda=2))
    data["lambda"][1]["label"] = "\ud800"
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))  # ASCII JSON, the label as the escape \ud800
    out_csv = tmp_path / "d.csv"
    out_csv.write_text("old contents\n")
    extra = ["-n", "100", "--seed", "1", "--out", str(out_csv)] if command == "sample" else []
    code, out, err = run(capsys, command, str(path), *extra)
    assert code == 2
    assert out == ""
    assert err == f"error: {path}: label '\\ud800' cannot be encoded as UTF-8\n"
    assert out_csv.read_text() == "old contents\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "model.json"]


def test_write_text_removes_temp_file_on_any_exception(tmp_path):
    out_csv = tmp_path / "d.csv"
    out_csv.write_text("old contents\n")
    with pytest.raises(UnicodeEncodeError):
        _write_text(str(out_csv), "lambda,x,y,A,B\n\ud800,a,b,+1,+1\n")
    assert out_csv.read_text() == "old contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["d.csv"]


@pytest.mark.parametrize("command", ["sample", "chsh"])
def test_overflowing_sum_stderr_is_one_error_line(tmp_path, command):
    # a fresh interpreter, so that a numpy overflow warning would reach stderr as it does for a user
    out_csv = tmp_path / "d.csv"
    if command == "sample":
        data = model_to_json(random_model(np.random.default_rng(4), n_lambda=2))
        for entry in data["lambda"]:
            entry["prob"] = 1e308
        extra, error = ["-n", "100", "--seed", "1", "--out", str(out_csv)], "prior sums to inf, not 1 within 1e-09"
    else:
        data = {"blocks": {key: [[0.25, 0.25], [0.25, 0.25]] for key in ("a,b'", "a',b", "a',b'")}}
        data["blocks"]["a,b"] = [[1e308, 1e308], [0.0, 0.0]]
        extra, error = [], "block (a,b) sums to inf, not 1"
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    proc = subprocess.run([sys.executable, "-m", "bellkit.cli", command, str(path), *extra],
                          env=src_env(), capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: {path}: {error}\n"
    assert not out_csv.exists()


class TestTaxonomyCommand:
    def test_full_table(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "taxonomy")
        assert code == 0
        body = json.loads(out)
        assert body["results"]["rows"] == 19

    def test_aligned_text_table(self, capsys):
        code, out, _ = run(capsys, "taxonomy")
        assert code == 0
        assert "Measurement realism" in out
        assert out.count("x") >= 19

    def test_single_name(self, capsys):
        code, out, _ = run(capsys, "taxonomy", "Everett")
        assert code == 0
        assert "rejects: Measurement realism" in out

    def test_superdeterminism(self, capsys):
        code, out, _ = run(capsys, "taxonomy", "Superdeterminism")
        assert code == 0
        assert "rejects: Measurement independence" in out

    def test_unknown_exits_3_with_suggestion(self, capsys):
        code, _, err = run(capsys, "taxonomy", "Bohm")
        assert code == 3
        assert "de Broglie-Bohm" in err


class TestSweepCommand:
    def test_two_rows_csv(self, capsys, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "singlet", "--steps", "2",
                         "--theta-start", "0", "--theta-end", "45", "--out", str(out_csv))
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "theta_degrees,S"
        theta0, s0 = (float(v) for v in lines[1].split(","))
        theta1, s1 = (float(v) for v in lines[2].split(","))
        assert (theta0, theta1) == (0.0, 45.0)
        assert abs(s0 + 2 * SQRT2) <= 1e-12
        assert abs(s1 + 2.0) <= 1e-9

    def test_single_step_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "sweep", "singlet", "--steps", "1",
                           "--out", str(tmp_path / "s.csv"))
        assert code == 2
        assert "steps" in err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("bounds", [("nan", "360"), ("0", "inf"), ("-inf", "0"),
                                        ("1e308", "-1e308")])
    def test_non_finite_angles_exit_2_without_csv(self, capsys, tmp_path, fmt, bounds):
        # the last pair is finite, but the sweep's range overflows to -inf
        out_csv = tmp_path / "s.csv"
        code, out, err = run(capsys, "--format", fmt, "sweep", "singlet", "--steps", "3",
                             f"--theta-start={bounds[0]}", f"--theta-end={bounds[1]}",
                             "--out", str(out_csv))
        assert code == 2
        assert out == ""
        assert err.startswith("error: sweep angles must be finite")
        assert not out_csv.exists()


def test_cli_import_loads_no_scipy():
    # a fresh interpreter, so that modules the rest of the suite imported do not count
    code = "import sys, bellkit.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


def test_behavior_file_roundtrip_through_tool(capsys, tmp_path):
    # the tool re-reads what it would write: same digest twice
    b = quantum_behavior(singlet(), tsirelson_settings().as_tuple())
    path = tmp_path / "b.json"
    path.write_text(json.dumps(behavior_to_json(b)))
    _, out1, _ = run(capsys, "chsh", str(path))
    _, out2, _ = run(capsys, "chsh", str(path))
    assert out1 == out2

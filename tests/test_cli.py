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
    NetworkSpec,
    behavior_from_correlators,
    quantum_behavior,
    random_model,
    singlet,
    tsirelson_settings,
)
from bellkit.cli import _write_text, main
from conftest import (behavior_json, deterministic_model, linux_only, model_json, network_json, peak_rise_mb,
                      src_env)
from test_behavior import signaling_table

SQRT2 = math.sqrt(2.0)
GOLDEN = json.loads((Path(__file__).resolve().parent.parent / "perfbench" / "golden.json")
                    .read_text(encoding="utf-8"))
# one state up to a global phase; argparse takes the first spec for an option unless it follows "--"
NEGATIVE_SPEC = "-0.6,0,0.48,0,0,0.64,0,0"
POSITIVE_SPEC = "0.6,0,-0.48,0,0,-0.64,0,0"
# a generic entangled state, (0.3, 0.1, 0.5, -0.2, 0.4, 0.3, -0.1, 0.6) normalised to 7 decimals:
# its b and T have no zero entry, so every product rounds, and the optimum's directions, which follow
# Bob's Bloch vector b, move only as much as b does
GENERIC_SPEC = "0.2985112,0.0995037,0.4975186,-0.1990074,0.3980149,0.2985112,-0.0995037,0.5970223"
# chsh inputs with pinned reports: a random pure state's behavior at four random
# directions, and a random 3-value model, each written at full double precision
GOLDEN_BEHAVIOR = (
    '{"blocks": {"a,b": [[0.20856782416901254, 0.0693747664695817], [0.3172102250530912, 0.4048471843083146]], '
    '"a,b\'": [[0.19033034732418067, 0.08761224331441356], [0.6805394779742833, 0.04151793138712262]], '
    '"a\',b": [[0.18057280026779943, 0.1857683298494791], [0.34520524895430427, 0.2884536209284172]], '
    '"a\',b\'": [[0.3414183539347959, 0.024922776182482665], [0.529451471363668, 0.10420739851905349]]}}')
GOLDEN_MODEL = (
    '{"lambda": [{"label": "l0", "prob": 0.0570427685650912, '
    '"pA_plus": {"a": 0.20266188190391998, "a\'": 0.4581016638760744}, '
    '"pB_plus": {"b": 0.2585480325719267, "b\'": 0.8692805005091374}}, '
    '{"label": "l1", "prob": 0.1313229692532282, '
    '"pA_plus": {"a": 0.6299057472021033, "a\'": 0.5309978365211094}, '
    '"pB_plus": {"b": 0.46310640377820844, "b\'": 0.9831675456892924}}, '
    '{"label": "l2", "prob": 0.8116342621816806, '
    '"pA_plus": {"a": 0.6580784472910715, "a\'": 0.03985587655844125}, '
    '"pB_plus": {"b": 0.9481108046010519, "b\'": 0.4314493855646584}}]}')


@pytest.fixture()
def singlet_behavior_file(tmp_path, singlet_behavior):
    path = tmp_path / "singlet_behavior.json"
    path.write_text(json.dumps(behavior_json(singlet_behavior)))
    return str(path)


@pytest.fixture()
def uniform_behavior_file(tmp_path):
    from bellkit import uniform_behavior

    path = tmp_path / "uniform.json"
    path.write_text(json.dumps(behavior_json(uniform_behavior())))
    return str(path)


@pytest.fixture()
def det_network_file(tmp_path):
    spec = NetworkSpec(model=deterministic_model(1, 1, 1, 1))
    path = tmp_path / "network.json"
    path.write_text(json.dumps(network_json(spec)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# main(sys.argv[1:]) with its report discarded, measured by conftest.peak_rise_mb
CLI_SETUP = "import contextlib, io\nimport bellkit.cli as cli"
CLI_MAIN = "with contextlib.redirect_stdout(io.StringIO()):\n    assert cli.main(sys.argv[1:]) == 0"


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
        path.write_text(json.dumps(behavior_json(box)))
        code, out, _ = run(capsys, "chsh", str(path))
        assert code == 0
        assert "S: 0.0000000" in out
        assert "local bound |S| <= 2: no" in out
        assert "quantum bound |S| <= 2*sqrt(2): no" in out

    def test_signaling_table_refused(self, capsys, tmp_path):
        path = tmp_path / "signaling.json"
        path.write_text(json.dumps(behavior_json(Behavior(signaling_table()))))
        code, out, err = run(capsys, "chsh", str(path))
        assert code == 2
        assert out == ""
        assert "behavior signals (max marginal residual 1.000e+00)" in err

    def test_model_file_accepted(self, capsys, tmp_path):
        model = random_model(np.random.default_rng(0), n_lambda=2)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model_json(model)))
        code, out, _ = run(capsys, "chsh", str(path))
        assert code == 0
        assert "input kind: model" in out

    def test_missing_block_exits_2(self, capsys, tmp_path, singlet_behavior):
        data = behavior_json(singlet_behavior)
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
        data = behavior_json(singlet_behavior)
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

    # SHA-256 of stdout for a quantum behavior at non-axis settings and a 3-value
    # model, pinned so that a change in the last bit of a correlator shows
    @pytest.mark.parametrize("text, fmt, digest", [
        (GOLDEN_BEHAVIOR, "text", "0ff8deabcf9b4b5fd9c34e9bf3195d818d262e96a7faff9a6558e84f71c29c6e"),
        (GOLDEN_BEHAVIOR, "json", "ea4fb2db3f127340a58ffb8a8311b6b5755452181c375a7a8214531f18ac5754"),
        (GOLDEN_MODEL, "text", "0d7a5eb450a4e378d0998d6f44070228ce70fdf05774ec752ea98e2674f6e434"),
        (GOLDEN_MODEL, "json", "d67210bbe98781ea4471871e1b9b9a09a0acb026944a593511ecfa10fef0a73b"),
    ], ids=["behavior-text", "behavior-json", "model-text", "model-json"])
    def test_golden_report_bytes(self, capsys, tmp_path, text, fmt, digest):
        path = tmp_path / "input.json"
        path.write_text(text, encoding="utf-8")
        code, out, _ = run(capsys, "--format", fmt, "chsh", str(path))
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


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

    # SHA-256 of stdout, pinned so that a change of strategy order, value types or layout shows
    @pytest.mark.parametrize("fmt, digest", [
        ("text", "9686d7a1d76cbbddadc92980b8db674cca35b23f1918b1cdef7fe391519d411c"),
        ("json", "b714cc197c5f869500221bacb2ca0b03bede49ca8d937471d486ced9076a3b74"),
    ], ids=["text", "json"])
    def test_golden_report_bytes(self, capsys, fmt, digest):
        code, out, _ = run(capsys, "--format", fmt, "enumerate")
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


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

    def test_negative_first_real_after_double_dash(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "optimize", "--seed", "1", "--", NEGATIVE_SPEC)
        assert code == 0
        _, positive, _ = run(capsys, "--format", "json", "optimize", POSITIVE_SPEC, "--seed", "1")
        assert json.loads(out)["results"]["best S"] == json.loads(positive)["results"]["best S"]

    def test_unnormalized_amplitudes_exit_2(self, capsys):
        code, _, err = run(capsys, "optimize", "1,0,1,0,0,0,0,0", "--seed", "1")
        assert code == 2
        assert "norm" in err

    @pytest.mark.parametrize("spec, error", [
        ("nan,0,0,0,0,0,1,0", "state amplitudes contain non-finite values"),
        ("1e200,0,0,0,0,0,0,0", "amplitude norm inf deviates from 1 beyond 1e-06"),
        # an empty field counts: 9 fields, and 9 again with a trailing comma
        ("0.6,,0,0,0,0,0,0.8,0", "state spec must be a keyword (00, 01, 10, 11, singlet) "
                                 "or 8 comma-separated reals, got '0.6,,0,0,0,0,0,0.8,0'"),
        ("0.6,0,0,0,0,0,0.8,0,", "state spec must be a keyword (00, 01, 10, 11, singlet) "
                                 "or 8 comma-separated reals, got '0.6,0,0,0,0,0,0.8,0,'"),
    ], ids=["nan", "norm_overflows", "empty_field", "trailing_comma"])
    def test_bad_amplitudes_stderr_is_one_error_line(self, spec, error):
        # a fresh interpreter, so that a numpy warning would reach stderr as it does for a user
        proc = subprocess.run([sys.executable, "-m", "bellkit.cli", "optimize", spec, "--seed", "1"],
                              env=src_env(), capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: {error}\n"

    def test_seed_optional(self, capsys):
        # without --seed the report is the seeded one less its seed line (text) or key (JSON)
        _, seeded_text, _ = run(capsys, "optimize", "singlet", "--seed", "7")
        _, seeded_json, _ = run(capsys, "--format", "json", "optimize", "singlet", "--seed", "7")
        code, text, _ = run(capsys, "optimize", "singlet")
        assert code == 0
        assert "seed: 7\n" in seeded_text and text == seeded_text.replace("seed: 7\n", "")
        code, out, _ = run(capsys, "--format", "json", "optimize", "singlet")
        assert code == 0
        body = json.loads(seeded_json)
        assert body.pop("seed") == 7
        assert out == json.dumps(body, indent=2, sort_keys=True) + "\n"

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

    # SHA-256 of stdout for a generic state, pinned so that a change of the (a, b, T) or optimum arithmetic shows
    @pytest.mark.parametrize("fmt, digest", [
        ("text", "faa6bee1ef7403ad24b59d51e17057c88d2c9746d91cc401892530487d8af6a7"),
        ("json", "078403e0a0d18c86310f90c20825d62c6d8c0f0505a3eefd052c7d2700e70408"),
    ], ids=["text", "json"])
    def test_golden_report_bytes(self, capsys, fmt, digest):
        code, out, _ = run(capsys, "--format", fmt, "optimize", GENERIC_SPEC)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    # the same for two keyword specs, which build their amplitudes in _parse_state rather than from 8 reals
    @pytest.mark.parametrize("fmt, spec, digest", [
        ("text", "singlet", "cdd489617c183dff88bae569e27064dd237f671e212df61f27bce11eda4ded93"),
        ("json", "singlet", "7cf4898d49f14d3d1d62e94fd179a426aef8b58f20c2fe3105a05bf5c8bab2c9"),
        ("text", "01", "56fcc4fcbe82017dd87fd92de754aedf9ef5997a8ff1517a363976c5e1564057"),
        ("json", "01", "5fc726e4203b0b0d1b3939ad1ab967535337922c7045a6a374a3d6c6b0f4d0fa"),
    ], ids=["singlet-text", "singlet-json", "01-text", "01-json"])
    def test_golden_keyword_report_bytes(self, capsys, fmt, spec, digest):
        code, out, _ = run(capsys, "--format", fmt, "optimize", spec)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    # a basis state's directions lie on the axes, and each zero component prints as +0.0, not -0.0
    @pytest.mark.parametrize("spec", ["00", "01", "10", "11"])
    def test_basis_reports_carry_no_negative_zero(self, capsys, spec):
        code, text, _ = run(capsys, "optimize", spec)
        assert code == 0 and "-0.0000000" not in text
        code, out, _ = run(capsys, "--format", "json", "optimize", spec)
        components = [x for key in ("alice u", "alice u'", "bob v", "bob v'") for x in json.loads(out)["results"][key]]
        assert code == 0 and len(components) == 12
        assert all(math.copysign(1.0, x) > 0.0 for x in components if x == 0.0)


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
        path.write_text(json.dumps(model_json(model)))
        out_csv = tmp_path / "d.csv"
        code, out, _ = run(capsys, "--format", "json", "sample", str(path),
                           "-n", "100000", "--seed", "31", "--out", str(out_csv))
        assert code == 0
        body = json.loads(out)
        gap = abs(body["results"]["estimated S"] - body["results"]["exact S"])
        assert gap <= 5.0 * body["results"]["stderr"]

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.update(settingPriorA=[0.5, 0.5]),
         ': "settingPriorA" must be an object with keys a, a\'\n'),
        (lambda d: d["lambda"][0].update(pB_plus=[1.0, 1.0]),
         ': lambda entry 0: "pB_plus" must be an object with keys b, b\'\n'),
    ])
    def test_non_object_response_pair_named_in_error(self, capsys, tmp_path, edit, message):
        data = network_json(NetworkSpec(model=deterministic_model(1, 1, 1, 1)))
        edit(data)
        path = tmp_path / "network.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "sample", str(path), "-n", "10", "--seed", "1",
                             "--out", str(tmp_path / "x.csv"))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.endswith(message)

    @pytest.mark.parametrize("n, prior_a, block", [("3", (0.5, 0.5), None),
                                                   ("1000", (1.0, 0.0), "(a',b)")])
    def test_sparse_block_exits_2_without_csv(self, capsys, tmp_path, n, prior_a, block):
        spec = NetworkSpec(model=deterministic_model(1, 1, 1, 1),
                           setting_prior_a=np.array(prior_a))
        path = tmp_path / "network.json"
        path.write_text(json.dumps(network_json(spec)))
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
    @linux_only
    def test_peak_memory_of_ten_million_records(self, tmp_path):
        # the CSV goes to the file piece by piece, so only the 1-byte record codes grow with -n
        network = tmp_path / "network.json"
        model = random_model(np.random.default_rng(0), n_lambda=2)
        network.write_text(json.dumps(network_json(NetworkSpec(model=model))))
        out_csv = tmp_path / "d.csv"
        assert peak_rise_mb(CLI_SETUP, CLI_MAIN, "sample", str(network), "-n", "10000000",
                            "--seed", "1", "--out", str(out_csv)) < 32
        out_csv.unlink()

    def test_exact_s_is_the_chsh_s(self, capsys, tmp_path):
        # model files, and network files whose setting priors are not uniform: both commands print one S
        rng = np.random.default_rng(11)
        files = [model_json(random_model(rng, n_lambda=5)) for _ in range(6)]
        for a, b in [(0.9, 0.2), *rng.uniform(0.2, 0.8, (5, 2))]:  # P(a) and P(b)
            spec = NetworkSpec(model=random_model(rng, n_lambda=5), setting_prior_a=np.array([a, 1.0 - a]),
                               setting_prior_b=np.array([b, 1.0 - b]))
            files.append(network_json(spec))
        for i, data in enumerate(files):
            path = tmp_path / f"f{i}.json"
            path.write_text(json.dumps(data))
            code, chsh_out, _ = run(capsys, "--format", "json", "chsh", str(path))
            assert code == 0
            code, sample_out, _ = run(capsys, "--format", "json", "sample", str(path), "-n", "1000",
                                      "--seed", "1", "--out", str(tmp_path / "d.csv"))
            assert code == 0
            assert repr(json.loads(sample_out)["results"]["exact S"]) == repr(json.loads(chsh_out)["results"]["S"]), i

    @pytest.mark.parametrize("entry", GOLDEN, ids=lambda e: f"seed{e['seed']}")
    def test_golden_csv_digest(self, capsys, tmp_path, entry):
        path = tmp_path / "network.json"
        path.write_text(json.dumps(entry["network"]))
        out_csv = tmp_path / "d.csv"
        code, _, _ = run(capsys, "sample", str(path), "-n", str(entry["n"]),
                         "--seed", str(entry["seed"]), "--out", str(out_csv))
        assert code == 0
        assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == entry["sha256"]

    # SHA-256 of stdout for the 2-value golden network, whose "exact S" (-1.1184374999999998) rounds in
    # lhv_behavior; written next to the CSV, so that the report's output path is the same on every run
    @pytest.mark.parametrize("fmt, digest", [
        ("text", "2d3d93914de956597190da1ccd8e46891da54932708edebc60e9cd5aadb36ff9"),
        ("json", "be1ff004233e3d47d5e1e50d264a979277e649f38061c068b04a2f52ee4aca0b"),
    ], ids=["text", "json"])
    def test_golden_report_bytes(self, capsys, tmp_path, monkeypatch, fmt, digest):
        entry = next(e for e in GOLDEN if e["seed"] == 20250005)
        monkeypatch.chdir(tmp_path)
        Path("network.json").write_text(json.dumps(entry["network"]))
        code, out, _ = run(capsys, "--format", fmt, "sample", "network.json", "-n", str(entry["n"]),
                           "--seed", str(entry["seed"]), "--out", "d.csv")
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("labels", [("x,y", "x,y"), ("l0", "l0"), ('say "hi"', "l1"),
                                    ("l0\r", "l1"), ("l0", "l\n1")])
@pytest.mark.parametrize("command", ["sample", "chsh"])
def test_labels_that_break_the_csv_exit_2(capsys, tmp_path, labels, command):
    data = model_json(random_model(np.random.default_rng(4), n_lambda=2))
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


def _quoted_blocks(data):
    data["blocks"] = {key: [["0.25", "0.25"], ["0.25", "0.25"]] for key in data["blocks"]}


def _string_prob(data):
    data["lambda"][0]["prob"] = "1"


def _boolean_response(data):
    data["lambda"][0]["pA_plus"] = {"a": True, "a'": False}


def _string_setting_prior(data):
    data["settingPriorA"] = {"a": "0.5", "a'": 0.5}


def _null_block_entry(data):
    data["blocks"]["a,b"][1][0] = None


def _null_prob(data):
    data["lambda"][0]["prob"] = None


def _null_response(data):
    data["lambda"][0]["pB_plus"]["b'"] = None


def _null_setting_prior(data):
    data["settingPriorB"]["b"] = None


def _list_prob(data):
    data["lambda"][0]["prob"] = [0.5]


def _object_in_block(data):
    data["blocks"]["a,b"] = [[{}, 1], [0, 0]]


# an integer beyond double range reads as +-inf, as 1e400 does; float() and numpy raised OverflowError on it
_BEYOND_DOUBLE = 10**400
# its echo in a message: the first 40 characters of its 401 digits
_BEYOND_DOUBLE_ECHO = "1" + "0" * 39 + "... (401 characters)"


def _huge_block_entry(data):
    data["blocks"]["a,b'"][0][0] = _BEYOND_DOUBLE


def _huge_prob(data):
    data["lambda"][0]["prob"] = _BEYOND_DOUBLE


def _huge_response(data):
    data["lambda"][0]["pA_plus"]["a'"] = -_BEYOND_DOUBLE


def _huge_setting_prior(data):
    data["settingPriorA"]["a"] = _BEYOND_DOUBLE


# JSON strings and booleans that float() and numpy would read as numbers, nulls that numpy reads as nan,
# and lists and objects that float() would name by their Python type
@pytest.mark.parametrize("command, kind, edit, message", [
    ("chsh", "behavior", _quoted_blocks, 'block "a,b" is not numeric: "0.25" is not a JSON number'),
    ("chsh", "model", _string_prob,
     'lambda entry 0 "prob" is not a number: "1" is not a JSON number'),
    ("chsh", "model", _boolean_response,
     'lambda entry 0: "pA_plus"["a"] is not a number: true is not a JSON number'),
    ("sample", "network", _string_setting_prior, '"settingPriorA"["a"] is not a number: "0.5" is not a JSON number'),
    ("chsh", "behavior", _null_block_entry, 'block "a,b" is not numeric: null is not a JSON number'),
    ("sample", "network", _null_prob, 'lambda entry 0 "prob" is not a number: null is not a JSON number'),
    ("chsh", "model", _null_response,
     'lambda entry 0: "pB_plus"["b\'"] is not a number: null is not a JSON number'),
    ("sample", "network", _null_setting_prior, '"settingPriorB"["b"] is not a number: null is not a JSON number'),
    ("sample", "network", _list_prob, 'lambda entry 0 "prob" is not a number: [0.5] is not a JSON number'),
    ("chsh", "behavior", _object_in_block, 'block "a,b" is not numeric: {} is not a JSON number'),
    ("chsh", "behavior", _huge_block_entry, f"block \"a,b'\" is not a finite double: {_BEYOND_DOUBLE_ECHO}"),
    ("sample", "network", _huge_prob, f'lambda entry 0 "prob" is not a finite double: {_BEYOND_DOUBLE_ECHO}'),
    ("chsh", "model", _huge_response,
     f'lambda entry 0: "pA_plus"["a\'"] is not a finite double: -{_BEYOND_DOUBLE_ECHO[:39]}... (402 characters)'),
    ("sample", "network", _huge_setting_prior, f'"settingPriorA"["a"] is not a finite double: {_BEYOND_DOUBLE_ECHO}'),
], ids=["behavior-block", "model-prob", "model-response", "network-setting-prior", "behavior-block-null",
        "network-prob-null", "model-response-null", "network-setting-prior-null", "network-prob-list",
        "behavior-block-object", "behavior-block-huge", "network-prob-huge", "model-response-huge",
        "network-setting-prior-huge"])
def test_strings_and_booleans_are_not_numbers(capsys, tmp_path, singlet_behavior, command, kind, edit, message):
    model = deterministic_model(1, 1, 1, 1)
    data = {"behavior": lambda: behavior_json(singlet_behavior), "model": lambda: model_json(model),
            "network": lambda: network_json(NetworkSpec(model=model))}[kind]()
    edit(data)
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(data))
    out_csv = tmp_path / "d.csv"
    extra = ["-n", "100", "--seed", "1", "--out", str(out_csv)] if command == "sample" else []
    code, out, err = run(capsys, command, str(path), *extra)
    assert code == 2
    assert out == ""
    assert err == f"error: {path}: {message}\n"
    assert not out_csv.exists()


_BAD_TOP_KEY = 'unknown key "settingpriorA"; expected "lambda", "settingPriorA" or "settingPriorB"'
_BAD_ENTRY_KEY = 'lambda entry 1: unknown key "pB_Plus"; expected "label", "prob", "pA_plus" or "pB_plus"'


def _misspelled_setting_prior(data):
    data["settingpriorA"] = {"a": 1.0, "a'": 0.0}


def _misspelled_entry_key(data):
    data["lambda"][1]["pB_Plus"] = data["lambda"][1].pop("pB_plus")


@pytest.mark.parametrize("command, kind, edit, message", [
    ("chsh", "network", _misspelled_setting_prior, _BAD_TOP_KEY),
    ("sample", "network", _misspelled_setting_prior, _BAD_TOP_KEY),
    ("chsh", "network", _misspelled_entry_key, _BAD_ENTRY_KEY),
    ("sample", "network", _misspelled_entry_key, _BAD_ENTRY_KEY),
    ("chsh", "behavior", lambda d: d.update(blcks={}), 'unknown key "blcks"; expected "blocks"'),
    ("chsh", "behavior", lambda d: d["blocks"].update({"a,B": [[1, 0], [0, 0]]}),
     '"blocks": unknown key "a,B"; expected "a,b", "a,b\'", "a\',b" or "a\',b\'"'),
    ("chsh", "network", lambda d: d["lambda"][0]["pA_plus"].update({"A'": 1.0}),
     'lambda entry 0: "pA_plus": unknown key "A\'"; expected "a" or "a\'"'),
    ("sample", "network", lambda d: d["lambda"][1]["pB_plus"].update(c=0.5),
     'lambda entry 1: "pB_plus": unknown key "c"; expected "b" or "b\'"'),
    ("sample", "network", lambda d: d["settingPriorB"].update({"B": 0.0}),
     '"settingPriorB": unknown key "B"; expected "b" or "b\'"'),
    ("chsh", "network", lambda d: d["settingPriorA"].update({"a''": 0.0}),
     '"settingPriorA": unknown key "a\'\'"; expected "a" or "a\'"'),
], ids=["top-level-chsh", "top-level-sample", "entry-chsh", "entry-sample", "behavior-top-level", "blocks",
        "response-a", "response-b", "setting-prior-sample", "setting-prior-chsh"])
def test_unknown_key_exits_2(capsys, tmp_path, singlet_behavior, command, kind, edit, message):
    # a misspelled key was dropped without a word: a misspelled setting prior sampled from the uniform default
    if kind == "behavior":
        data = behavior_json(singlet_behavior)
    else:
        data = network_json(NetworkSpec(model=random_model(np.random.default_rng(8), n_lambda=2)))
    edit(data)
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(data))
    out_csv = tmp_path / "d.csv"
    extra = ["-n", "100", "--seed", "1", "--out", str(out_csv)] if command == "sample" else []
    code, out, err = run(capsys, command, str(path), *extra)
    assert (code, out, err) == (2, "", f"error: {path}: {message}\n")
    assert not out_csv.exists()


@pytest.mark.parametrize("prior", [[0.5, 0.5], "a", None, {"a": -0.5, "a'": 1.5}, {"a": 1.5, "a'": 0.5},
                                   {"a": 1.0}, {"a": "1", "a'": 0.0}],
                         ids=["list", "string", "null", "negative", "sums-to-2", "missing-setting", "string-entry"])
def test_chsh_refuses_the_setting_priors_sample_refuses(capsys, tmp_path, prior):
    data = network_json(NetworkSpec(model=deterministic_model(1, -1, 1, 1)))
    data["settingPriorA"] = prior
    path = tmp_path / "network.json"
    path.write_text(json.dumps(data))
    out_csv = tmp_path / "d.csv"
    sampled = run(capsys, "sample", str(path), "-n", "100", "--seed", "1", "--out", str(out_csv))
    assert sampled[0] == 2 and sampled[2].startswith(f"error: {path}: ")
    assert run(capsys, "chsh", str(path)) == sampled
    assert not out_csv.exists()


@pytest.mark.parametrize("label", [None, True, 1, ["l1"]], ids=["null", "true", "number", "list"])
@pytest.mark.parametrize("command", ["sample", "chsh"])
def test_label_not_a_json_string_exits_2(capsys, tmp_path, command, label):
    data = model_json(random_model(np.random.default_rng(4), n_lambda=2))
    data["lambda"][1]["label"] = label
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    out_csv = tmp_path / "d.csv"
    extra = ["-n", "100", "--seed", "1", "--out", str(out_csv)] if command == "sample" else []
    code, out, err = run(capsys, command, str(path), *extra)
    assert code == 2
    assert out == ""
    assert err == f"error: {path}: lambda entry 1 \"label\" is not a JSON string: {json.dumps(label)}\n"
    assert not out_csv.exists()


@pytest.mark.parametrize("command", ["sample", "chsh"])
def test_label_not_encodable_as_utf8_exits_2(capsys, tmp_path, command):
    data = model_json(random_model(np.random.default_rng(4), n_lambda=2))
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
        # the first piece outgrows the write buffer, so it reaches the temp file before the second fails
        _write_text(str(out_csv), ["lambda,x,y,A,B\n" + "l0,a,b,+1,+1\n" * 10**4, "\ud800,a,b,+1,+1\n"])
    assert out_csv.read_text() == "old contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["d.csv"]


@pytest.mark.parametrize("command", ["sample", "chsh"])
def test_file_not_utf8_exits_2_without_csv(capsys, tmp_path, command):
    # a valid model file but for one 0xff byte in the first label, at byte offset 24
    text = json.dumps(model_json(random_model(np.random.default_rng(4), n_lambda=2)))
    assert text.startswith('{"lambda": [{"label": "l0"')
    path = tmp_path / "model.json"
    path.write_bytes(text.encode("utf-8").replace(b'"l0"', b'"l\xff"'))
    out_csv = tmp_path / "d.csv"
    extra = ["-n", "100", "--seed", "1", "--out", str(out_csv)] if command == "sample" else []
    code, out, err = run(capsys, command, str(path), *extra)
    assert code == 2
    assert out == ""
    assert err == f"error: {path}: byte 0xff at offset 24 is not UTF-8\n"
    assert not out_csv.exists()


_THREE_BLOCKS = json.dumps({"blocks": {key: [[0.25, 0.25], [0.25, 0.25]] for key in ("a,b", "a',b", "a',b'")}})
# past Python's 4300-digit limit for int(), which json.loads raised as a ValueError
_LONG_INTEGER_BLOCKS = _THREE_BLOCKS.replace("}}", ', "a,b\'": [[1' + "0" * 5000 + ", 0], [0, 0]]}}")


@pytest.mark.parametrize("command, text, message", [
    ("chsh", '{\n  "blocks": oops\n}', "line 2, column 13: Expecting value"),
    ("sample", '{\n  "lambda": oops\n}', "line 2, column 13: Expecting value"),
    ("chsh", '{"foo": 1}', 'expected a behavior file ("blocks") or a model file ("lambda")'),
    ("chsh", "[1, 2]", 'expected a behavior file ("blocks") or a model file ("lambda")'),
    ("sample", "[1, 2]", 'expected an object with a "lambda" key'),
    ("chsh", _THREE_BLOCKS, "missing block \"a,b'\""),
    ("chsh", '{"lambda": []}', '"lambda" must be a non-empty list'),
    ("sample", '{"lambda": []}', '"lambda" must be a non-empty list'),
    ("chsh", _LONG_INTEGER_BLOCKS, "block \"a,b'\" is not a finite double: Infinity"),
    ("sample", '{"lambda": [{"prob": -1' + "0" * 5000 + ', "pA_plus": {"a": 1, "a\'": 1}, '
               '"pB_plus": {"b": 1, "b\'": 1}}]}', 'lambda entry 0 "prob" is not a finite double: -Infinity'),
    ("sample", "[" * 10**5 + "]" * 10**5, "arrays and objects nested too deeply to decode"),
    # a number beyond double range in each file kind, named by its place
    ("chsh", _THREE_BLOCKS.replace("}}", ', "a,b\'": [[1e400, 0], [0, 0]]}}'),
     "block \"a,b'\" is not a finite double: Infinity"),
    ("chsh", '{"lambda": [{"prob": 1e400, "pA_plus": {"a": 1, "a\'": 1}, "pB_plus": {"b": 1, "b\'": 1}}]}',
     'lambda entry 0 "prob" is not a finite double: Infinity'),
    ("sample", '{"lambda": [{"prob": 1, "pA_plus": {"a": 1, "a\'": 1}, "pB_plus": {"b": 1, "b\'": 1}}], '
               '"settingPriorA": {"a": -1e400, "a\'": 1}}', '"settingPriorA"["a"] is not a finite double: -Infinity'),
], ids=["chsh-syntax", "sample-syntax", "chsh-neither", "chsh-array", "sample-array", "chsh-missing-block",
        "chsh-empty-lambda", "sample-empty-lambda", "chsh-long-integer", "sample-long-integer", "sample-deep",
        "chsh-behavior-1e400", "chsh-model-1e400", "sample-network-1e400"])
def test_malformed_file_stderr_names_the_path_once(capsys, tmp_path, command, text, message):
    path = tmp_path / "input.json"
    path.write_text(text, encoding="utf-8")
    out_csv = tmp_path / "d.csv"
    extra = ["-n", "100", "--seed", "1", "--out", str(out_csv)] if command == "sample" else []
    code, out, err = run(capsys, command, str(path), *extra)
    assert code == 2
    assert out == ""
    assert err == f"error: {path}: {message}\n"
    assert err.count(str(path)) == 1
    assert not out_csv.exists()


def _long_prob(data):
    data["lambda"][0]["prob"] = [0.5] * 200_000  # 1.0 MB of JSON


def _long_label_list(data):
    data["lambda"][0]["label"] = list(range(100_000))


def _long_label_with_comma(data):
    data["lambda"][0]["label"] = "l," + "x" * 100_000


def _long_unknown_key(data):
    data["lambda"][0]["k" * 100_000] = 0


# a message quotes at most 40 characters of an input value and names its length
@pytest.mark.parametrize("edit, message", [
    (_long_prob, 'lambda entry 0 "prob" is not a number: [0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5,... '
                 '(1000000 characters) is not a JSON number'),
    (_long_label_list, 'lambda entry 0 "label" is not a JSON string: [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, '
                       '1... (688890 characters)'),
    (_long_label_with_comma, "label 'l,xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx... (100004 characters) contains a "
                             "comma, double quote, CR or LF"),
    (_long_unknown_key, 'lambda entry 0: unknown key "kkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkk... (100002 characters); '
                        'expected "label", "prob", "pA_plus" or "pB_plus"'),
], ids=["prob-list", "label-list", "label-comma", "unknown-key"])
def test_long_value_echo_is_cut(capsys, tmp_path, edit, message):
    data = model_json(deterministic_model(1, 1, 1, 1))
    edit(data)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "chsh", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: {path}: {message}\n"
    assert len(err) < 200 + len(str(path))


@pytest.mark.parametrize("command", ["sample", "chsh"])
def test_overflowing_sum_stderr_is_one_error_line(tmp_path, command):
    # a fresh interpreter, so that a numpy overflow warning would reach stderr as it does for a user
    out_csv = tmp_path / "d.csv"
    if command == "sample":
        data = model_json(random_model(np.random.default_rng(4), n_lambda=2))
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

    def test_long_unknown_name_gives_one_short_line(self, capsys):
        code, out, err = run(capsys, "taxonomy", "z" * 100_000)
        assert code == 3
        assert out == ""
        assert err.startswith(f"error: unknown interpretation '{'z' * 39}... (100002 characters). Valid names: ")
        assert err.count("\n") == 1 and len(err) < 500

    # SHA-256 of stdout, the text report with its table, pinned so that a change of rows, order or layout shows
    @pytest.mark.parametrize("fmt, argv, digest", [
        ("text", (), "d30b2dd7cde6a1d9d290856eeda01b56972dfc0687f8b66e8a7aefb56f2b1db7"),
        ("json", (), "464427ebc72eac11fc38b5795ad20db31f9cc364e0653c7100868dddbf06908a"),
        ("text", ("Everett",), "ebe64b925a3b30c897a21e8d953627d198292732deaa540adfcc8e720aa7ec01"),
        ("json", ("Everett",), "a0ccb6545796739ae6cd7cd6eff1a97617794bea9a5af55b3fe3ed25274b3efb"),
    ], ids=["table-text", "table-json", "everett-text", "everett-json"])
    def test_golden_report_bytes(self, capsys, fmt, argv, digest):
        code, out, _ = run(capsys, "--format", fmt, "taxonomy", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


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

    def test_negative_first_real_after_double_dash(self, capsys, tmp_path):
        negative, positive = tmp_path / "negative.csv", tmp_path / "positive.csv"
        code, _, _ = run(capsys, "sweep", "--steps", "3", "--out", str(negative), "--", NEGATIVE_SPEC)
        assert code == 0
        run(capsys, "sweep", POSITIVE_SPEC, "--steps", "3", "--out", str(positive))
        assert negative.read_text() == positive.read_text()

    def test_single_step_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "sweep", "singlet", "--steps", "1",
                           "--out", str(tmp_path / "s.csv"))
        assert code == 2
        assert "steps" in err

    def test_steps_above_cap_exit_2_without_rows(self, capsys, monkeypatch, tmp_path):
        from bellkit import optimize

        def no_rows(*args):
            raise AssertionError("sweep angles were computed")

        # the count is refused before the angle array, and so any row array, exists;
        # every block of angles that sweep computes starts from np.arange
        monkeypatch.setattr(np, "arange", no_rows)
        steps = optimize.MAX_STEPS + 1
        out_csv = tmp_path / "s.csv"
        code, out, err = run(capsys, "sweep", "singlet", "--steps", str(steps), "--out", str(out_csv))
        assert code == 2
        assert out == ""
        assert err == f"error: sweep row count --steps must be between 2 and 10000000, got {steps}\n"
        assert not out_csv.exists()

    # SHA-256 of the CSV, pinned so that a change of angle or S arithmetic shows;
    # the last file's first row, 0.0,0.0, also pins the sign of zero
    @pytest.mark.parametrize("argv, digest", [
        (["singlet", "--steps", "361"],
         "c098d94d1f83c1b958848fae12967c5e4106dcb2672a4c32fe0b7b083dc6600b"),
        (["11", "--steps", "1000", "--theta-start", "-720.5", "--theta-end", "13.25"],
         "622e4663caad71560ae1c59985ad5700e21123558b25093002fd76f0751f19cd"),
        (["0.6,0,0.48,0,0,0.64,0,0", "--steps", "91", "--theta-start", "0", "--theta-end", "90"],
         "c58ad818e16e0de7ef626a3355e2e3d465624a25f9364646fa8d92de5ede97ef"),
        ([GENERIC_SPEC, "--steps", "361"], "8cef29061a4cac0d7cc793ca7f85f47550007bbe8f2eb3a9b8694297caa654c5"),
    ])
    def test_golden_csv_bytes(self, capsys, tmp_path, argv, digest):
        out_csv = tmp_path / "s.csv"
        code, _, _ = run(capsys, "sweep", *argv, "--out", str(out_csv))
        assert code == 0
        assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == digest

    # SHA-256 of stdout, written next to the CSV so that the report's output path is the same on every run
    @pytest.mark.parametrize("fmt, digest", [
        ("text", "9332ba61a7c05d229bc27bee577f61ea5d56cff1f5231bf01d9a6a6b2a7a5725"),
        ("json", "02f0378cba5433d286867fa95b40e0f911a38ada4a6a680db64f32ab2b12a0ff"),
    ], ids=["text", "json"])
    def test_golden_report_bytes(self, capsys, tmp_path, monkeypatch, fmt, digest):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "--format", fmt, "sweep", GENERIC_SPEC, "--steps", "361", "--out", "s.csv")
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    @linux_only
    def test_peak_memory_of_a_million_rows(self, tmp_path):
        # the rows take 16 MB; their CSV text goes to the file piece by piece
        assert peak_rise_mb(CLI_SETUP, CLI_MAIN, "sweep", "singlet", "--steps", "1000000",
                            "--out", str(tmp_path / "s.csv")) < 64

    @linux_only
    def test_peak_memory_of_300000_rows(self, tmp_path):
        # a fresh process, whose peak covers interpreter start-up, the rows and their CSV text
        code = ("import resource, subprocess, sys\n"
                "subprocess.run([sys.executable, '-m', 'bellkit.cli', 'sweep', 'singlet',\n"
                "                '--steps', '300000', '--out', sys.argv[1]],\n"
                "               stdout=subprocess.DEVNULL, check=True)\n"
                "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n")
        out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "s.csv")], env=src_env(),
                             capture_output=True, text=True, check=True)
        assert int(out.stdout) / 1024 < 100  # MB

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


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full to write the report to")
@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize("argv", [("--format", "json", "enumerate"), ("taxonomy", "Everett"), ("taxonomy",)])
def test_report_write_to_full_device_exits_4(argv, unbuffered):
    # buffered, the report fits the buffer and only the flush fails; unbuffered, the write itself fails
    env = {k: v for k, v in src_env().items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "bellkit.cli", *argv], stdout=full, env=env,
                              stderr=subprocess.PIPE, text=True, timeout=120)
    assert proc.returncode == 4
    assert proc.stderr == "error: cannot write the report: No space left on device\n"


@linux_only
@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize("argv", [("--help",), ("optimize", "-h")])
def test_help_to_full_device_exits_4(argv, unbuffered):
    # argparse itself ignores the failed write (unbuffered) or leaves it to the flush at exit (buffered)
    env = {k: v for k, v in src_env().items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "bellkit.cli", *argv], stdout=full, env=env,
                              stderr=subprocess.PIPE, text=True, timeout=120)
    assert proc.returncode == 4
    assert proc.stderr == "error: cannot write the help: No space left on device\n"


@pytest.mark.parametrize("argv, usage", [(["--help"], "usage: bellkit [-h]"),
                                         (["sweep", "-h"], "usage: bellkit sweep [-h]")])
def test_help_is_written_and_exits_0(capsys, argv, usage):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith(usage)


def test_report_write_to_closed_pipe_exits_4():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "bellkit.cli", "taxonomy"], stdout=write_end,
                              env=src_env(), stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 4
    assert proc.stderr == "error: cannot write the report: Broken pipe\n"


def test_behavior_file_roundtrip_through_tool(capsys, tmp_path):
    # the tool re-reads what it would write: same digest twice
    b = quantum_behavior(singlet(), tsirelson_settings().as_tuple())
    path = tmp_path / "b.json"
    path.write_text(json.dumps(behavior_json(b)))
    _, out1, _ = run(capsys, "chsh", str(path))
    _, out2, _ = run(capsys, "chsh", str(path))
    assert out1 == out2

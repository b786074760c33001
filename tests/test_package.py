"""The package surface, which modules each subcommand loads (numpy among them), and the names perfbench traces."""

import importlib
import inspect
import json
import os
import subprocess
import sys
import typing
from pathlib import Path

import numpy
import pytest

import bellkit
import bellkit.cli
from bellkit import NetworkSpec
from conftest import behavior_json, deterministic_model, network_json, src_env
from test_cli import GENERIC_SPEC, GOLDEN_MODEL

# the public names and their defining modules, as bellkit exported them when it still imported eagerly
PUBLIC = {
    "behavior": ("Behavior", "NoSignalingReport", "behavior_from_correlators", "correlators", "no_signaling",
                 "pr_box", "random_no_signaling_behavior", "uniform_behavior"),
    "errors": ("BellKitError", "InsufficientDataError", "InternalConsistencyError", "InvalidInputError",
               "UnknownInterpretationError"),
    "lhv": ("LHVModel", "chsh", "enumerate_deterministic", "lhv_behavior", "random_model"),
    "network": ("ChshEstimate", "MarkovReport", "NetworkSpec", "SampleDataset", "conditional_behavior",
                "estimate_chsh", "exact_chsh", "exact_joint", "sample", "verify_markov"),
    "optimize": ("MeasurementSettings", "OptimizationResult", "chsh_of_settings", "seesaw_maximize", "sweep",
                 "tsirelson_settings"),
    "polytope": ("LocalDecomposition", "TSIRELSON", "chsh_variants", "is_local", "local_decomposition"),
    "quantum": ("TwoQubitState", "UnitVector3", "basis_state", "correlation_matrix", "quantum_behavior",
                "random_pure_state", "singlet"),
    "theses": ("EscapeRoute", "InterpretationRecord", "NonlocalWitness", "Stance", "SuperdeterministicWitness",
               "Thesis", "classical", "escape_route", "find_interpretation", "nonlocal_witness", "qm_compatible",
               "superdeterministic_witness", "taxonomy"),
}
HEAVY = {"bellkit.quantum", "bellkit.optimize", "bellkit.polytope", "bellkit.theses"}


def test_all_is_the_public_surface():
    names = [name for names in PUBLIC.values() for name in names]
    assert len(names) == 59
    assert sorted(bellkit.__all__) == sorted(names)


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_each_name_is_its_defining_modules_object(module):
    source = importlib.import_module(f"bellkit.{module}")
    for name in PUBLIC[module]:
        assert getattr(bellkit, name) is getattr(source, name), name
        # stored in the package on first use, so that later reads skip __getattr__
        assert vars(bellkit)[name] is getattr(source, name), name


def test_dir_and_star_import_cover_all():
    assert set(bellkit.__all__) <= set(dir(bellkit))
    namespace = {}
    exec("from bellkit import *", namespace)
    assert set(bellkit.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(bellkit, name) for name in bellkit.__all__)


def test_annotations_resolve_with_numpy_supplied():
    """No module binds numpy at its top, so annotations that name ``np`` resolve once the caller supplies it."""
    for name in bellkit.__all__:
        obj = getattr(bellkit, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            typing.get_type_hints(obj, localns={"np": numpy})


def test_submodule_import_and_unknown_name():
    from bellkit import quantum

    assert quantum is sys.modules["bellkit.quantum"]
    with pytest.raises(AttributeError, match="'bellkit' has no attribute 'no_such_name'"):
        bellkit.no_such_name  # noqa: B018


# perfbench wraps the functions bound in bellkit.cli's own namespace, not those in their source
# modules (see the FOUND entry on perfbench/harness.py cli_trace_targets in CHANGES.md; ROADMAP item 1
# moves the wrapping to the source modules).  Until then, a handler-local import of one of these
# names would leave its io.* or network.* metric unmeasured without failing anything.
PERFBENCH_TRACED = ("load_json", "behavior_from_json", "model_from_json", "parse_network_text",
                    "sweep_rows_to_csv", "sample", "estimate_chsh", "verify_markov", "exact_chsh")


@pytest.mark.parametrize("name", PERFBENCH_TRACED)
def test_cli_binds_the_functions_perfbench_traces(name):
    fn = vars(bellkit.cli).get(name)
    assert inspect.isfunction(fn)
    assert fn.__module__ in ("bellkit.io", "bellkit.network")


# runs main(argv) in a fresh interpreter, or imports the module that follows "--import", then prints
# to stderr the bellkit submodules it loaded, and those of numpy, dataclasses and inspect that it loaded
_LOADED = ("import importlib, json, sys\n"
           "if sys.argv[1] == '--import':\n"
           "    importlib.import_module(sys.argv[2])\n"
           "else:\n"
           "    from bellkit.cli import main\n"
           "    assert main(sys.argv[1:]) == 0\n"
           "print(json.dumps(sorted(m for m in sys.modules\n"
           "                        if m.startswith('bellkit.') or m in ('numpy', 'dataclasses', 'inspect'))),\n"
           "      file=sys.stderr)\n")


def loaded_modules(*argv: str, cwd) -> set[str]:
    env = {**src_env(), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", _LOADED, *argv], env=env, cwd=cwd, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stderr))


def test_import_bellkit_loads_no_submodule(tmp_path):
    assert loaded_modules("--import", "bellkit", cwd=tmp_path) == set()


def test_import_bellkit_cli_loads_no_numpy(tmp_path):
    assert "numpy" not in loaded_modules("--import", "bellkit.cli", cwd=tmp_path)


# the light subcommands load no numpy: their arithmetic runs on Python floats; no subcommand loads
# dataclasses, and the light ones load no inspect either (numpy imports it, so sample and sweep do)
@pytest.mark.parametrize("argv, heavy", [
    (("enumerate",), set()),
    (("sample", "network.json", "-n", "100", "--seed", "1", "--out", "s.csv"), {"numpy"}),
    (("taxonomy",), {"bellkit.theses"}),
    (("taxonomy", "Everett"), {"bellkit.theses"}),
    (("chsh", "behavior.json"), {"bellkit.polytope"}),
    (("optimize", "singlet"), {"bellkit.quantum", "bellkit.optimize"}),
    (("sweep", "00", "--steps", "3", "--out", "w.csv"), {"bellkit.quantum", "bellkit.optimize", "numpy"}),
    (("chsh", "network.json"), {"bellkit.polytope"}),
    (("optimize", "0.6,0,0,0,0,0,0.8,0"), {"bellkit.quantum", "bellkit.optimize"}),
])
def test_each_subcommand_loads_only_its_modules(tmp_path, singlet_behavior, argv, heavy):
    (tmp_path / "behavior.json").write_text(json.dumps(behavior_json(singlet_behavior)))
    spec = NetworkSpec(model=deterministic_model(1, 1, 1, 1))
    (tmp_path / "network.json").write_text(json.dumps(network_json(spec)))
    loaded = loaded_modules(*argv, cwd=tmp_path)
    assert "bellkit.cli" in loaded
    assert loaded & (HEAVY | {"numpy"}) == heavy
    assert "dataclasses" not in loaded
    assert "inspect" not in loaded or "numpy" in heavy


# the decomposition and its recomposition run on Python floats, as the verdicts do
_NO_NUMPY = ("import sys\n"
             "from bellkit import LocalDecomposition, behavior_from_correlators, chsh, is_local, local_decomposition\n"
             "from bellkit.tolerance import ROUNDOFF\n"
             "b = behavior_from_correlators([[0.5, 0.25], [0.5, -0.5]], [0.25, -0.125], [0.0, 0.5])\n"
             "d = local_decomposition(b)\n"
             "assert is_local(b) and d is not None\n"
             "assert max(abs(x - y) for x, y in zip(d.behavior()._entries, b._entries)) <= ROUNDOFF\n"
             "vertex = LocalDecomposition([0.0, 1.0] + [0.0] * 14).behavior()\n"
             "assert vertex._entries[4:8] == (0.0, 1.0, 0.0, 0.0)\n"
             "assert chsh([0.5, 0.25, 0.5, -0.5]) == 1.75\n"
             "print('numpy' in sys.modules)\n")


def test_decomposition_loads_no_numpy(tmp_path):
    env = {**src_env(), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", _NO_NUMPY], env=env, cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


_MAIN = "import sys\nfrom bellkit.cli import main\nsys.exit(main(sys.argv[1:]))\n"


def other_interpreters() -> list[str]:
    """One ``python3.1x`` (x >= 10) per minor version found on PATH that starts, this interpreter's version aside."""
    found = {f"{sys.version_info[0]}.{sys.version_info[1]}": sys.executable}
    for directory in os.environ.get("PATH", "").split(os.pathsep):
        for exe in sorted(Path(directory or ".").glob("python3.1[0-9]")):
            if exe.name[len("python"):] in found:
                continue
            probe = subprocess.run([str(exe), "-c", "import sys; print(sys.version_info >= (3, 10))"],
                                   capture_output=True, text=True, timeout=60)
            if probe.returncode == 0 and probe.stdout.strip() == "True":
                found[exe.name[len("python"):]] = str(exe)
    return [exe for exe in found.values() if exe != sys.executable]


# these subcommands load no numpy, so any interpreter runs them; their stdout must not depend on which
@pytest.mark.parametrize("argv", [("optimize", "singlet"), ("--format", "json", "optimize", GENERIC_SPEC),
                                  ("--format", "json", "chsh", "model.json")], ids=["singlet", "generic", "model"])
def test_light_reports_are_the_same_under_every_interpreter(tmp_path, argv):
    interpreters = other_interpreters()
    if not interpreters:
        pytest.skip("no other python3.1x (x >= 10) on PATH")
    (tmp_path / "model.json").write_text(GOLDEN_MODEL)
    env = {**src_env(), "PYTHONDONTWRITEBYTECODE": "1"}
    outputs = {}
    for exe in (sys.executable, *interpreters):
        proc = subprocess.run([exe, "-c", _MAIN, *argv], env=env, cwd=tmp_path, capture_output=True, timeout=120)
        assert proc.returncode == 0, (exe, proc.stderr)
        outputs[exe] = proc.stdout
    assert len(set(outputs.values())) == 1, {exe: out[-200:] for exe, out in outputs.items()}

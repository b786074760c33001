"""The three workloads: ``cli_light``, ``sample_bulk`` and ``state_scan``.

Each is a closed loop with one client: the next operation starts when the
previous one has finished and been checked.  Inputs come from the workload
seed alone; bellkit sees only the generated files and arguments.  Outputs go
to the run's scratch directory and are deleted once checked.

A workload offers these phases:
- ``setup_round`` generates the inputs and runs discarded warm-up ops, with
  speed-kernel samples through its work, the last one after it; the run
  repeats it and reports the median as ``setup_s``;
- ``ready`` finishes this process's own set-up after the rounds;
- ``timed`` runs the ops round-robin for the given seconds, untraced;
- ``traced`` runs the same ops in-process with spans at layer boundaries,
  each one also untraced for the tracing overhead;
- ``probe`` is a single small traced pass, used by the other workloads to
  time functions their own ops never call.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import harness as H
import reference as R

HERE = Path(__file__).resolve().parent
GOLDEN = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))


def _seed_stream(seed: int, workload: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng([seed, workload, purpose])


def _write_json(path: Path, data) -> str:
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def _rss_children_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def _rss_self_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- output checks shared by the CLI workloads --------------------------------

def check_sample(report: dict, out: Path, n: int, model: dict, errors: list[str]) -> bytes:
    """Checks every sample call gets; returns the CSV bytes for digest checks."""
    res = report["results"]
    try:
        data = out.read_bytes()
    except OSError as exc:
        errors.append(f"cannot read CSV: {exc}")
        return b""
    finally:
        out.unlink(missing_ok=True)
    lines = data.count(b"\n")
    if lines != n + 1 or not data.endswith(b"\n"):
        errors.append(f"CSV has {lines} lines, expected {n + 1}")
    if not data.startswith(R.CSV_HEADER.encode() + b"\n"):
        errors.append("CSV header is not lambda,x,y,A,B")
    if res.get("records") != n:
        errors.append(f"records {res.get('records')} != {n}")
    exact = R.chsh(R.model_correlators(model))
    if not H.close_to(res.get("exact S"), exact, R.TOL):
        errors.append(f"exact S {res.get('exact S')} != reference {exact}")
    est, stderr = res.get("estimated S"), res.get("stderr")
    if not (isinstance(est, float) and isinstance(stderr, float) and abs(est - exact) <= 5 * stderr):
        errors.append(f"estimated S {est} not within 5 stderr ({stderr}) of {exact}")
    counts = res.get("block counts (ab, ab', a'b, a'b')")
    if not isinstance(counts, list) or sum(counts) != n:
        errors.append(f"block counts {counts} do not sum to {n}")
    for name, value in (res.get("markov residuals") or {"missing": None}).items():
        if not H.close_to(value, 0.0, R.TOL):
            errors.append(f"markov residual {name} = {value}")
    return data


def check_optimize(report: dict, amp: np.ndarray, errors, defects, stats) -> None:
    res = report["results"]
    _, _, t = R.bloch_and_tensor(amp)
    best = res.get("best S")
    try:
        dirs = [np.array(res[k], dtype=float) for k in ("alice u", "alice u'", "bob v", "bob v'")]
    except (KeyError, TypeError, ValueError):
        errors.append("settings missing from the report")
        return
    if not H.close_to(best, R.chsh_of(t, *dirs), R.TOL):
        errors.append(f"best S {best} != S at the reported directions {R.chsh_of(t, *dirs)}")
    if not all(H.close_to(np.linalg.norm(d), 1.0, R.TOL) for d in dirs):
        errors.append("a reported direction is not a unit vector")
    check_optimum(abs(best), res.get("converged"), res.get("iterations"), t, errors, defects, stats)


def check_optimum(best_abs, converged, iterations, t, errors, defects, stats) -> None:
    """Compare |S| with 2 sqrt(s1^2 + s2^2); a shortfall is the seesaw's known defect."""
    gap = R.analytic_max(t) - float(best_abs)
    stats["seesaw_gap"] = gap
    stats["seesaw_iterations"] = iterations if isinstance(iterations, int) else 0
    stats["seesaw_short"] = gap > R.TOL or converged is False
    if gap < -R.TOL:
        errors.append(f"|S| = {best_abs} exceeds the analytic maximum by {-gap:.3e}")
    elif stats["seesaw_short"]:
        defects.append(f"|S| short of the analytic maximum by {gap:.3e} "
                       f"(converged: {converged}, iterations: {iterations})")


def check_chsh_report(report: dict, e_ref: np.ndarray, kind: str, errors) -> None:
    res = report["results"]
    e = res.get("correlators") or {}
    for key, want in zip(("E(a,b)", "E(a,b')", "E(a',b)", "E(a',b')"), e_ref):
        if not H.close_to(e.get(key), want, R.TOL):
            errors.append(f"{key} = {e.get(key)}, reference {want}")
    s_ref = R.chsh(e_ref)
    if not H.close_to(res.get("S"), s_ref, R.TOL):
        errors.append(f"S = {res.get('S')}, reference {s_ref}")
    if res.get("input kind") != kind:
        errors.append(f"input kind {res.get('input kind')!r} != {kind!r}")
    # inputs keep S equal to the largest CHSH variant, so the verdict is one fact
    local = R.max_chsh_variant(e_ref) <= 2.0 + R.TOL
    for key, value in res.items():
        if key.startswith("local bound") and value is not local:
            errors.append(f"{key}: {value}, expected {local}")
        if key.startswith("quantum bound") and value is not True:
            errors.append(f"{key}: {value}, expected True")


# -- CLI workloads -----------------------------------------------------------

class CliOp:
    """One CLI invocation: argv plus a check of its JSON report."""

    def __init__(self, kind: str, argv: list[str], check):
        self.kind, self.argv, self.check = kind, ["--format", "json"] + argv, check

    def verify(self, ledger: H.Ledger, code: int, stdout: str, stderr: str, stats: dict) -> None:
        errors, defects = [], []
        report = H.parse_report(code, stdout, stderr, errors)
        if report is not None:
            try:
                self.check(report, errors, defects, stats)
            except (KeyError, TypeError, ValueError, AttributeError, IndexError, OSError) as exc:
                errors.append(f"check could not read the report or output: {exc!r}")
        ledger.record(self.kind, errors, defects)


class CliWorkload:
    """Fresh ``python -m bellkit.cli`` processes, round-robin over op kinds."""

    def __init__(self, seed: int, root: Path, workdir: Path, ledger: H.Ledger, tiny: bool = False):
        self.seed, self.root, self.workdir, self.ledger, self.tiny = seed, root, workdir, ledger, tiny
        self.env = H.child_env(root)
        self.rounds_done = 0
        self.speed = H.SpeedReference(*self.SPEED_KERNEL, env=self.env)

    # subclasses: prepare(), warmup_ops(round), ops(cycle), named_metrics(times)

    def call(self, op: CliOp, importtime: bool = False):
        seconds, code, out, err = H.run_cli(op.argv, self.env, importtime)
        op.verify(self.ledger, code, out, err, {})
        return seconds, err

    def setup_round(self) -> None:
        self.prepare()
        for op in self.warmup_ops(self.rounds_done):
            self.speed.sample()
            self.call(op)
        self.speed.sample()
        self.rounds_done += 1

    def ready(self) -> None:
        """Nothing beyond the set-up rounds: they leave the inputs in place."""

    def _schedule(self, seconds: float):
        """Ops round-robin over kinds until ``seconds`` have passed, at least one cycle."""
        t_end = time.perf_counter() + seconds
        cycle = 0
        while True:
            for op in self.ops(cycle):
                if cycle and time.perf_counter() >= t_end:
                    return
                yield cycle, op
            cycle += 1

    def timed(self, seconds: float) -> tuple[dict, dict]:
        """(op_p50_ms and ops_per_s at reference speed, detail with the raw figures).

        ``ops_per_s`` is the rate of one call per slot of the round-robin,
        from each slot's mean time: the run stops part-way through a cycle,
        and a plain mean would shift with the slots that got the extra calls.
        """
        by_kind: dict[str, list[float]] = {}
        times = []
        first = len(self.speed.samples)
        for _, op in self._schedule(seconds):
            self.speed.sample()
            t, _ = self.call(op)
            by_kind.setdefault(op.kind, []).append(t)
            times.append(t)
        self.speed.sample()
        adjusted = [t * f for t, f in zip(times, self.speed.paired_factors(first))]
        slots = len(self.ops(0))
        slot_means = [statistics.fmean(adjusted[i::slots]) for i in range(slots)]
        detail = {"per_kind_p50_ms": {k: 1e3 * H.median(v) for k, v in by_kind.items()},
                  "calls": len(times), **self.named_metrics(times)}
        return {"op_p50_ms": 1e3 * H.median(adjusted),
                "ops_per_s": slots / sum(slot_means)}, detail

    def peak_rss_mb(self) -> float:
        return _rss_children_mb()

    def _traced_main(self, tracer: H.Tracer):
        """``bellkit.cli.main``, the same as a root span, and what to patch while it runs."""
        H.use_source(self.root)
        import bellkit.cli as cli
        from bellkit.io import RunReport
        from bellkit.network import SampleDataset

        targets = H.cli_trace_targets(cli, [(SampleDataset, "to_csv"), (RunReport, "to_json"),
                                            (RunReport, "to_text")])
        return cli.main, tracer.wrap("cli.main", cli.main), targets

    def traced(self, seconds: float) -> dict:
        """Per op: a fresh process under -X importtime, then in-process untraced and traced."""
        tracer = H.Tracer()
        main, root_main, targets = self._traced_main(tracer)
        walls, plain, traced, imports = [], [], [], []
        first_pass_end = None
        for k, (cycle, op) in enumerate(self._schedule(seconds)):
            if cycle == 1 and first_pass_end is None:
                first_pass_end = len(tracer.spans)
            wall, err = self.call(op, importtime=True)
            walls.append(wall)
            imports.append(H.import_times_ms(err))
            legs = [(plain, main, ()), (traced, root_main, targets)]
            for times, fn, patch in legs if k % 2 == 0 else legs[::-1]:
                with tracer.patched(patch):
                    t, code, out, err = H.run_cli_in_process(fn, op.argv)
                op.verify(self.ledger, code, out, err, {})
                times.append(t)
        own = tracer.layer_self_seconds()
        total_wall = sum(walls)
        shares = {layer: sec / total_wall for layer, sec in own.items() if layer != "cli"}
        shares["cli"] = 1.0 - sum(shares.values())
        return {
            "tracer": tracer,
            "shares": shares,
            "calls": tracer.layer_calls(0, first_pass_end),
            "stats": [],
            "overhead_pct": 100.0 * (sum(traced) / sum(plain) - 1.0),
            "import_bellkit_ms": H.median([i["bellkit"] for i in imports]),
            "import_scipy_ms": H.median([i["scipy"] for i in imports]),
            "traced_ops": len(traced),
        }

    def probe(self, tracer: H.Tracer, stats: list) -> None:
        """One in-process traced cycle over the kinds; no subprocesses."""
        self.prepare()
        _, root_main, targets = self._traced_main(tracer)
        for op in self.ops(0):
            op_stats = {}
            with tracer.patched(targets):
                _, code, out, err = H.run_cli_in_process(root_main, op.argv)
            op.verify(self.ledger, code, out, err, op_stats)
            stats.append(op_stats)


class CliLight(CliWorkload):
    """Light subcommands, where interpreter start-up, imports and parsing dominate."""

    name = "cli_light"
    ID = 1
    SPEED_KERNEL = (1, "process")  # one ~0.25 s interpreter start per ~0.8 s call
    SETUP_ROUNDS = 3  # ~6 s each

    def prepare(self) -> None:
        rng = _seed_stream(self.seed, self.ID, 0)
        pool = 1 if self.tiny else 4
        hidden, self.sample_n = (50, 200) if self.tiny else (2000, 2000)
        self.sweep_steps = 11 if self.tiny else 361
        self.behaviors, self.models, self.states, self.networks = [], [], [], []
        for i in range(pool):
            amp = R.random_state(rng)
            _, _, t = R.bloch_and_tensor(amp)
            table = R.behavior_table(amp, R.optimal_settings(t))
            blocks = {f"{R.SETTINGS_A[x]},{R.SETTINGS_B[y]}": table[x, y].tolist()
                      for x in range(2) for y in range(2)}
            path = _write_json(self.workdir / f"behavior{i}.json", {"blocks": blocks})
            self.behaviors.append((path, R.table_correlators(table)))
            model = R.random_model(rng, int(rng.integers(1, 6)))
            path = _write_json(self.workdir / f"model{i}.json", R.model_json(model))
            self.models.append((path, model))
            self.states.append(R.random_state(rng))
            wide = R.random_model(rng, hidden)
            path = _write_json(self.workdir / f"wide{i}.json", R.model_json(wide))
            self.networks.append((path, wide))
        self.call_seeds = _seed_stream(self.seed, self.ID, 1).integers(0, 2 ** 63, size=4096)

    def warmup_ops(self, round_index: int) -> list[CliOp]:
        """One call of each subcommand."""
        return [op for op in self.ops(round_index)
                if op.kind in ("enumerate", "taxonomy", "chsh_behavior", "optimize", "sweep",
                               "sample_wide")]

    def ops(self, cycle: int) -> list[CliOp]:
        i = cycle % len(self.states)
        seed = str(int(self.call_seeds[cycle % len(self.call_seeds)]))
        behavior, e_behavior = self.behaviors[i]
        model_path, model = self.models[i]
        amp = self.states[i]
        network, wide = self.networks[i]
        sweep_out = self.workdir / "sweep.csv"
        sample_out = self.workdir / "sample.csv"
        names = getattr(self, "taxonomy_rows", None)
        name = names[cycle % len(names)][0] if names else "Everett"

        def enumerate_check(report, errors, defects, stats):
            res = report["results"]
            rows = res["strategies (a, a', b, b', S)"]
            if res.get("count") != 16 or len(rows) != 16 or len({tuple(r[:4]) for r in rows}) != 16:
                errors.append("expected the 16 distinct deterministic strategies")
            for r in rows:
                if r[4] != R.deterministic_strategy_chsh(*r[:4]):
                    errors.append(f"strategy {r[:4]} has S {r[4]}")
            if res.get("max |S|") != 2:
                errors.append(f"max |S| {res.get('max |S|')} != 2")

        def taxonomy_check(report, errors, defects, stats):
            res = report["results"]
            table = res["table"]
            rows = [(r["interpretation"], r["rejects"]) for r in table]
            if res.get("rows") != 19 or len(rows) != 19 or len({n for n, _ in rows}) != 19:
                errors.append("expected 19 distinct interpretations")
            if not all(isinstance(rej, str) and rej for _, rej in rows):
                errors.append("an interpretation rejects no thesis")
            if not names and not errors:
                self.taxonomy_rows = rows

        def taxonomy_name_check(report, errors, defects, stats):
            res = report["results"]
            want = dict(names or []).get(name)
            if res.get("interpretation") != name or (want and res.get("rejects") != want):
                errors.append(f"lookup of {name!r} gave {res}")

        def chsh_behavior_check(report, errors, defects, stats):
            check_chsh_report(report, e_behavior, "behavior", errors)

        def chsh_model_check(report, errors, defects, stats):
            check_chsh_report(report, R.model_correlators(model), "model", errors)

        def optimize_check(report, errors, defects, stats):
            check_optimize(report, amp, errors, defects, stats)

        def sweep_check(report, errors, defects, stats):
            try:
                lines = sweep_out.read_text(encoding="utf-8").splitlines()
            finally:
                sweep_out.unlink(missing_ok=True)
            _, _, t = R.bloch_and_tensor(amp)
            ref = R.sweep_rows(t, self.sweep_steps)
            if lines[0] != "theta_degrees,S" or len(lines) != self.sweep_steps + 1:
                errors.append("sweep CSV has the wrong header or row count")
                return
            for line, (theta, s) in zip(lines[1:], ref):
                got_theta, got_s = (float(v) for v in line.split(","))
                if not (H.close_to(got_theta, theta, 1e-12) and H.close_to(got_s, s, R.TOL)):
                    errors.append(f"sweep row {line} != reference ({theta}, {s})")
                    break
            if report["results"].get("rows") != self.sweep_steps:
                errors.append(f"report rows {report['results'].get('rows')}")

        def sample_check(report, errors, defects, stats):
            check_sample(report, sample_out, self.sample_n, wide, errors)

        spec = R.state_spec(amp)
        return [
            CliOp("enumerate", ["enumerate"], enumerate_check),
            CliOp("taxonomy", ["taxonomy"], taxonomy_check),
            CliOp("taxonomy_name", ["taxonomy", name], taxonomy_name_check),
            CliOp("chsh_behavior", ["chsh", behavior], chsh_behavior_check),
            CliOp("chsh_model", ["chsh", model_path], chsh_model_check),
            # "--" ends the options: a state spec may start with a minus sign
            CliOp("optimize", ["optimize", "--seed", seed, "--", spec], optimize_check),
            CliOp("sweep", ["sweep", "--steps", str(self.sweep_steps), "--out", str(sweep_out),
                            "--", spec], sweep_check),
            CliOp("sample_wide", ["sample", network, "-n", str(self.sample_n), "--seed", seed,
                                  "--out", str(sample_out)], sample_check),
        ]

    @staticmethod
    def named_metrics(times: list[float]) -> dict:
        t = H.tail(times)
        return {"cli_calls_per_s": len(times) / sum(times),
                "cli_call_p50_ms": 1e3 * H.median(times),
                "cli_call_tail_ms": None if t is None else dict(t, value=1e3 * t["value"])}


class SampleBulk(CliWorkload):
    """``sample -n 1000000`` over small networks, where CSV formatting and writing dominate."""

    name = "sample_bulk"
    ID = 2
    SPEED_KERNEL = (25, "in_process")  # ~0.1 s of Python and numpy per ~3 s call
    SETUP_ROUNDS = 5  # ~3.5 s each; one call a round, so more rounds than cli_light

    def prepare(self) -> None:
        rng = _seed_stream(self.seed, self.ID, 0)
        self.n = 2000 if self.tiny else 1_000_000
        two = R.random_model(rng, 2)
        mixture = R.deterministic_mixture(rng)
        uneven = R.random_model(rng, 4)
        priors = (float(rng.uniform(0.2, 0.35)), float(rng.uniform(0.65, 0.8)))
        self.networks = [
            (_write_json(self.workdir / "two.json", R.model_json(two)), two),
            (_write_json(self.workdir / "mixture16.json", R.model_json(mixture)), mixture),
            (_write_json(self.workdir / "uneven.json", R.model_json(uneven, *priors)), uneven),
        ]
        self.call_seeds = _seed_stream(self.seed, self.ID, 1).integers(0, 2 ** 63, size=4096)

    def _sample_op(self, kind, network, model, n, seed, digest=None) -> CliOp:
        out = self.workdir / "sample.csv"

        def check(report, errors, defects, stats):
            data = check_sample(report, out, n, model, errors)
            if digest is not None and hashlib.sha256(data).hexdigest() != digest:
                errors.append(f"CSV digest differs from the golden {digest[:12]}...")

        return CliOp(kind, ["sample", network, "-n", str(n), "--seed", str(seed),
                            "--out", str(out)], check)

    def warmup_ops(self, round_index: int) -> list[CliOp]:
        """One call on a fixed golden (network, n, seed) triple, checked by digest."""
        entries = [g for g in GOLDEN if (g["n"] < 100_000) == self.tiny]
        g = entries[round_index % len(entries)]
        path = _write_json(self.workdir / f"golden{round_index}.json", g["network"])
        return [self._sample_op("sample_golden", path, R.model_from_json(g["network"]),
                                g["n"], g["seed"], g["sha256"])]

    def ops(self, cycle: int) -> list[CliOp]:
        return [self._sample_op("sample", path, model, self.n,
                                int(self.call_seeds[(3 * cycle + k) % len(self.call_seeds)]))
                for k, (path, model) in enumerate(self.networks)]

    def named_metrics(self, times: list[float]) -> dict:
        return {"sample_records_per_s": self.n * len(times) / sum(times),
                "sample_call_p50_s": H.median(times),
                "sample_call_tail_s": H.tail(times)}


# -- in-process workload -----------------------------------------------------

class StateScan:
    """Analysis and sweep of two-qubit pure states, in-process: no start-up, no file I/O."""

    name = "state_scan"
    ID = 3
    SETUP_ROUNDS = 5  # ~1.5 s each

    def __init__(self, seed: int, root: Path, workdir: Path, ledger: H.Ledger, tiny: bool = False):
        self.seed, self.root, self.ledger, self.tiny = seed, root, ledger, tiny
        self.env = H.child_env(root)
        self.n_states = 8 if self.tiny else 1000
        self.warmup = 2 if self.tiny else 10
        self.sweep_steps = 11 if self.tiny else 91
        self.trace_pass = 4 if self.tiny else 32
        self.speed = H.SpeedReference(repeats=1)  # ~4 ms per ~50 ms state

    def prepare(self) -> None:
        H.use_source(self.root)
        import bellkit

        self.bk = bellkit
        rng = _seed_stream(self.seed, self.ID, 0)
        amps = [R.singlet(), R.product_state(), R.partially_entangled_state()]
        amps += [R.random_state(rng) for _ in range(self.n_states - len(amps))]
        self.items = []
        for amp in amps:
            dirs = tuple(R.random_direction(rng) for _ in range(4))
            self.items.append({
                "amp": amp,
                "psi": bellkit.TwoQubitState(amp),
                "dirs": dirs,
                "settings": tuple(bellkit.UnitVector3(*d) for d in dirs),
                "seed": int(rng.integers(0, 2 ** 63)),
            })
        self.api = self._api(None)

    def _api(self, tracer: H.Tracer | None) -> dict:
        bk = self.bk
        fns = {f.__name__: f for f in (
            bk.correlation_matrix, bk.seesaw_maximize, bk.quantum_behavior, bk.correlators,
            bk.chsh, bk.no_signaling, bk.is_local, bk.local_decomposition, bk.nonlocal_witness,
            bk.sweep)}
        if tracer is None:
            return fns
        return {name: tracer.wrap(f"{H.layer_of(f)}.{name}", f) for name, f in fns.items()}

    @staticmethod
    def analysis(api: dict, item: dict):
        psi = item["psi"]
        t = api["correlation_matrix"](psi)
        result = api["seesaw_maximize"](psi, seed=item["seed"])
        behaviors = [api["quantum_behavior"](psi, result.settings.as_tuple()),
                     api["quantum_behavior"](psi, item["settings"])]
        rows = []
        for b in behaviors:
            e = api["correlators"](b)
            rows.append((b, e, api["chsh"](e), api["no_signaling"](b), api["is_local"](b),
                         api["local_decomposition"](b)))
        witness = api["nonlocal_witness"](behaviors[0])
        return t, result, rows, witness

    def check_analysis(self, item: dict, out, stats: dict) -> None:
        errors, defects = [], []
        t, result, rows, witness = out
        amp = item["amp"]
        _, _, t_ref = R.bloch_and_tensor(amp)
        if np.max(np.abs(np.asarray(t) - t_ref)) > R.TOL:
            errors.append("correlation matrix differs from the reference")
        opt_dirs = tuple(w.as_array() for w in result.settings.as_tuple())
        if not H.close_to(result.best_s, R.chsh_of(t_ref, *opt_dirs), R.TOL):
            errors.append("best S differs from S at the returned settings")
        check_optimum(abs(result.best_s), result.converged, result.iterations, t_ref,
                      errors, defects, stats)
        stats["oracle_disagreement"] = 0
        for (b, e, s, ns, local, decomposition), dirs in zip(rows, (opt_dirs, item["dirs"])):
            table = R.behavior_table(amp, dirs)
            e_ref = R.table_correlators(table)
            if np.max(np.abs(b.table - table)) > R.TOL:
                errors.append("behavior table differs from the reference")
            if np.max(np.abs(np.asarray(e) - e_ref)) > R.TOL or not H.close_to(s, R.chsh(e_ref), R.TOL):
                errors.append("correlators or S differ from the reference")
            if not ns.ok:
                errors.append("a quantum behavior was reported as signaling")
            if local != (R.max_chsh_variant(e_ref) <= 2.0 + R.TOL):
                errors.append(f"is_local {local} contradicts the CHSH variants")
            if local != (decomposition is not None):
                stats["oracle_disagreement"] += 1
                errors.append(f"is_local {local} disagrees with the LP")
            if decomposition is not None and np.max(
                    np.abs(decomposition.behavior().table - b.table)) > R.LP_RECOMPOSE_TOL:
                errors.append("LP decomposition does not recompose the behavior")
        if np.max(np.abs(witness.recompose().table - rows[0][0].table)) > R.TOL:
            errors.append("nonlocal witness does not recompose its behavior")
        self.ledger.record("analysis", errors, defects)

    def check_sweep(self, item: dict, rows) -> None:
        errors = []
        _, _, t_ref = R.bloch_and_tensor(item["amp"])
        ref = R.sweep_rows(t_ref, self.sweep_steps)
        if len(rows) != len(ref):
            errors.append(f"{len(rows)} sweep rows, expected {len(ref)}")
        elif any(not (H.close_to(a[0], b[0], 1e-12) and H.close_to(a[1], b[1], R.TOL))
                 for a, b in zip(rows, ref)):
            errors.append("sweep rows differ from u^T T v")
        self.ledger.record("sweep", errors)

    def _run(self, op: str, fn, *args):
        """(seconds, result or None); an exception is a counted failure, not a crash."""
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # any library error on a valid input is a failed op
            seconds = time.perf_counter() - t0
            self.ledger.record(op, [f"raised {exc!r}"])
            return seconds, None
        return time.perf_counter() - t0, result

    def _sweep(self, api: dict, item: dict):
        return api["sweep"](item["psi"], steps=self.sweep_steps)

    def _analysis_op(self, api, item, stats, fn=None) -> float:
        seconds, out = self._run("analysis", fn or self.analysis, api, item)
        if out is not None:
            try:
                self.check_analysis(item, out, stats)
            except (AttributeError, TypeError, ValueError) as exc:
                self.ledger.record("analysis", [f"unexpected result shape: {exc!r}"])
        return seconds

    def _sweep_op(self, api, item, fn=None) -> float:
        seconds, rows = self._run("sweep", fn or self._sweep, api, item)
        if rows is not None:
            try:
                self.check_sweep(item, rows)
            except (TypeError, ValueError, IndexError) as exc:
                self.ledger.record("sweep", [f"unexpected result shape: {exc!r}"])
        return seconds

    def _warm(self) -> None:
        for item in self.items[:self.warmup]:
            self._analysis_op(self.api, item, {})
            self._sweep_op(self.api, item)
            self.speed.sample()

    def setup_round(self) -> None:
        """A fresh interpreter that imports bellkit, builds the inputs and runs the warm-up.

        The child samples the speed kernel through its own work and prints
        the samples, so that the round is scaled by the speed it ran at.
        """
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
                "workloads.StateScan.standalone_setup(int(sys.argv[2]), sys.argv[3], sys.argv[4] == '1')")
        proc = subprocess.run([sys.executable, "-c", code, str(HERE), str(self.seed),
                               str(self.root), "1" if self.tiny else "0"],
                              env=self.env, capture_output=True, text=True,
                              timeout=H.CALL_TIMEOUT_S)
        if proc.returncode != 0:
            self.ledger.record("setup", [f"set-up process failed: {proc.stderr.strip()[-300:]}"])
            self.speed.sample()
            return
        self.speed.adopt(json.loads(proc.stdout.splitlines()[-1]))

    def ready(self) -> None:
        """This process's own set-up, after the timed set-up rounds."""
        self.prepare()
        self._warm()

    @classmethod
    def standalone_setup(cls, seed: int, root: str, tiny: bool) -> None:
        ledger = H.Ledger()
        workload = cls(seed, Path(root), Path(root), ledger, tiny)
        workload.speed.sample()
        H.use_source(workload.root)
        import bellkit  # noqa: F401  (between two samples, apart from building the inputs)
        workload.speed.sample()
        workload.prepare()
        workload.speed.sample()
        workload._warm()
        if not ledger.correct:
            raise SystemExit("\n".join(ledger.errors[:5]))
        print(json.dumps(workload.speed.record()))

    def _cycle(self, seconds: float, start: int):
        t_end = time.perf_counter() + seconds
        i = start
        while i == start or time.perf_counter() < t_end:
            yield i - start, self.items[i % len(self.items)]
            i += 1

    def timed(self, seconds: float) -> tuple[dict, dict]:
        """(op_p50_ms and ops_per_s at reference speed, detail with the raw figures)."""
        analysis, sweeps = [], []
        first = len(self.speed.samples)
        for _, item in self._cycle(seconds, self.warmup):
            self.speed.sample()
            analysis.append(self._analysis_op(self.api, item, {}))
            sweeps.append(self._sweep_op(self.api, item))
        self.speed.sample()
        factors = self.speed.paired_factors(first)
        adj_analysis = [a * f for a, f in zip(analysis, factors)]
        adj_states = [(a + s) * f for a, s, f in zip(analysis, sweeps, factors)]
        t = H.tail(analysis)
        detail = {
            "scan_states_per_s": len(analysis) / (sum(analysis) + sum(sweeps)),
            "scan_state_p50_ms": 1e3 * H.median(analysis),
            "scan_state_tail_ms": None if t is None else dict(t, value=1e3 * t["value"]),
            "sweep_rows_per_s": self.sweep_steps * len(sweeps) / sum(sweeps),
            "sweep_op_p50_ms": 1e3 * H.median(sweeps),
        }
        return {"op_p50_ms": 1e3 * H.median(adj_analysis),
                "ops_per_s": len(adj_states) / sum(adj_states)}, detail

    def peak_rss_mb(self) -> float:
        return _rss_self_mb()

    def traced(self, seconds: float) -> dict:
        """Each state's two ops untraced, then traced; import layer from -X importtime."""
        tracer = H.Tracer()
        api = self._api(tracer)
        analysis_root = tracer.wrap("bench.analysis", self.analysis)
        sweep_root = tracer.wrap("bench.sweep", self._sweep)
        plain = traced = 0.0
        first_pass_end, pass_stats = None, []
        for k, item in self._cycle(seconds, self.warmup):
            if k == self.trace_pass:
                first_pass_end = len(tracer.spans)
            stats = {}

            def untraced():
                return self._analysis_op(self.api, item, {}) + self._sweep_op(self.api, item)

            def traced_ops():
                return (self._analysis_op(api, item, stats, analysis_root)
                        + self._sweep_op(api, item, sweep_root))

            # alternate which leg runs first, so that neither always finds warm caches
            if k % 2 == 0:
                plain += untraced()
                traced += traced_ops()
            else:
                traced += traced_ops()
                plain += untraced()
            if k < self.trace_pass:
                pass_stats.append(stats)
        roots = sum(s[2] - s[1] for s in tracer.spans if s[3] < 0)
        imports = []
        for _ in range(1 if self.tiny else 3):
            proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import bellkit"],
                                  env=self.env, capture_output=True, text=True,
                                  timeout=H.CALL_TIMEOUT_S)
            imports.append(H.import_times_ms(proc.stderr))
        return {
            "tracer": tracer,
            "shares": {layer: sec / roots for layer, sec in tracer.layer_self_seconds().items()},
            "calls": tracer.layer_calls(0, first_pass_end),
            "stats": pass_stats,
            "overhead_pct": 100.0 * (traced / plain - 1.0),
            "import_bellkit_ms": H.median([i["bellkit"] for i in imports]),
            "import_scipy_ms": H.median([i["scipy"] for i in imports]),
            "traced_ops": sum(1 for s in tracer.spans if s[3] < 0),
        }

    def seesaw_pass(self) -> list[dict]:
        """The seesaw on every state of the seed's pool, checked against the analytic maximum.

        A fixed set of states, so that its counts repeat for a seed whatever
        the machine's speed.
        """
        stats = []
        for item in self.items:
            errors, defects, op_stats = [], [], {}
            result = self.bk.seesaw_maximize(item["psi"], seed=item["seed"])
            _, _, t_ref = R.bloch_and_tensor(item["amp"])
            check_optimum(abs(result.best_s), result.converged, result.iterations, t_ref,
                          errors, defects, op_stats)
            self.ledger.record("seesaw", errors, defects)
            stats.append(op_stats)
        return stats

    def probe(self, tracer: H.Tracer, stats: list) -> None:
        """The first states through the traced analysis and sweep ops."""
        self.prepare()
        api = self._api(tracer)
        analysis_root = tracer.wrap("bench.analysis", self.analysis)
        sweep_root = tracer.wrap("bench.sweep", self._sweep)
        for item in self.items[:self.trace_pass]:
            op_stats = {}
            self._analysis_op(api, item, op_stats, analysis_root)
            self._sweep_op(api, item, sweep_root)
            stats.append(op_stats)


WORKLOADS = {w.name: w for w in (CliLight, SampleBulk, StateScan)}

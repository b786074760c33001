"""bellkit benchmark: one workload, one run, one JSON result.

    python3 perfbench/run.py --workload cli_light --seed 1 --seconds 25 --trace 0

Run from the root of a bellkit checkout; the program is imported from
``src/``.  ``--trace 0`` measures the end-to-end metrics untraced;
``--trace 1`` runs the traced pass and reports the per-layer metrics.  The
second-to-last line of stdout is a detail record (environment, workload
metrics with their tails, failures); the last line is the result object
``{"correct", "attempted", "failed", "metrics"}``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

import harness as H
import workloads as W

END_TO_END = {"setup_s": "s", "op_p50_ms": "ms", "ops_per_s": "1/s", "peak_rss_mb": "MB"}

LAYERS = ("cli", "io", "behavior", "lhv", "quantum", "optimize", "polytope", "network", "theses")

# per-layer timing: (metric, unit, how, span names, scale)
SPAN_METRICS = (
    ("io.parse_ms", "ms", "per_op", ("io.load_json", "io.behavior_from_json",
                                     "io.model_from_json", "io.parse_network_text"), 1e3),
    ("io.report_render_ms", "ms", "median", ("io.to_json", "io.to_text"), 1e3),
    ("io.sweep_csv_ms", "ms", "median", ("io.sweep_rows_to_csv",), 1e3),
    ("network.to_csv_ms", "ms", "median", ("network.to_csv",), 1e3),
    ("network.csv_mb_per_s", "MB/s", "throughput", ("network.to_csv",), 1e-6),
    ("network.sample_ms", "ms", "median", ("network.sample",), 1e3),
    ("network.estimate_chsh_ms", "ms", "median", ("network.estimate_chsh",), 1e3),
    ("network.verify_markov_ms", "ms", "median", ("network.verify_markov",), 1e3),
    ("network.exact_chsh_ms", "ms", "median", ("network.exact_chsh",), 1e3),
    ("cli.sample_handler_self_ms", "ms", "self", ("cli.cmd_sample",), 1e3),
    ("quantum.correlation_matrix_us", "us", "median", ("quantum.correlation_matrix",), 1e6),
    ("quantum.quantum_behavior_us", "us", "median", ("quantum.quantum_behavior",), 1e6),
    ("behavior.no_signaling_us", "us", "median", ("behavior.no_signaling",), 1e6),
    ("polytope.is_local_us", "us", "median", ("polytope.is_local",), 1e6),
    ("polytope.lp_feasible_ms", "ms", "feasible", ("polytope.local_decomposition",), 1e3),
    ("polytope.lp_infeasible_ms", "ms", "infeasible", ("polytope.local_decomposition",), 1e3),
    ("theses.nonlocal_witness_us", "us", "median", ("theses.nonlocal_witness",), 1e6),
    ("optimize.seesaw_maximize_ms", "ms", "median", ("optimize.seesaw_maximize",), 1e3),
    ("optimize.sweep_row_us", "us", "throughput", ("optimize.sweep",), 1e6),
)

PER_LAYER_UNITS = {
    "cli.import_bellkit_ms": "ms", "cli.import_scipy_ms": "ms", "cli.python_floor_ms": "ms",
    **{name: unit for name, unit, *_ in SPAN_METRICS},
    "optimize.seesaw_iterations": "count", "optimize.unconverged_states": "count",
    "optimize.max_gap_to_analytic": "S", "polytope.oracle_disagreements": "count",
    **{f"{layer}.calls": "count" for layer in LAYERS},
    **{f"{layer}.self_share": "ratio" for layer in LAYERS},
    "trace.overhead_pct": "%", "failed_op_ratio": "ratio",
}


def span_metric(tracer: H.Tracer, how: str, names, scale: float) -> float | None:
    if how == "per_op":
        values = tracer.per_root_sums(set(names))
    elif how == "self":
        own = tracer.self_times()
        values = [own[i] for i, s in enumerate(tracer.spans) if s[0] in names]
    elif how in ("feasible", "infeasible"):
        values = [d for n in names for d in tracer.durations(n, meta=how)]
    elif how == "throughput":  # time per row, or bytes per second for CSV text
        seconds = sum(d for n in names for d in tracer.durations(n))
        units = sum(m for n in names for m in tracer.metas(n))
        if not seconds or not units:
            return None
        return scale * (units / seconds if scale < 1 else seconds / units)
    else:
        values = [d for n in names for d in tracer.durations(n)]
    return scale * H.median(values) if values else None


def seesaw_counts(seesaw: list[dict]) -> dict:
    return {"optimize.seesaw_iterations": sum(s["seesaw_iterations"] for s in seesaw),
            "optimize.unconverged_states": sum(bool(s["seesaw_short"]) for s in seesaw),
            "optimize.max_gap_to_analytic": max(s["seesaw_gap"] for s in seesaw)}


def oracle_counts(stats: list[dict]) -> dict | None:
    checked = [s["oracle_disagreement"] for s in stats if "oracle_disagreement" in s]
    return {"polytope.oracle_disagreements": sum(checked)} if checked else None


def per_layer(workload, seconds: float, ledger: H.Ledger, environment: dict, make) -> tuple[dict, dict]:
    """Traced pass of the workload, plus a probe pass for functions the workload never calls.

    Timings and counts come from the workload's own spans where it has them,
    otherwise from a small traced pass of cli_light or state_scan.  The
    optimizer counts come from the seesaw on every state of state_scan's
    pool for the seed, on every workload.
    """
    traced = workload.traced(seconds)
    probe, probe_stats = H.Tracer(), []
    scan = workload
    for other in (W.CliLight, W.StateScan):
        if not isinstance(workload, other):
            instance = make(other)
            instance.probe(probe, probe_stats)
            if other is W.StateScan:
                scan = instance
    values, sources = {}, {}
    for name, _, how, names, scale in SPAN_METRICS:
        for source, tracer in (("workload", traced["tracer"]), ("probe", probe)):
            value = span_metric(tracer, how, names, scale)
            if value is not None:
                values[name], sources[name] = value, source
                break
    found = oracle_counts(traced["stats"])
    sources.update(dict.fromkeys(found or (), "workload"))
    if found is None:
        found = oracle_counts(probe_stats) or {}
        sources.update(dict.fromkeys(found, "probe"))
    values.update(found)
    found = seesaw_counts(scan.seesaw_pass())
    values.update(found)
    sources.update(dict.fromkeys(found, "seesaw_pass"))
    values.update({
        "cli.import_bellkit_ms": traced["import_bellkit_ms"],
        "cli.import_scipy_ms": traced["import_scipy_ms"],
        "cli.python_floor_ms": environment["cli.python_floor_ms"],
        "trace.overhead_pct": traced["overhead_pct"],
        "failed_op_ratio": ledger.failed / max(ledger.attempted, 1),
    })
    for layer in LAYERS:
        values[f"{layer}.calls"] = traced["calls"].get(layer, 0)
        values[f"{layer}.self_share"] = traced["shares"].get(layer, 0.0)
    for name in PER_LAYER_UNITS:
        if name not in values:
            ledger.errors.append(f"per-layer metric {name} was not measured")
            values[name] = 0.0
    detail = {"metric_sources": sources, "traced_ops": traced["traced_ops"],
              "self_share_all": traced["shares"]}
    return {n: values[n] for n in PER_LAYER_UNITS}, detail


def run(workload_name: str, seed: int, seconds: float, trace: bool, root: Path,
        tiny: bool = False) -> tuple[dict, dict]:
    """One benchmark run: (result object, detail record)."""
    t_start = time.perf_counter()
    ledger = H.Ledger()
    environment = H.environment(H.child_env(root))
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    try:
        def make(cls):
            return cls(seed, root, workdir, ledger, tiny)

        workload = make(W.WORKLOADS[workload_name])
        speed, rounds, raw_rounds = workload.speed, [], []
        for _ in range(1 if tiny else workload.SETUP_ROUNDS):
            first, t0 = len(speed.samples), time.monotonic()
            workload.setup_round()
            # the speed kernel's runs are the benchmark's, not set-up work
            raw, scaled = speed.scaled(first, t0, time.monotonic())
            raw_rounds.append(raw)
            rounds.append(scaled)
        workload.ready()
        detail = {"workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(trace),
                  "environment": environment, "setup_rounds_s": raw_rounds,
                  "first_timed_op_after_s": time.perf_counter() - t_start}
        if trace:
            values, extra = per_layer(workload, seconds, ledger, environment, make)
            detail.update(extra)
            metrics = {n: {"value": v, "unit": PER_LAYER_UNITS[n]} for n, v in values.items()}
        else:
            values, extra = workload.timed(seconds)
            detail.update(extra)
            values.update(setup_s=H.median(rounds), peak_rss_mb=workload.peak_rss_mb())
            detail["failed_op_ratio"] = ledger.failed / max(ledger.attempted, 1)
            detail["speed_kernel_ms"] = 1e3 * H.median(speed.samples)
            metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail["errors"] = ledger.errors[:20]
    detail["defects"] = ledger.defects[:20]
    detail["seesaw_short_ops"] = ledger.short
    result = {"correct": ledger.correct, "attempted": ledger.attempted, "failed": ledger.failed,
              "metrics": metrics}
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "bellkit" / "__init__.py").is_file():
        print(f"error: no bellkit sources under {root / 'src'}; run from a bellkit checkout",
              file=sys.stderr)
        return 2
    # One CPU for the benchmark and every child: nothing runs in parallel, and
    # the speed kernel samples the CPU the measured op runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

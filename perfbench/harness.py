"""Shared machinery: op ledger, latency statistics, spans, CLI invocation.

Kept free of bellkit imports so that the benchmark can refuse to run, with a
clear message, in a checkout that has no ``src/bellkit``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib.metadata
import inspect
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

CALL_TIMEOUT_S = 120
TAIL_BEYOND = 10          # samples that must lie beyond a reported tail percentile
TAIL_MIN_PERCENTILE = 75  # below this a "tail" is just the body of the distribution


class Ledger:
    """Counts operations and their check outcomes.

    ``errors`` are wrong outputs, crashes and non-zero exits: they make the
    operation fail and the run incorrect.  ``defects`` are the optimizer's
    known shortfall from the analytic optimum: an answer that is valid but
    not optimal, counted in ``short`` and in the per-layer
    ``optimize.unconverged_states`` rather than as a failed operation.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.short = 0
        self.errors: list[str] = []
        self.defects: list[str] = []

    def record(self, op: str, errors: list[str], defects: list[str] = ()) -> None:
        self.attempted += 1
        self.failed += bool(errors)
        self.short += bool(defects)
        self.errors.extend(f"{op}: {e}" for e in errors)
        self.defects.extend(f"{op}: {d}" for d in defects)

    @property
    def correct(self) -> bool:
        return not self.errors


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> dict | None:
    """The highest percentile with TAIL_BEYOND samples above it, or None if too few."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return None
    percentile = 100.0 * (n - TAIL_BEYOND) / n
    if percentile < TAIL_MIN_PERCENTILE:
        return None
    return {"value": ordered[n - TAIL_BEYOND - 1], "percentile": round(percentile, 2),
            "samples": n, "beyond": TAIL_BEYOND}


def close_to(actual, expected, tol: float) -> bool:
    try:
        return abs(float(actual) - float(expected)) <= tol
    except (TypeError, ValueError):
        return False


# -- environment -------------------------------------------------------------

def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def use_source(root: Path) -> None:
    """Make ``import bellkit`` in this process load the checkout's ``src``."""
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def python_floor_ms(env: dict, repeats: int = 5) -> float:
    """Median wall time of ``python -c pass``: interpreter start-up, a drift reference."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True,
                       timeout=CALL_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    return 1e3 * median(times)


def environment(env: dict) -> dict:
    def version(dist: str) -> str:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "missing"

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "loadavg_at_start": list(os.getloadavg()),
        "cli.python_floor_ms": python_floor_ms(env),
    }


# -- machine speed -----------------------------------------------------------

def _speed_kernel() -> float:
    """Python glue, string formatting and small-array numpy calls: bellkit's mix of work."""
    m = np.arange(16.0).reshape(4, 4) / 16.0
    acc = 0.0
    for i in range(800):
        acc += float(np.vdot(m[i % 4], m @ m[(i + 1) % 4])) + len(f"{i},{acc:+.3f}\n")
    return acc


# A fresh interpreter importing numpy: the start-up, dynamic loading and
# unmarshalling that dominate a light CLI call, without bellkit.
_PROCESS_KERNEL = "import numpy\nfor i in range(100000):\n    str(i)\n"


class SpeedReference:
    """The machine's current speed, from a fixed kernel run between ops.

    On a shared small virtual machine the CPU speed drifts by 20% and more
    within seconds.  The benchmark and its children share one CPU, and every
    op sits between two kernel samples; its time is scaled by the kernel's
    reference time over their mean, i.e. reported as it would read on a
    machine where the kernel takes its reference time.  The kernel never
    calls bellkit, so a change to bellkit cannot move the scale.  The
    in-process kernel suits ops dominated by Python and numpy work; the
    process kernel suits ops dominated by interpreter start-up and imports.
    """

    REFERENCE_S = {"in_process": 0.004, "process": 0.25}

    def __init__(self, repeats: int, kind: str = "in_process", env: dict | None = None):
        self.repeats, self.kind, self.env = repeats, kind, env
        self.reference_s = self.REFERENCE_S[kind]
        self.samples: list[float] = []                # seconds per kernel run
        self.marks: list[tuple[float, float]] = []    # time.monotonic() at each sample's start, end

    def sample(self) -> None:
        t0 = time.monotonic()
        for _ in range(self.repeats):
            if self.kind == "process":
                subprocess.run([sys.executable, "-c", _PROCESS_KERNEL], env=self.env,
                               check=True, timeout=CALL_TIMEOUT_S)
            else:
                _speed_kernel()
        t1 = time.monotonic()
        self.samples.append((t1 - t0) / self.repeats)
        self.marks.append((t0, t1))

    def record(self) -> dict:
        return {"samples": self.samples, "marks": self.marks}

    def adopt(self, record: dict) -> None:
        """Take over a child process's samples; time.monotonic() is one clock for the machine."""
        self.samples += record["samples"]
        self.marks += [tuple(m) for m in record["marks"]]

    def scaled(self, first: int, t0: float, t1: float) -> tuple[float, float]:
        """(raw, reference-speed) seconds of the work in [t0, t1] outside samples ``first`` on.

        The stretch between two samples is scaled by the mean of the two, the
        stretch before the first sample by that sample, and the one after the
        last by the last, so that a change of speed during the work is
        followed rather than averaged over.
        """
        k, marks = self.samples[first:], self.marks[first:]
        kernel = k[:1] + [(a + b) / 2.0 for a, b in zip(k, k[1:])] + k[-1:]
        starts = [t0] + [end for _, end in marks]
        ends = [start for start, _ in marks] + [t1]
        stretches = [max(0.0, b - a) for a, b in zip(starts, ends)]
        return (sum(stretches),
                sum(s * self.reference_s / kt for s, kt in zip(stretches, kernel)))

    def paired_factors(self, first: int) -> list[float]:
        """Scale for each op run between samples ``first + i`` and ``first + i + 1``."""
        k = self.samples[first:]
        return [2.0 * self.reference_s / (k[i] + k[i + 1]) for i in range(len(k) - 1)]


# -- CLI calls ---------------------------------------------------------------

def run_cli(argv: list[str], env: dict, importtime: bool = False):
    """One fresh ``python -m bellkit.cli`` process: (seconds, exit code, stdout, stderr)."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-m", "bellkit.cli"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd + argv, env=env, capture_output=True, text=True,
                          timeout=CALL_TIMEOUT_S)
    return time.perf_counter() - t0, proc.returncode, proc.stdout, proc.stderr


def run_cli_in_process(main, argv: list[str]):
    """``bellkit.cli.main(argv)`` with stdout captured: (seconds, exit code, stdout, error)."""
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    return time.perf_counter() - t0, code, out.getvalue(), ""


def parse_report(code: int, stdout: str, stderr: str, errors: list[str]) -> dict | None:
    if code != 0:
        errors.append(f"exit code {code}: {stderr.strip()[-300:]}")
        return None
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        errors.append(f"report is not JSON: {exc}")
        return None
    if not isinstance(report, dict) or not isinstance(report.get("results"), dict):
        errors.append("report has no results object")
        return None
    return report


_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)\s*$")


def import_times_ms(stderr: str) -> dict:
    """From ``-X importtime`` output: bellkit's cumulative import and its outermost scipy imports."""
    entries = []
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            entries.append((len(m.group(3)) // 2, m.group(4), int(m.group(2)) / 1e3))
    bellkit = sum(ms for depth, name, ms in entries if name == "bellkit" and depth == 0)
    scipy, stack = 0.0, []
    # importtime prints a module after everything it imports; walk it parent-first
    for depth, name, ms in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if name.split(".")[0] == "scipy" and not any(n.split(".")[0] == "scipy" for _, n in stack):
            scipy += ms
        stack.append((depth, name))
    return {"bellkit": bellkit, "scipy": scipy}


# -- spans -------------------------------------------------------------------

# what a span keeps of its function's result: rows of a sweep, characters of
# CSV text, whether the LP found a decomposition
RESULT_META = {
    "sweep": len,
    "to_csv": len,
    "local_decomposition": lambda d: "infeasible" if d is None else "feasible",
}


def layer_of(fn) -> str:
    return fn.__module__.rsplit(".", 1)[-1]


class Tracer:
    """In-memory spans at layer boundaries.

    Each span is [name, start, end, parent index, meta, root index]; a root
    span (parent -1) is one benchmark operation.  ``meta`` holds what
    RESULT_META derives from the function's result, such as a row count.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        spans, open_ = self.spans, self._open
        meta = RESULT_META.get(fn.__name__)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, open_[-1] if open_ else -1, None,
                          open_[0] if open_ else idx])
            open_.append(idx)
            try:
                result = fn(*args, **kwargs)
                if meta is not None:
                    spans[idx][4] = meta(result)
                return result
            finally:
                open_.pop()
                spans[idx][2] = time.perf_counter()
        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Temporarily replace ``owner.attr`` by a traced wrapper for each (owner, attr)."""
        saved = []
        try:
            for owner, attr in targets:
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(f"{layer_of(fn)}.{fn.__name__}", fn))
            yield
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def durations(self, name: str, meta=None) -> list[float]:
        return [s[2] - s[1] for s in self.spans
                if s[0] == name and (meta is None or s[4] == meta)]

    def metas(self, name: str) -> list:
        return [s[4] for s in self.spans if s[0] == name]

    def self_times(self) -> list[float]:
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def layer_self_seconds(self) -> dict:
        """Self time per layer."""
        out: dict[str, float] = {}
        for span, t in zip(self.spans, self.self_times()):
            layer = span[0].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + t
        return out

    def layer_calls(self, first: int = 0, last: int | None = None) -> dict:
        """Calls into each layer over spans[first:last], root spans excluded."""
        out: dict[str, int] = {}
        for span in self.spans[first:last]:
            if span[3] >= 0:
                layer = span[0].split(".", 1)[0]
                out[layer] = out.get(layer, 0) + 1
        return out

    def per_root_sums(self, names) -> list[float]:
        """For each operation that called any of ``names``: their summed duration."""
        sums: dict[int, float] = {}
        for s in self.spans:
            if s[0] in names:
                sums[s[5]] = sums.get(s[5], 0.0) + s[2] - s[1]
        return list(sums.values())


def cli_trace_targets(cli_module, extra_methods) -> list:
    """What bellkit.cli calls across a layer boundary: imported bellkit functions and its handlers."""
    targets = []
    for attr, value in vars(cli_module).items():
        if not inspect.isfunction(value) or not value.__module__.startswith("bellkit"):
            continue
        if value.__module__ != cli_module.__name__ or attr.startswith("cmd_"):
            targets.append((cli_module, attr))
    return targets + list(extra_methods)

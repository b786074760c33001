"""Command-line entry point.

Subcommands: chsh, enumerate, optimize, sample, taxonomy, sweep.  Exit codes:
0 success, 2 parse/validation failure or too few samples per block, 3 unknown
lookup name, 4 I/O failure.
Randomized commands require an explicit --seed; nothing defaults to the clock.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import os
import stat
import sys
from collections.abc import Callable, Iterable
from pathlib import Path

# quantum, optimize, polytope and theses load in the handlers that use them, and numpy in the functions that
# build arrays, so that each fresh process loads only what its subcommand runs (enumerate, taxonomy, chsh and
# optimize load no numpy, and no subcommand loads dataclasses); the io and network functions stay bound here,
# where perfbench wraps them
from .behavior import _expected_products, require_no_signaling
from .errors import InsufficientDataError, InvalidInputError, UnknownInterpretationError
from .io import (
    RunReport,
    behavior_from_json,
    digest_inputs,
    load_json,
    model_from_json,
    parse_network_text,
    sweep_rows_to_csv,
)
from .lhv import chsh, enumerate_deterministic, lhv_behavior
from .network import (
    _CHUNK,
    GENERATOR_NAME,
    estimate_chsh,
    exact_chsh,
    sample,
    verify_markov,
)
from .tolerance import BOUND_SLACK

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_LOOKUP = 3
EXIT_IO = 4

# the singlet, and the basis states by their two bits
_STATE_KEYWORDS = ("singlet", "00", "01", "10", "11")
_STATE_HELP = ("'singlet', a basis keyword (00/01/10/11), or 8 reals; a spec starting with '-' "
               "goes after '--', with the options before it")


def _parse_state(spec: str):
    """A ``TwoQubitState`` from a spec: a keyword or 8 comma-separated reals (re,im per amplitude)."""
    from .quantum import TwoQubitState, basis_state, singlet
    key = spec.strip().lower()
    if key in _STATE_KEYWORDS:
        return singlet() if key == "singlet" else basis_state(int(key, 2))
    parts = spec.replace(" ", "").split(",")
    if len(parts) != 8:
        raise InvalidInputError(
            f"state spec must be a keyword ({', '.join(sorted(_STATE_KEYWORDS))}) "
            f"or 8 comma-separated reals, got {spec!r}")
    try:
        vals = [float(p) for p in parts]
    except ValueError as exc:
        raise InvalidInputError(f"state spec has a non-numeric entry: {exc}") from exc
    return TwoQubitState.from_amplitudes(tuple(complex(vals[2 * i], vals[2 * i + 1]) for i in range(4)))


def _parse_file(path: str, parse: Callable[[str], object]) -> tuple[str, object]:
    """The text of the UTF-8 file at ``path`` and ``parse(text)``; an input error in either names ``path``."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _IOFailure(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise InvalidInputError(
            f"{path}: byte {exc.object[exc.start]:#04x} at offset {exc.start} is not UTF-8") from exc
    try:
        return text, parse(text)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from exc


def _write_text(path: str, texts: Iterable[str]) -> None:
    """Write the pieces ``texts`` to ``path`` whole or not at all: a sibling temp file, then ``os.replace``.

    The pieces are written as they come, so a generator of pieces never has
    the whole text in memory.

    Links in ``path`` are followed first, so the file a link names is replaced
    and the link stays; a replaced file keeps its permission bits.  An existing
    file that is not a regular file (a directory, device or pipe) is refused,
    since ``os.replace`` would swap it out.  On any exception the temp file is
    removed and the old file is left as it was, also when a piece fails to
    encode or the iterable raises part-way.
    """
    target = Path(os.path.realpath(path))
    tmp = target.parent / f".{target.name}.{os.urandom(8).hex()}.tmp"
    try:
        # lexists, so that a link loop reaches stat() and fails there
        old_mode = target.stat().st_mode if os.path.lexists(target) else None
        if old_mode is not None and not stat.S_ISREG(old_mode):
            raise _IOFailure(f"cannot write {path}: not a regular file")
        # "x" creates tmp and never opens an existing file or a link there
        with open(tmp, "x", encoding="utf-8", newline="") as f:
            f.writelines(texts)
        if old_mode is not None:
            os.chmod(tmp, stat.S_IMODE(old_mode))
        os.replace(tmp, target)
    except OSError as exc:
        raise _IOFailure(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        # gone after os.replace; left behind by any exception before it
        with contextlib.suppress(OSError):
            tmp.unlink()


class _IOFailure(Exception):
    pass


def _file_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _seed_value(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {raw!r}")
    if not 0 <= value < 2 ** 64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


def _behavior_or_model(text: str) -> tuple[str, object]:
    """``("behavior", Behavior)`` or ``("model", LHVModel)`` from the text of a ``chsh`` input file."""
    data = load_json(text)
    if isinstance(data, dict) and "blocks" in data:
        return "behavior", behavior_from_json(data)
    if isinstance(data, dict) and "lambda" in data:
        return "model", model_from_json(data)
    raise InvalidInputError("expected a behavior file (\"blocks\") or a model file (\"lambda\")")


def cmd_chsh(args) -> RunReport:
    from .polytope import LOCAL_BOUND, TSIRELSON, _variants
    text, (kind, parsed) = _parse_file(args.input, _behavior_or_model)
    behavior = lhv_behavior(parsed) if kind == "model" else parsed
    require_no_signaling(behavior, "the CHSH bound verdicts")
    e = _expected_products(behavior._entries)
    # S is one of the 8 sign variants; a relabelled box can hide its violation in another
    largest = max(_variants(*e))
    return RunReport(
        command="chsh",
        inputs_digest=digest_inputs({"file": _file_digest(text), "kind": kind}),
        results={
            "input kind": kind,
            "correlators": {"E(a,b)": e[0], "E(a,b')": e[1], "E(a',b)": e[2], "E(a',b')": e[3]},
            "S": chsh(e),
            "local bound |S| <= 2": bool(largest <= LOCAL_BOUND + BOUND_SLACK),
            "quantum bound |S| <= 2*sqrt(2)": bool(largest <= TSIRELSON + BOUND_SLACK),
        },
    )


def cmd_enumerate(args) -> RunReport:
    rows = [[*s, value] for s, value in enumerate_deterministic()]
    return RunReport(
        command="enumerate",
        inputs_digest=digest_inputs({}),
        results={
            "strategies (a, a', b, b', S)": rows,
            "count": len(rows),
            "max |S|": max(abs(r[4]) for r in rows),
        },
    )


def cmd_optimize(args) -> RunReport:
    from .optimize import seesaw_maximize
    psi = _parse_state(args.state)
    result = seesaw_maximize(psi, seed=args.seed)
    directions = zip(("alice u", "alice u'", "bob v", "bob v'"), result.settings.as_tuple())
    return RunReport(
        command="optimize",
        inputs_digest=digest_inputs({"state": args.state}),
        seed=args.seed,
        results={"best S": result.best_s, **{name: [w.x, w.y, w.z] for name, w in directions}},
    )


def cmd_sample(args) -> RunReport:
    import numpy as np
    text, spec = _parse_file(args.network, parse_network_text)
    dataset = sample(spec, n=args.n, seed=args.seed)
    # every estimate before the write, so a run that fails leaves no file behind
    estimate = estimate_chsh(dataset)
    markov = verify_markov(spec)
    exact_s = exact_chsh(spec)
    _write_text(args.out, (dataset.to_csv(s, s + _CHUNK) for s in range(0, dataset.count, _CHUNK)))
    return RunReport(
        command="sample",
        inputs_digest=digest_inputs({"file": _file_digest(text), "n": args.n}),
        seed=args.seed,
        results={
            "records": dataset.count,
            "output": args.out,
            "exact S": exact_s,
            "estimated S": estimate.s,
            "stderr": estimate.stderr,
            "block counts (ab, ab', a'b, a'b')": list(estimate.per_block_counts),
            "markov residuals": {
                "source/settings independence": markov.source_settings,
                "alice screening": markov.alice_screening,
                "bob screening": markov.bob_screening,
            },
            "generator": f"{GENERATOR_NAME} (numpy {np.__version__})",
        },
    )


def _taxonomy_text_table() -> str:
    from .theses import Thesis, taxonomy
    theses = list(Thesis)
    name_width = max(len(r.name) for r in taxonomy()) + 2
    header = "Interpretation".ljust(name_width) + " | " + " | ".join(
        t.value for t in theses)
    sep = "-" * len(header)
    lines = [header, sep]
    for record in taxonomy():
        cells = [("x" if record.rejected is t else "").center(len(t.value))
                 for t in theses]
        lines.append(record.name.ljust(name_width) + " | " + " | ".join(cells))
    return "\n".join(lines)


def cmd_taxonomy(args) -> RunReport:
    from .theses import find_interpretation, taxonomy
    if args.name is None:
        rows = [{"interpretation": r.name, "rejects": r.rejected.value}
                for r in taxonomy()]
        return RunReport(
            command="taxonomy",
            inputs_digest=digest_inputs({}),
            results={"rows": len(rows), "table": rows},
        )
    record = find_interpretation(args.name)
    return RunReport(
        command="taxonomy",
        inputs_digest=digest_inputs({"name": args.name}),
        results={"interpretation": record.name, "rejects": record.rejected.value},
    )


def cmd_sweep(args) -> RunReport:
    from .optimize import sweep
    psi = _parse_state(args.state)
    rows = sweep(psi, steps=args.steps,
                 theta_start_deg=args.theta_start, theta_end_deg=args.theta_end)
    _write_text(args.out, (sweep_rows_to_csv(rows, s, s + _CHUNK) for s in range(0, len(rows), _CHUNK)))
    s_values = rows[:, 1]
    return RunReport(
        command="sweep",
        inputs_digest=digest_inputs({"state": args.state, "steps": args.steps,
                                     "start": args.theta_start, "end": args.theta_end}),
        results={
            "rows": len(rows),
            "output": args.out,
            "first (theta, S)": rows[0].tolist(),
            "last (theta, S)": rows[-1].tolist(),
            # the first extreme row, so that a tie of 0.0 and -0.0 keeps the earlier sign
            "min S": float(s_values[s_values.argmin()]),
            "max S": float(s_values[s_values.argmax()]),
        },
    )


class _Parser(argparse.ArgumentParser):
    """An argument parser whose ``--help`` text goes to stdout through ``_write_stdout``.

    argparse ignores a failed write of its help text, so ``--help`` to a full
    disk would exit 0 with nothing written; here it exits EXIT_IO instead.
    Subcommand parsers are made of the same class.
    """

    def print_help(self, file=None):
        if file is not None:
            super().print_help(file)
        elif (code := _write_stdout(self.format_help(), "help")) != EXIT_OK:
            raise SystemExit(code)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bellkit",
        description="CHSH correlations, local models, and the interpretation taxonomy",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format (default: text)")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("chsh", help="correlators and CHSH verdicts for a behavior or model file")
    p.add_argument("input", help="path to a behavior or model JSON file")
    p.set_defaults(handler=cmd_chsh)

    p = sub.add_parser("enumerate", help="the 16 deterministic strategies and their S values")
    p.set_defaults(handler=cmd_enumerate)

    p = sub.add_parser("optimize", help="maximal |S| of a pure state and the settings reaching it")
    p.add_argument("state", help=_STATE_HELP)
    p.add_argument("--seed", type=_seed_value,
                   help="optional 64-bit seed, echoed in the report; the maximum does not depend on it")
    p.set_defaults(handler=cmd_optimize)

    p = sub.add_parser("sample", help="ancestral sampling from a network file, with CHSH estimate")
    p.add_argument("network", help="path to a network JSON file")
    p.add_argument("-n", type=int, required=True, help="number of records")
    p.add_argument("--seed", type=_seed_value, required=True, help="64-bit generator seed")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(handler=cmd_sample)

    p = sub.add_parser("taxonomy", help="interpretations and the thesis each rejects")
    p.add_argument("name", nargs="?", help="optional interpretation name")
    p.set_defaults(handler=cmd_taxonomy)

    p = sub.add_parser("sweep", help="S versus rotation angle of Bob's settings, as CSV")
    p.add_argument("state", help=_STATE_HELP)
    p.add_argument("--steps", type=int, required=True, help="number of rows (>= 2)")
    p.add_argument("--theta-start", type=float, default=0.0, help="first angle in degrees")
    p.add_argument("--theta-end", type=float, default=360.0, help="last angle in degrees")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(handler=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.handler(args)
    except UnknownInterpretationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LOOKUP
    except _IOFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (InvalidInputError, InsufficientDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if args.format == "json":
        text = report.to_json()
    else:
        text = report.to_text()
        if args.subcommand == "taxonomy" and args.name is None:
            text += "\n" + _taxonomy_text_table() + "\n"
    return _write_stdout(text, "report")


def _write_stdout(text: str, what: str) -> int:
    """Write ``text`` to stdout and flush it: EXIT_OK, or EXIT_IO with one error line naming ``what``."""
    try:
        # flushed here, so that a full disk or a closed pipe fails here also when stdout is buffered
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        # what stays buffered goes to the null device, or the flush at exit would fail again
        with contextlib.suppress(OSError), open(os.devnull, "wb") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
        print(f"error: cannot write the {what}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())

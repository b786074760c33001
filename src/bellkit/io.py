"""JSON file formats, CSV export, and the run report.

All files are UTF-8 JSON.  A behavior file holds the four 2x2 blocks keyed by
setting pair with outcome order (+1, -1); a model file lists the hidden
values; a network file is a model file plus optional setting priors.  The
parsers read a JSON value or text, not a file: their errors name the place
inside it, and a caller that read a file adds its path.  Every number goes
through ``_number``, which refuses anything but a finite double, and every
object through ``_object``, so a parser raises ``InvalidInputError`` and
nothing else on any JSON value; a message quotes a value through
``_quote``.  Reports print at 7 decimal places in text mode and full double
precision in JSON.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any

from . import __version__
from .behavior import Behavior, SETTING_LABELS_A, SETTING_LABELS_B, _Frozen
from .errors import InvalidInputError, excerpt
from .lhv import LHVModel
from .network import NetworkSpec


def load_json(text: str) -> Any:
    try:
        return json.loads(text, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:  # the decoder recurses once per level of nesting
        raise InvalidInputError("arrays and objects nested too deeply to decode") from exc


def _json_int(digits: str) -> int | float:
    """A JSON integer as an ``int``; one too long for ``int()`` is far beyond double range, and reads as ±inf."""
    try:
        return int(digits)
    except ValueError:
        return float(digits)


def _quote(value) -> str:
    """``value`` as JSON for a message, cut by ``excerpt``."""
    try:
        return excerpt(json.dumps(value))
    except ValueError:  # an integer past Python's digit limit for str(), which load_json never returns
        return "an integer too long to quote"


def _number(value, place: str, kind: str = "a number") -> float:
    """A JSON number as a finite double; ``place`` names it in the message that refuses anything else.

    Any other JSON value is "not ``kind``", quoted as JSON (``float()`` would
    read a string or boolean as a number).  An integer beyond double range
    reads as inf, as ``1e400`` does, and is refused with NaN and ±inf.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidInputError(f"{place} is not {kind}: {_quote(value)} is not a JSON number")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise InvalidInputError(f"{place} is not a finite double: {_quote(value)}")
    return number


def _object(value, keys: tuple[str, ...], name: str = "") -> dict:
    """``value`` if it is a JSON object with no key outside ``keys``; ``name`` names it, "" at the top level."""
    if not isinstance(value, dict):
        raise InvalidInputError(f"{name} must be an object with keys {', '.join(keys)}" if name
                                else f"expected an object with a {json.dumps(keys[0])} key")
    for key in value:
        if key not in keys:
            *rest, last = map(json.dumps, keys)
            expected = f"{', '.join(rest)} or {last}" if rest else last
            where = f"{name}: " if name else ""
            raise InvalidInputError(f"{where}unknown key {_quote(key)}; expected {expected}")
    return value


_BLOCK_KEYS = tuple(f"{lx},{ly}" for lx in SETTING_LABELS_A for ly in SETTING_LABELS_B)


def behavior_from_json(data: Any) -> Behavior:
    blocks = _object(_object(data, ("blocks",)).get("blocks"), _BLOCK_KEYS, "\"blocks\"")
    table = []
    for key in _BLOCK_KEYS:
        if key not in blocks:
            raise InvalidInputError(f"missing block \"{key}\"")
        rows = blocks[key]
        if not isinstance(rows, list) or [isinstance(row, list) and len(row) for row in rows] != [2, 2]:
            raise InvalidInputError(f"block \"{key}\" must be a list of 2 rows of 2 numbers")
        table.append([[_number(v, f"block \"{key}\"", "numeric") for v in row] for row in rows])
    return Behavior([table[:2], table[2:]])


def _pair(value, labels: tuple[str, str], name: str) -> list[float]:
    """The two numbers of a response pair or setting prior, in ``labels`` order; ``name`` names it in each message."""
    pair = _object(value, labels, name)
    out = []
    for lbl in labels:
        if lbl not in pair:
            raise InvalidInputError(f"{name} is missing setting \"{lbl}\"")
        out.append(_number(pair[lbl], f"{name}[\"{lbl}\"]"))
    return out


def model_from_json(data: Any) -> LHVModel:
    """The model of a model or network file; setting priors, where present, must pass as in a network file."""
    return network_from_json(data).model


def network_from_json(data: Any) -> NetworkSpec:
    data = _object(data, ("lambda", "settingPriorA", "settingPriorB"))
    entries = data.get("lambda")
    if not isinstance(entries, list) or not entries:
        raise InvalidInputError("\"lambda\" must be a non-empty list")
    labels, prior, resp_a, resp_b = [], [], [], []
    for i, entry in enumerate(entries):
        entry = _object(entry, ("label", "prob", "pA_plus", "pB_plus"), f"lambda entry {i}")
        label = entry.get("label", f"l{i}")
        if not isinstance(label, str):
            raise InvalidInputError(f"lambda entry {i} \"label\" is not a JSON string: {_quote(label)}")
        labels.append(label)
        if "prob" not in entry:
            raise InvalidInputError(f"lambda entry {i} is missing \"prob\"")
        prior.append(_number(entry["prob"], f"lambda entry {i} \"prob\""))
        resp_a.append(_pair(entry.get("pA_plus"), SETTING_LABELS_A, f"lambda entry {i}: \"pA_plus\""))
        resp_b.append(_pair(entry.get("pB_plus"), SETTING_LABELS_B, f"lambda entry {i}: \"pB_plus\""))
    model = LHVModel(labels=labels, prior=prior, alice_response=resp_a, bob_response=resp_b)
    kwargs = {arg: _pair(data[key], settings, f"\"{key}\"")
              for key, settings, arg in (("settingPriorA", SETTING_LABELS_A, "setting_prior_a"),
                                         ("settingPriorB", SETTING_LABELS_B, "setting_prior_b")) if key in data}
    return NetworkSpec(model=model, **kwargs)


def parse_network_text(text: str) -> NetworkSpec:
    return network_from_json(load_json(text))


def sweep_rows_to_csv(rows: np.ndarray, start: int = 0, stop: int | None = None) -> str:
    """CSV ``theta_degrees,S`` of rows ``[start, stop)`` of a ``sweep`` array at full double precision.

    The header leads iff ``start == 0``, so the texts of consecutive ranges
    join to the text of their union.
    """
    header = "theta_degrees,S\n" if start == 0 else ""
    return header + "".join(f"{t!r},{s!r}\n" for t, s in rows[start:stop].tolist())


def digest_inputs(descriptor: dict) -> str:
    """Stable SHA-256 of a canonical-JSON description of a command's inputs."""
    payload = json.dumps(descriptor, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def fmt(value: float) -> str:
    """Human-report number format: 7 decimal places."""
    return f"{value:.7f}"


class RunReport(_Frozen):
    """Everything a command produced, reproducible from inputs plus seed."""

    command: str
    inputs_digest: str
    results: dict
    seed: int | None
    __hash__ = None  # compared by its fields, but its results are a dict

    def __init__(self, command, inputs_digest, results, seed=None):
        self.__dict__.update(command=command, inputs_digest=inputs_digest, results=results, seed=seed)

    def to_json(self) -> str:
        body = {
            "command": self.command,
            "inputsDigest": self.inputs_digest,
            "results": self.results,
            "toolVersion": __version__,
        }
        if self.seed is not None:
            body["seed"] = self.seed
        return json.dumps(body, indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        lines = [f"command: {self.command}"]
        if self.seed is not None:
            lines.append(f"seed: {self.seed}")
        for key, value in self.results.items():
            lines.extend(_render(key, value))
        lines.append(f"inputs digest: {self.inputs_digest}")
        lines.append(f"tool version: {__version__}")
        return "\n".join(lines) + "\n"


def _render(label: str, value):
    """The text lines of one result: ``label: value``, or ``label:`` and then indented lines."""
    first = value[0] if isinstance(value, (list, tuple)) and value else None
    if isinstance(value, bool):
        yield f"{label}: {'yes' if value else 'no'}"
    elif isinstance(value, dict):
        yield f"{label}:"
        for k, v in value.items():
            yield from _render(f"  {k}", v)
    elif isinstance(first, dict):
        yield f"{label}:"
        yield from ("  " + ", ".join(f"{k}: {v}" for k, v in row.items()) for row in value)
    elif isinstance(first, (list, tuple)):
        yield f"{label}:"
        yield from ("  " + "  ".join(map(_cell, row)) for row in value)
    elif isinstance(value, (list, tuple)):
        yield f"{label}: " + ", ".join(map(_cell, value))
    else:
        yield f"{label}: {_cell(value)}"


def _cell(v) -> str:
    return fmt(v) if isinstance(v, float) else str(v)

"""JSON file formats, CSV export, and the run report.

All files are UTF-8 JSON.  A behavior file holds the four 2x2 blocks keyed by
setting pair with outcome order (+1, -1); a model file lists the hidden
values; a network file is a model file plus optional setting priors.  The
parsers read a JSON value or text, not a file: their errors name the place
inside it, and a caller that read a file adds its path.  Reports print at 7
decimal places in text mode and full double precision in JSON.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any

import numpy as np

from . import __version__
from .behavior import Behavior, SETTING_LABELS_A, SETTING_LABELS_B
from .errors import InvalidInputError
from .lhv import LHVModel
from .network import NetworkSpec


def load_json(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def _non_number(value):
    """The JSON text of the first string, boolean or null in a JSON value or its nested lists; numpy reads those as numbers or nan."""
    if value is None or isinstance(value, (str, bool)):
        return json.dumps(value)
    if isinstance(value, list):
        return next(filter(None, map(_non_number, value)), None)
    return None


def _as_float_array(value, shape: tuple[int, ...], what: str) -> np.ndarray:
    bad = _non_number(value)
    if bad is not None:
        raise InvalidInputError(f"{what} is not numeric: {bad} is not a JSON number")
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{what} is not numeric: {exc}") from exc
    if arr.shape != shape:
        raise InvalidInputError(f"{what} must have shape {shape}, got {arr.shape}")
    return arr


def _as_float(value, what: str) -> float:
    if value is None or isinstance(value, (str, bool)):
        raise InvalidInputError(f"{what} is not a number: {json.dumps(value)} is not a JSON number")
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{what} is not a number: {exc}") from exc


def behavior_from_json(data: Any) -> Behavior:
    if not isinstance(data, dict) or "blocks" not in data:
        raise InvalidInputError("expected an object with a \"blocks\" key")
    blocks = data["blocks"]
    if not isinstance(blocks, dict):
        raise InvalidInputError("\"blocks\" must be an object")
    table = np.empty((2, 2, 2, 2))
    for x, lx in enumerate(SETTING_LABELS_A):
        for y, ly in enumerate(SETTING_LABELS_B):
            key = f"{lx},{ly}"
            if key not in blocks:
                raise InvalidInputError(f"missing block \"{key}\"")
            table[x, y] = _as_float_array(blocks[key], (2, 2), f"block \"{key}\"")
    return Behavior(table)


def _response_pair(entry: dict, key: str, labels: tuple[str, str], where: str = "") -> list[float]:
    """The two numbers under ``entry[key]``, in ``labels`` order; ``where`` leads each message, naming ``entry``."""
    if key not in entry or not isinstance(entry[key], dict):
        raise InvalidInputError(f"{where}\"{key}\" must be an object with keys {', '.join(labels)}")
    out = []
    for lbl in labels:
        if lbl not in entry[key]:
            raise InvalidInputError(f"{where}\"{key}\" is missing setting \"{lbl}\"")
        out.append(_as_float(entry[key][lbl], f"{where}\"{key}\"[\"{lbl}\"]"))
    return out


def model_from_json(data: Any) -> LHVModel:
    if not isinstance(data, dict) or "lambda" not in data:
        raise InvalidInputError("expected an object with a \"lambda\" key")
    entries = data["lambda"]
    if not isinstance(entries, list) or not entries:
        raise InvalidInputError("\"lambda\" must be a non-empty list")
    labels, prior, resp_a, resp_b = [], [], [], []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise InvalidInputError(f"lambda entry {i} must be an object")
        label = entry.get("label", f"l{i}")
        if not isinstance(label, str):
            raise InvalidInputError(f"lambda entry {i} \"label\" is not a JSON string: {json.dumps(label)}")
        labels.append(label)
        if "prob" not in entry:
            raise InvalidInputError(f"lambda entry {i} is missing \"prob\"")
        prior.append(_as_float(entry["prob"], f"lambda entry {i} \"prob\""))
        resp_a.append(_response_pair(entry, "pA_plus", SETTING_LABELS_A, f"lambda entry {i}: "))
        resp_b.append(_response_pair(entry, "pB_plus", SETTING_LABELS_B, f"lambda entry {i}: "))
    return LHVModel(labels=tuple(labels), prior=np.array(prior),
                    alice_response=np.array(resp_a), bob_response=np.array(resp_b))


def network_from_json(data: Any) -> NetworkSpec:
    model = model_from_json(data)
    kwargs = {}
    for key, labels, arg in (("settingPriorA", SETTING_LABELS_A, "setting_prior_a"),
                             ("settingPriorB", SETTING_LABELS_B, "setting_prior_b")):
        if key in data:
            kwargs[arg] = np.array(_response_pair(data, key, labels))
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


@dataclass(frozen=True)
class RunReport:
    """Everything a command produced, reproducible from inputs plus seed."""

    command: str
    inputs_digest: str
    results: dict
    seed: int | None = None

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

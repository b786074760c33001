"""JSON file formats, CSV export, and the run report.

All files are UTF-8 JSON.  A behavior file holds the four 2x2 blocks keyed by
setting pair with outcome order (+1, -1); a model file lists the hidden
values; a network file is a model file plus optional setting priors.  Reports
print at 7 decimal places in text mode and full double precision in JSON.
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

class FileFormatError(InvalidInputError):
    """A file failed to parse or validate; message carries position info."""


def load_json(text: str, source: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(
            f"{source}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def _as_float_array(value, shape: tuple[int, ...], what: str, source: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"{source}: {what} is not numeric: {exc}") from exc
    if arr.shape != shape:
        raise FileFormatError(f"{source}: {what} must have shape {shape}, got {arr.shape}")
    return arr


def _as_float(value, what: str, source: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"{source}: {what} is not a number: {exc}") from exc


def behavior_to_json(b: Behavior) -> dict:
    blocks = {}
    for x, lx in enumerate(SETTING_LABELS_A):
        for y, ly in enumerate(SETTING_LABELS_B):
            blocks[f"{lx},{ly}"] = [[float(v) for v in row] for row in b.table[x, y]]
    return {"blocks": blocks}


def behavior_from_json(data: Any, source: str = "behavior") -> Behavior:
    if not isinstance(data, dict) or "blocks" not in data:
        raise FileFormatError(f"{source}: expected an object with a \"blocks\" key")
    blocks = data["blocks"]
    if not isinstance(blocks, dict):
        raise FileFormatError(f"{source}: \"blocks\" must be an object")
    table = np.empty((2, 2, 2, 2))
    for x, lx in enumerate(SETTING_LABELS_A):
        for y, ly in enumerate(SETTING_LABELS_B):
            key = f"{lx},{ly}"
            if key not in blocks:
                raise FileFormatError(f"{source}: missing block \"{key}\"")
            table[x, y] = _as_float_array(blocks[key], (2, 2), f"block \"{key}\"", source)
    try:
        return Behavior(table)
    except InvalidInputError as exc:
        raise FileFormatError(f"{source}: {exc}") from exc


def parse_behavior_text(text: str, source: str = "behavior") -> Behavior:
    return behavior_from_json(load_json(text, source), source)


def model_to_json(model: LHVModel) -> dict:
    entries = []
    for k, label in enumerate(model.labels):
        entries.append({
            "label": label,
            "prob": float(model.prior[k]),
            "pA_plus": {"a": float(model.alice_response[k, 0]),
                        "a'": float(model.alice_response[k, 1])},
            "pB_plus": {"b": float(model.bob_response[k, 0]),
                        "b'": float(model.bob_response[k, 1])},
        })
    return {"lambda": entries}


def _response_pair(entry: dict, key: str, labels: tuple[str, str], source: str) -> list[float]:
    if key not in entry or not isinstance(entry[key], dict):
        raise FileFormatError(f"{source}: each lambda entry needs a \"{key}\" object")
    out = []
    for lbl in labels:
        if lbl not in entry[key]:
            raise FileFormatError(f"{source}: \"{key}\" is missing setting \"{lbl}\"")
        out.append(_as_float(entry[key][lbl], f"\"{key}\"[\"{lbl}\"]", source))
    return out


def model_from_json(data: Any, source: str = "model") -> LHVModel:
    if not isinstance(data, dict) or "lambda" not in data:
        raise FileFormatError(f"{source}: expected an object with a \"lambda\" key")
    entries = data["lambda"]
    if not isinstance(entries, list) or not entries:
        raise FileFormatError(f"{source}: \"lambda\" must be a non-empty list")
    labels, prior, resp_a, resp_b = [], [], [], []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise FileFormatError(f"{source}: lambda entry {i} must be an object")
        labels.append(str(entry.get("label", f"l{i}")))
        if "prob" not in entry:
            raise FileFormatError(f"{source}: lambda entry {i} is missing \"prob\"")
        prior.append(_as_float(entry["prob"], f"lambda entry {i} \"prob\"", source))
        resp_a.append(_response_pair(entry, "pA_plus", ("a", "a'"), source))
        resp_b.append(_response_pair(entry, "pB_plus", ("b", "b'"), source))
    try:
        return LHVModel(labels=tuple(labels), prior=np.array(prior),
                        alice_response=np.array(resp_a), bob_response=np.array(resp_b))
    except InvalidInputError as exc:
        raise FileFormatError(f"{source}: {exc}") from exc


def network_to_json(spec: NetworkSpec) -> dict:
    data = model_to_json(spec.model)
    data["settingPriorA"] = {"a": float(spec.setting_prior_a[0]),
                             "a'": float(spec.setting_prior_a[1])}
    data["settingPriorB"] = {"b": float(spec.setting_prior_b[0]),
                             "b'": float(spec.setting_prior_b[1])}
    return data


def network_from_json(data: Any, source: str = "network") -> NetworkSpec:
    model = model_from_json(data, source)
    kwargs = {}
    for key, labels, arg in (("settingPriorA", ("a", "a'"), "setting_prior_a"),
                             ("settingPriorB", ("b", "b'"), "setting_prior_b")):
        if key in data:
            kwargs[arg] = np.array(_response_pair(data, key, labels, source))
    try:
        return NetworkSpec(model=model, **kwargs)
    except InvalidInputError as exc:
        raise FileFormatError(f"{source}: {exc}") from exc


def parse_network_text(text: str, source: str = "network") -> NetworkSpec:
    return network_from_json(load_json(text, source), source)


def sweep_rows_to_csv(rows: list[tuple[float, float]]) -> str:
    """CSV ``theta_degrees,S`` at full double precision."""
    lines = ["theta_degrees,S"]
    lines.extend(f"{repr(float(t))},{repr(float(s))}" for t, s in rows)
    return "\n".join(lines) + "\n"


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

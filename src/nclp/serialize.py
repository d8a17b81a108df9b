"""JSON wire formats and deterministic serialization.

Matrices travel as ``{"rows": k, "cols": m, "re": [...], "im": [...]}`` in
row-major order; loaders reject length mismatches and non-finite entries.
All reals are emitted with 17 significant digits so identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict

import numpy as np

from .counterexample import CounterexampleReport
from .errors import InvalidInputError
from .vecnorm import BetaWitness, FactorWitness, NormCertificate, VecElem
from .yeadon import YeadonSpec


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise InvalidInputError(f"cannot serialize non-finite value {x!r}")
    return format(float(x), ".17g")


def dumps_canonical(obj) -> str:
    """JSON text with fixed float formatting and stable key order."""
    if obj is None or isinstance(obj, bool):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps_canonical(v) for v in obj) + "]"
    if isinstance(obj, dict):
        parts = []
        for key, val in obj.items():
            if not isinstance(key, str):
                raise InvalidInputError("JSON object keys must be strings")
            parts.append(json.dumps(key) + ":" + dumps_canonical(val))
        return "{" + ",".join(parts) + "}"
    raise InvalidInputError(f"cannot serialize object of type {type(obj).__name__}")


def matrix_to_json(m) -> dict:
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2:
        raise InvalidInputError("matrix payloads must be 2-D")
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]),
            "re": [float(v) for v in m.real.ravel()],
            "im": [float(v) for v in m.imag.ravel()]}


def _size(obj, key: str) -> int:
    """``obj[key]`` as an int; only an integral JSON number is a size."""
    val = obj[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise InvalidInputError(f"size {key!r} must be a number, got {val!r}")
    if isinstance(val, float) and not val.is_integer():
        raise InvalidInputError(f"size {key!r} must be an integer, got {val!r}")
    return int(val)


def matrix_from_json(obj) -> np.ndarray:
    try:
        rows, cols = _size(obj, "rows"), _size(obj, "cols")
        # an integer entry beyond the float range raises OverflowError
        re, im = (np.asarray(obj[key], dtype=float) for key in ("re", "im"))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"malformed matrix payload: {exc}") from exc
    if rows < 0 or cols < 0:
        raise InvalidInputError("matrix dimensions must be nonnegative")
    if re.shape != (rows * cols,) or im.shape != (rows * cols,):
        raise InvalidInputError(
            f"matrix payload length mismatch: {rows}x{cols} needs "
            f"{rows * cols} entries, got re={re.size} im={im.size}")
    m = (re + 1j * im).reshape(rows, cols)
    if not np.all(np.isfinite(re)) or not np.all(np.isfinite(im)):
        raise InvalidInputError("matrix entries must be finite")
    return m


def vecelem_to_json(y: VecElem) -> dict:
    return {"k": y.k, "n": y.n,
            "coords": [matrix_to_json(c) for c in y.coords]}


def vecelem_from_json(obj) -> VecElem:
    try:
        k, n = _size(obj, "k"), _size(obj, "n")
        coords = [matrix_from_json(c) for c in obj["coords"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed element payload: {exc}") from exc
    if k < 0 or n < 0:
        raise InvalidInputError(f"element sizes must be >= 0, got k={k}, n={n}")
    if len(coords) != n:
        raise InvalidInputError(f"expected {n} coordinates, got {len(coords)}")
    for c in coords:
        if c.shape != (k, k):
            raise InvalidInputError(f"coordinate shape {c.shape} is not ({k}, {k})")
    return VecElem(np.stack(coords)) if coords else VecElem.zeros(k, 0)


def yeadon_to_json(spec: YeadonSpec, p: float) -> dict:
    return {"n": spec.n,
            "rep_weights": [float(w) for w in spec.rep_weights],
            "antirep_weights": [float(w) for w in spec.antirep_weights],
            "p": float(p),
            "W": matrix_to_json(spec.w) if spec.w is not None else None}


def yeadon_from_json(obj):
    """Returns ``(YeadonSpec, p)``."""
    try:
        spec = YeadonSpec(
            n=_size(obj, "n"),
            rep_weights=tuple(float(w) for w in obj.get("rep_weights", [])),
            antirep_weights=tuple(float(w) for w in obj.get("antirep_weights", [])),
            w=matrix_from_json(obj["W"]) if obj.get("W") is not None else None)
        p = float(obj["p"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"malformed isometry spec payload: {exc}") from exc
    return spec, p


def _factor_witness_to_json(wit) -> dict | None:
    if wit is None:
        return None
    if isinstance(wit, FactorWitness):
        return {"kind": wit.branch, "transposed": wit.transposed,
                "s": matrix_to_json(wit.s),
                "r": matrix_to_json(wit.r) if wit.r is not None else None,
                "rho": matrix_to_json(wit.rho) if wit.rho is not None else None}
    if isinstance(wit, BetaWitness):
        return {"kind": "split", "y0": vecelem_to_json(wit.y0),
                "ell_value": float(wit.ell_value),
                "col_value": float(wit.col_value)}
    raise InvalidInputError(f"unknown witness type {type(wit).__name__}")


def certificate_to_json(cert: NormCertificate) -> dict:
    return {"upper": float(cert.upper), "lower": float(cert.lower),
            "converged": bool(cert.converged),
            "iterations": int(cert.iterations),
            "dual_norm_bound": float(cert.dual_norm_bound),
            "factor_witness": _factor_witness_to_json(cert.factor_witness),
            "dual_witness": (vecelem_to_json(cert.dual_witness)
                             if cert.dual_witness is not None else None)}


def report_to_json(rep: CounterexampleReport) -> dict:
    return asdict(rep)


def load_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"invalid JSON in {path}: {exc}") from exc


def write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
        if not text.endswith("\n"):
            fh.write("\n")

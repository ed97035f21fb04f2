"""JSON interchange formats: algebra documents and report documents.

An algebra document stores the prime, the dimension, optional basis names
and the sparse bracket list (only i < j, only nonzero coefficient maps).
The prime, the dimension, the bracket indices and the coefficients must be
JSON integers (a float or a boolean is refused, never truncated).
Coefficients are reduced mod p on load; a document whose table violates the
Jacobi identity is rejected with the offending basis triple.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import is_dataclass, asdict
from typing import Dict

import numpy as np

from .gfp import PrimeField
from .liealg import LieAlgebra
from .subspace import Subspace

TOOL_VERSION = "0.1.0"


class DocumentError(ValueError):
    """Malformed algebra/report document."""


def algebra_to_doc(L: LieAlgebra) -> Dict:
    doc = {
        "field": {"prime": L.p},
        "dim": L.dim,
        "brackets": [
            {"i": i, "j": j, "coeffs": {str(k): int(c) for k, c in enumerate(coeffs) if c}}
            for (i, j), coeffs in sorted(L.sparse_brackets().items())
        ],
    }
    if L.basis_names:
        doc["basis"] = list(L.basis_names)
    return doc


def _integer(value) -> int:
    """value when it is a JSON integer; TypeError for anything else,
    true and false and whole-valued floats included, rather than a
    truncation."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{value!r} is not an integer")
    return value


def algebra_from_doc(doc: Dict) -> LieAlgebra:
    if not isinstance(doc, dict):
        raise DocumentError("algebra document must be a JSON object")
    try:
        p = _integer(doc["field"]["prime"])
        n = _integer(doc["dim"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DocumentError(f"missing/invalid field.prime or dim: {exc}") from None
    if n < 0:
        raise DocumentError("dim must be nonnegative")
    basis = doc.get("basis")
    if basis is not None:
        if not isinstance(basis, list) or len(basis) != n:
            raise DocumentError("basis must be a list of dim names")
    brackets = {}
    for entry in doc.get("brackets", []):
        try:
            i, j = _integer(entry["i"]), _integer(entry["j"])
            coeffs_map = entry["coeffs"]
        except (KeyError, TypeError, ValueError):
            raise DocumentError(f"malformed bracket entry {entry!r}") from None
        if not 0 <= i < j < n:
            raise DocumentError(f"bracket indices ({i},{j}) out of range for dim {n}")
        if not isinstance(coeffs_map, dict):
            raise DocumentError(f"coeffs of bracket ({i},{j}) must be an object")
        coeffs = [0] * n
        for k, c in coeffs_map.items():
            try:
                k, c = int(k), _integer(c)
            except (TypeError, ValueError):
                raise DocumentError(
                    f"malformed coefficient {k!r}: {c!r} in bracket ({i},{j})"
                ) from None
            if not 0 <= k < n:
                raise DocumentError(f"coefficient index {k} out of range for dim {n}")
            coeffs[k] = c % p
        if (i, j) in brackets:
            raise DocumentError(f"duplicate bracket entry ({i},{j})")
        brackets[(i, j)] = tuple(coeffs)
    return LieAlgebra(PrimeField(p), n, brackets, basis_names=basis)


def algebra_hash(doc: Dict) -> str:
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def space_doc(s: Subspace) -> Dict:
    return {"dim": s.dim, "rows": [list(r) for r in s.rows]}


def jsonable(obj):
    """Recursively convert toolkit values into JSON-encodable structures."""
    if isinstance(obj, Subspace):
        return space_doc(obj)
    if isinstance(obj, LieAlgebra):
        return algebra_to_doc(obj)
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(x) for x in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if is_dataclass(obj) and not isinstance(obj, type):
        return jsonable(asdict(obj))
    return obj

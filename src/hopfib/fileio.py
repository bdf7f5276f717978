"""JSON interchange for bialgebra instances and machine-readable reports.

The algebra file format (schema 1) stores everything as integers:

    {
      "schema": 1,
      "field": {"p": 7},
      "dim": 8,
      "basis_labels": ["g0", ...],
      "unit": [1, 0, ...],
      "mul": [[i, j, k, c], ...],          # e_i e_j contains c e_k
      "comul": [[i, a, b, c], ...],        # Delta(e_i) contains c e_a (x) e_b
      "counit": [1, ...],
      "antipode": [[i, j, c], ...],        # optional, S[i, j] gets c added
      "subalgebra_A": {"basis_vectors": [[...], ...]},   # optional
      "provenance": {...}, "expected": {...}             # optional
    }

Repeated mul, comul and antipode entries add up. A missing required key,
any key of the wrong JSON type, or basis_labels other than dim strings, is
a DimensionMismatch naming it. Entry lists are checked in bulk and read
into int64 arrays, which SparseTensor.from_entries takes as they are; only
a list with a fault, or with a value outside int64, is read entry by entry
(_checked_entries).

Sparse entry arrays are sorted lexicographically and JSON is emitted with
sorted keys and fixed indentation, so serialization is canonical:
parsing a canonical file and re-serializing reproduces it byte for byte.
canonical_json writes exactly the bytes of json.dumps(obj, sort_keys=True,
indent=2) plus a newline, without json's pure-Python indenting encoder.
"""

from __future__ import annotations

import hashlib
import json
from itertools import chain

import numpy as np

from . import __version__
from .algebra import StructureConstantAlgebra, build_algebra
from .corpus import CorpusInstance
from .errors import DimensionMismatch, HopfibError
from .hopf import BialgebraData, build_bialgebra, coideal_subalgebra
from .linalg import FieldSpec, SparseTensor, Subspace

SCHEMA = 1


def canonical_json(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2) + "\n", byte for byte.

    Given an indent, json leaves its C encoder for the pure-Python one, so
    the layout is written here: dicts with string keys in sorted key order,
    a list of ints in one join, and a list of equal-length int lists, such
    as an entry table, in one % over its flattened rows. Every other value,
    and every key, is left to json.dumps and indented to its depth.
    """
    out: list[str] = []
    _layout(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _layout(obj, newline: str, out: list[str]) -> None:
    """Append obj as json.dumps lays it out at the indent that newline
    (a line break and the indent of obj's depth) carries."""
    inner = newline + "  "
    if isinstance(obj, dict) and obj and set(map(type, obj)) == {str}:
        sep = "{" + inner
        for key in sorted(obj):
            out.append(sep + json.dumps(key) + ": ")
            _layout(obj[key], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(obj, (list, tuple)) and obj:
        kinds = set(map(type, obj))
        widths = set(map(len, obj)) if kinds <= {list, tuple} else ()
        if kinds == {int}:
            out.append("[" + inner + ("," + inner).join(map(str, obj)) + newline + "]")
        elif len(widths) == 1 and set(map(type, chain.from_iterable(obj))) == {int}:
            deeper = inner + "  "
            row = "[" + deeper + ("," + deeper).join(["%d"] * widths.pop()) + inner + "]"
            table = "[" + inner + ("," + inner).join([row] * len(obj)) + newline + "]"
            out.append(table % tuple(chain.from_iterable(obj)))
        else:
            sep = "[" + inner
            for item in obj:
                out.append(sep)
                _layout(item, inner, out)
                sep = "," + inner
            out.append(newline + "]")
    else:
        out.append(json.dumps(obj, sort_keys=True, indent=2).replace("\n", newline))


def digest_bytes(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def instance_to_dict(b: BialgebraData, a_subspace: Subspace | None = None,
                     provenance: dict | None = None, expected: dict | None = None) -> dict:
    n = b.dim
    out = {
        "schema": SCHEMA,
        "field": {"p": b.field.p},
        "dim": n,
        "basis_labels": list(b.alg.labels),
        "unit": [int(x) for x in b.alg.unit],
        "mul": [list(e) for e in b.alg.mul.entries()],
        "comul": [list(e) for e in b.comul.entries()],
        "counit": [int(x) for x in b.counit],
    }
    if b.antipode is not None:
        out["antipode"] = [list(e) for e in SparseTensor.from_dense(b.antipode).entries()]
    if a_subspace is not None:
        out["subalgebra_A"] = {
            "basis_vectors": [[int(x) for x in row] for row in a_subspace.basis]
        }
    if provenance:
        out["provenance"] = provenance
    if expected:
        out["expected"] = expected
    return out


def corpus_instance_to_dict(inst: CorpusInstance) -> dict:
    return instance_to_dict(inst.h, inst.a.subspace, inst.provenance, inst.expected)


def raw_bialgebra_from_dict(d: dict) -> BialgebraData:
    """Shape the data without running any verification (for axiom reports)."""
    d = _checked_entries(d)
    field = FieldSpec(d["field"]["p"])
    n = d["dim"]
    mul = SparseTensor.from_entries(n, 3, d["mul"], field.p)
    alg = StructureConstantAlgebra(field, n, d["unit"], mul, tuple(d.get("basis_labels") or ()))
    return BialgebraData(alg, d["comul"], d["counit"], _antipode_matrix(d, n, field.p))


def _antipode_matrix(d, n, p):
    return SparseTensor.from_entries(n, 2, d["antipode"], p).dense() if "antipode" in d else None


_JSON_TYPES = {int: "an integer", list: "a list", dict: "an object"}
# the JSON type of each top-level key; the required ones must be present
_REQUIRED = {"field": dict, "dim": int, "unit": list, "mul": list, "comul": list, "counit": list}
_OPTIONAL = {"basis_labels": list, "antipode": list, "subalgebra_A": dict,
             "provenance": dict, "expected": dict}


def _typed(x, kind: type, what: str):
    """x itself if its JSON type is kind; a float (2.0 too), string or boolean
    is not an integer, and raises DimensionMismatch instead of being coerced."""
    if type(x) is not kind:
        raise DimensionMismatch(f"{what} {x!r} is not {_JSON_TYPES[kind]}")
    return x


def _member(d: dict, key: str, kind: type, what: str):
    """d[key], which must be present with JSON type kind."""
    if key not in d:
        raise DimensionMismatch(f"required key {what!r} is missing")
    return _typed(d[key], kind, what)


def _checked_entries(d: dict) -> dict:
    """d with every key of the format checked to have its JSON type and the
    required ones to be present, every number to be an integer, basis_labels
    to be dim strings, mul, comul and antipode entries to have the right
    arity and indices in [0, dim) (DimensionMismatch otherwise), and
    coefficients, unit, counit and A's basis vectors reduced mod p while
    they are Python ints.

    mul, comul and antipode come back as int64 arrays of rows, read in bulk
    (_bulk_entries: C-level passes over types and lengths, one int64
    conversion and the range of the index columns) where a list has no
    fault and no value outside int64. Any other list goes to the per-entry
    loop, the one place that words an error, so every message, and which of
    two faults is reported, is the loop's.
    """
    schema = d.get("schema") if type(d) is dict else None
    if schema != SCHEMA:
        raise HopfibError(f"unsupported schema {schema!r}; expected {SCHEMA}")
    for key, kind in _REQUIRED.items():
        _member(d, key, kind, key)
    for key, kind in _OPTIONAL.items():
        if key in d:
            _typed(d[key], kind, key)
    p = _member(d["field"], "p", int, "field.p")
    n = d["dim"]
    if "basis_labels" in d:
        labels = d["basis_labels"]
        if len(labels) != n or any(type(x) is not str for x in labels):
            raise DimensionMismatch(f"basis_labels must be {n} strings, one per basis element")

    def vector(key, v):
        return [_typed(x, int, f"{key} entry") % p for x in _typed(v, list, key)]

    def entries(key, arity):
        rows = d[key]
        table = _bulk_entries(rows, arity, n, p)
        if table is not None:
            return table
        for e in rows:
            shaped = isinstance(e, list) and len(e) == arity
            if not (shaped and all(0 <= _typed(i, int, f"{key} index") < n for i in e[:-1])):
                raise DimensionMismatch(
                    f"{key} entry {e!r} is not {arity - 1} indices in [0, {n}) and a coefficient")
        checked = [(*e[:-1], _typed(e[-1], int, f"{key} coefficient") % p) for e in rows]
        return np.array(checked, dtype=np.int64).reshape(-1, arity)

    out = dict(d, unit=vector("unit", d["unit"]), counit=vector("counit", d["counit"]),
               mul=entries("mul", 4), comul=entries("comul", 4))
    if "antipode" in d:
        out["antipode"] = entries("antipode", 3)
    if "subalgebra_A" in d:
        rows = _member(d["subalgebra_A"], "basis_vectors", list, "subalgebra_A.basis_vectors")
        out["subalgebra_A"] = {"basis_vectors": [vector("subalgebra_A", row) for row in rows]}
    return out


def _bulk_entries(rows: list, arity: int, n: int, p: int) -> np.ndarray | None:
    """rows as an int64 array with its coefficients reduced mod p, if every
    row is a list of arity integers within int64 and every index lies in
    [0, n); else None, and _checked_entries reads rows entry by entry."""
    if not (set(map(type, rows)) <= {list} and set(map(len, rows)) <= {arity}
            and set(map(type, chain.from_iterable(rows))) <= {int}):
        return None
    try:
        table = np.array(rows, dtype=np.int64).reshape(-1, arity)
    except OverflowError:  # a value outside int64
        return None
    indices = table[:, :-1]
    if indices.size and (indices.min() < 0 or indices.max() >= n):
        return None
    table[:, -1] %= p
    return table


def instance_from_dict(d: dict) -> CorpusInstance:
    """Parse and fully verify an instance; A defaults to the scalars."""
    d = _checked_entries(d)
    field = FieldSpec(d["field"]["p"])
    n = d["dim"]
    labels = tuple(d.get("basis_labels") or ())
    alg = build_algebra(field, n, d["unit"], d["mul"], labels)
    b = build_bialgebra(alg, d["comul"], d["counit"], _antipode_matrix(d, n, field.p))
    if "subalgebra_A" in d:
        a_space = Subspace(field, n, d["subalgebra_A"]["basis_vectors"])
    else:
        a_space = Subspace(field, n, [alg.unit])
    a = coideal_subalgebra(b, a_space)
    return CorpusInstance(b, a, d.get("provenance", {}), d.get("expected"))


def write_instance(path, inst: CorpusInstance) -> bytes:
    data = canonical_json(corpus_instance_to_dict(inst)).encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return data


def report_dict(command: str, seed: int | None, input_bytes: bytes | None, results: dict) -> dict:
    return {
        "schema": SCHEMA,
        "tool": {"name": "hopfib", "version": __version__},
        "command": command,
        "seed": seed,
        "input_digest": digest_bytes(input_bytes) if input_bytes is not None else None,
        "results": results,
        # wall-clock timing is reported on stderr only: report files must be
        # byte-identical for a fixed (input, seed, command)
        "timing": None,
    }

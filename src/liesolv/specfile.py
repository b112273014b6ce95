"""The algebra spec file: a JSON document describing one algebra.

Layout::

    {
      "format": 1,
      "field": {"kind": "gf2k", "k": 2, "modulus": [1, 1, 1]},
      "restricted": true,
      "dim": 3,
      "names": ["e1", "e2", "e3"],
      "brackets": [{"i": 0, "j": 1, "value": {"2": "1"}}],
      "pmap": [{}, {}, {}]
    }

Indices are 0-based, omitted entries are zero, modulus bits run low to
high, scalars use the field's string form (lowercase hex for GF(2^k)).
"pmap" is required exactly when "restricted" is true.  Unknown keys are
rejected, in the document and in its field object, so that a parsed file
serializes back byte-identically, and so are JSON true/false where an
integer goes (Python's bool is an int), coordinate keys that are not
canonical decimals ("02", "+2", " 2"), scalars other than the one the
field's ``to_str`` writes (GF(2^k): "01", "0x1", " 1", "A"; F2(X,Y):
" X + 1", "1+X", "(X)/(1)") and zero coordinates.
"""

from __future__ import annotations

import json

from .algebra import LieAlgebra, RestrictedLieAlgebra
from .fields import FieldError, field_from_json, field_to_json

FORMAT_VERSION = 1

_TOP_KEYS = {"format", "field", "restricted", "dim", "names", "brackets", "pmap"}


class SpecError(Exception):
    pass


class AxiomError(Exception):
    def __init__(self, report):
        super().__init__(str(report))
        self.report = report


def _coord_map_to_vec(field, d: dict, dim: int, where: str):
    if not isinstance(d, dict):
        raise SpecError(f"{where}: coordinates must be a JSON object")
    vec = [field.zero] * dim
    for key, sval in d.items():
        if not (key.isascii() and key.isdigit() and key == str(int(key))):
            raise SpecError(f"{where}: coordinate key {key!r} is not a canonical integer")
        i = int(key)
        if not 0 <= i < dim:
            raise SpecError(f"{where}: coordinate index {i} out of range 0..{dim - 1}")
        try:
            vec[i] = field.from_str(sval)
        except Exception as exc:
            raise SpecError(f"{where}: bad scalar {sval!r}: {exc}")
        if field.to_str(vec[i]) != sval:
            raise SpecError(f"{where}: scalar {sval!r} is not canonical: "
                            f"write {field.to_str(vec[i])!r}")
        if field.is_zero(vec[i]):
            raise SpecError(f"{where}: coordinate {i} is zero; zero coordinates are omitted")
    return tuple(vec)


def _vec_to_coord_map(field, vec) -> dict:
    return {str(i): field.to_str(c) for i, c in enumerate(vec)
            if not field.is_zero(c)}


def algebra_from_json(doc: dict) -> LieAlgebra:
    if not isinstance(doc, dict):
        raise SpecError("top level must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise SpecError(f"unknown keys: {sorted(unknown)}")
    for key in ("format", "field", "restricted", "dim", "names", "brackets"):
        if key not in doc:
            raise SpecError(f"missing key {key!r}")
    if type(doc["format"]) is not int or doc["format"] != FORMAT_VERSION:
        raise SpecError(f"unsupported format version {doc['format']!r}")
    try:
        field = field_from_json(doc["field"])
    except FieldError as exc:
        raise SpecError(f"field: {exc}")
    dim = doc["dim"]
    names = doc["names"]
    if type(dim) is not int or dim < 0:
        raise SpecError("dim must be a non-negative integer")
    if not isinstance(names, list) or len(names) != dim \
            or not all(isinstance(name, str) for name in names):
        raise SpecError("names must list exactly dim string labels")
    restricted = doc["restricted"]
    if not isinstance(restricted, bool):
        raise SpecError("restricted must be true or false")
    if restricted and "pmap" not in doc:
        raise SpecError("restricted algebras require a pmap block")
    if not restricted and "pmap" in doc:
        raise SpecError("ordinary algebras must not carry a pmap block")
    if not isinstance(doc["brackets"], list):
        raise SpecError("brackets must be a list")
    brackets = {}
    for k, entry in enumerate(doc["brackets"]):
        where = f"brackets[{k}]"
        if not isinstance(entry, dict) or set(entry) != {"i", "j", "value"}:
            raise SpecError(f"{where}: entries need exactly i, j, value")
        i, j = entry["i"], entry["j"]
        if not (type(i) is int and type(j) is int and 0 <= i < j < dim):
            raise SpecError(f"{where}: need 0 <= i < j < dim, got ({i}, {j})")
        if (i, j) in brackets:
            raise SpecError(f"{where}: duplicate bracket ({i}, {j})")
        brackets[(i, j)] = _coord_map_to_vec(field, entry["value"], dim, where)
    if restricted:
        pmap_doc = doc["pmap"]
        if not isinstance(pmap_doc, list) or len(pmap_doc) != dim:
            raise SpecError("pmap must list exactly dim coordinate maps")
        pmap = [_coord_map_to_vec(field, d, dim, f"pmap[{i}]")
                for i, d in enumerate(pmap_doc)]
        return RestrictedLieAlgebra(field, names, brackets, pmap)
    return LieAlgebra(field, names, brackets)


def algebra_to_json(L) -> dict:
    f = L.field
    restricted = isinstance(L, RestrictedLieAlgebra)
    brackets = []
    for i in range(L.n):
        for j in range(i + 1, L.n):
            row = L._table[i][j]
            if any(not f.is_zero(c) for c in row):
                brackets.append({"i": i, "j": j, "value": _vec_to_coord_map(f, row)})
    doc = {
        "format": FORMAT_VERSION,
        "field": field_to_json(f),
        "restricted": restricted,
        "dim": L.n,
        "names": list(L.names),
        "brackets": brackets,
    }
    if restricted:
        doc["pmap"] = [_vec_to_coord_map(f, row) for row in L.pmap]
    return doc


def serialize(L) -> str:
    return json.dumps(algebra_to_json(L), indent=1, sort_keys=True) + "\n"


def parse_spec(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
    L = algebra_from_json(doc)
    report = L.check_axioms()
    if not report.ok:
        raise AxiomError(report)
    return L

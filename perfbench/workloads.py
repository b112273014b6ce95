"""Workloads of the liesolv benchmark: instance lists, set-up and output checks.

Every instance reaches the library through the JSON spec format.  Set-up
builds each algebra with a public constructor of ``liesolv.families`` (or
draws it with ``random_instance``), serialises it to an ``.alg`` file and
parses it back, so the library only ever sees parsed instances.

An instance's ``summary`` of its output is what ``reference.json``
records for it; ``check`` compares the summary against that record and
re-checks the evidence the output carries.

The liesolv modules are looked up through their module objects at call
time (``C.classify``, never a name bound at import), so the tracer in
``tracing.py`` sees every call once it has patched them.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import liesolv.algebra as A
import liesolv.classify as C
import liesolv.envelope as E
import liesolv.families as Fam
import liesolv.fields as Fld
import liesolv.ordinary as O
import liesolv.specfile as S

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

OUTCOMES = ("solvable", "not_solvable", "inconclusive")

# Reference value of an instance whose input depends on the workload seed.
UNRECORDED = object()


@dataclass
class Instance:
    label: str
    call: Callable[[], object]
    summary: Callable[[object], object]
    extra_check: Callable[[object], Optional[str]]
    reference: object                             # UNRECORDED for the random slice
    verdicts: Callable[[object], List[str]] = lambda out: []

    def check(self, out) -> Optional[str]:
        """None when the output is right, else what is wrong with it."""
        got = self.summary(out)
        if self.reference is not UNRECORDED and got != self.reference:
            return f"{self.label}: got {got}, reference {self.reference}"
        return self.extra_check(out)


@dataclass
class Built:
    instances: List[Instance]
    digests: Dict[str, str]


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# instance lists
# ----------------------------------------------------------------------

def _label(builder: str, params: dict, q: int) -> str:
    parts = [builder] + [f"{k}{int(v) if isinstance(v, bool) else v}"
                         for k, v in params.items()]
    return "-".join(parts) + f"/gf{q}"


def _family(builder: str, q: int, **params):
    return (_label(builder, params, q), builder, params, q)


SERIES_GF2 = [
    _family("witness_chain", 2, k=2),
    _family("family_v", 2, h_dim=3),
    _family("family_i", 2, toral=3, nilchain=3, moved=2),
    _family("negative_class2", 2),
]

SERIES_GF2K = [
    _family("family_v", 4, h_dim=3),
    _family("family_i", 4, toral=3, nilchain=2, moved=2),
    _family("family_iv", 4, h_dim=3),
    _family("free_class2", 4, gens=3, center_squares=True),
    _family("family_v", 8, h_dim=2),
    _family("negative_class2", 8),
]

SZ_IDEAL = [
    _family("family_v", 2, h_dim=3),
    _family("family_iv", 2, h_dim=3),
    _family("witness_chain", 2, k=2),
    _family("negative_class2", 2),
    _family("negative_class2", 4),
    _family("family_v", 4, h_dim=2),
]

CURATED_N6 = [
    ("heisenberg", {}),
    ("family_i", {}),
    ("free_class2", {"gens": 3}),
    ("free_class2", {"gens": 3, "center_squares": True}),
    ("family_iii", {}),
    ("family_iii", {"central_dim": 1, "central_bracket": True}),
    ("family_iii", {"central_dim": 2, "central_bracket": True}),
    ("family_iv", {"h_dim": 1}),
    ("family_iv", {"h_dim": 2}),
    ("family_v", {"h_dim": 1}),
    ("family_v", {"h_dim": 2}),
]

# Seeded random slice of classify-corpus: (field order, dim), draws per stratum.
RANDOM_STRATA = [((2, n), 18) for n in (3, 4, 5, 6)]
RANDOM_STRATA += [((4, n), 18) for n in (3, 4, 5)]
RANDOM_STRATA += [((8, n), 18) for n in (3, 4)]

# Fixed random slice: random_instance(n, GF(q), s) for these s, independent
# of the workload seed.  These strata have rare heavy draws: about one
# GF(8) n=6 draw in forty sends the condition-(i) matcher into a ~1 s
# projective enumeration (s=3 here), and GF(4) n=6 and GF(8) n=5 have
# 0.1 s outliers.  Fixed, they are measured on every run; seeded, they
# would decide a pass's length and the tail instance by the luck of the
# draw.
FIXED_STRATA = [((8, 6), range(12)), ((4, 6), range(18)), ((8, 5), range(18))]

ORDINARY_COUNT = 100
ORDINARY_DIM = 5

TWIN_SUFFIX = "/gf2"


def twin_label(label: str) -> str:
    """The GF(2) instance with the same structure constants."""
    return label.rsplit("/", 1)[0] + TWIN_SUFFIX


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------

class SpecWriter:
    """Serialises algebras into a work directory and parses them back."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.hashes: Dict[str, "hashlib._Hash"] = {}

    def write(self, name: str, L, slice_name: str) -> str:
        text = S.serialize(L)
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        h = self.hashes.setdefault(slice_name, hashlib.sha256())
        h.update(name.encode() + b"\0" + text.encode() + b"\0")
        return path

    def digests(self) -> Dict[str, str]:
        return {k: h.hexdigest() for k, h in sorted(self.hashes.items())}


def _file_name(label: str) -> str:
    return label.replace("/", "-") + ".alg"


def build_family(builder: str, params: dict, q: int):
    return getattr(Fam, builder)(field=Fld.gf(q), **params)


def _parsed_families(specs, writer: SpecWriter):
    out = []
    for label, builder, params, q in specs:
        path = writer.write(_file_name(label), build_family(builder, params, q), "fixed")
        out.append((label, S.parse_spec(path)))
    return out


def _series_instances(specs, writer, ref, twins: bool) -> List[Instance]:
    instances = []
    for label, L in _parsed_families(specs, writer):
        twin_dims = ref["series"].get(twin_label(label)) if twins else None

        def twin_check(res, twin_dims=twin_dims, twins=twins):
            if twins and res.dims != twin_dims:
                return f"dims {res.dims} differ from the GF(2) twin's {twin_dims}"
            return None

        instances.append(Instance(
            label=label,
            call=lambda L=L: E.Envelope(L).lie_derived_series(),
            summary=lambda res: res.dims,
            extra_check=twin_check,
            reference=ref["series"].get(label),
        ))
    return instances


def _sz_instances(specs, writer, ref) -> List[Instance]:
    instances = []
    for label, L in _parsed_families(specs, writer):

        def witness_check(res, L=L, label=label):
            if res.nilpotent:
                return None
            if res.witness is None:
                return f"{label}: non-nilpotent result carries no witness"
            nil, _ = E.Envelope(L).is_nilpotent(res.witness)
            return f"{label}: sz witness is nilpotent" if nil else None

        instances.append(Instance(
            label=label,
            call=lambda L=L: E.Envelope(L).sz_nilpotency(),
            summary=lambda res: [res.nilpotent, res.index, res.ideal_dim],
            extra_check=witness_check,
            reference=ref["sz"].get(label),
        ))
    return instances


def _corpus_call(path: str):
    L = S.parse_spec(path)
    if isinstance(L, A.RestrictedLieAlgebra):
        verdict = C.classify(L)
        return "restricted", verdict, C.verify_verdict(L, verdict)
    report = O.descent_abelian_codim1(L)
    return "ordinary", report, O.corollary_classify(L)


def _corpus_summary(out):
    kind, a, b = out
    if kind == "restricted":
        return [a.outcome, a.condition]
    return [b.outcome, b.condition]


def _corpus_check(out) -> Optional[str]:
    kind, a, b = out
    if kind == "ordinary":
        if not a.implication_holds:
            return "descent implication fails"
        if b.outcome not in OUTCOMES:
            return f"unknown corollary outcome {b.outcome!r}"
        return None
    verdict, verified = a, b
    if verdict.outcome not in OUTCOMES:
        return f"unknown outcome {verdict.outcome!r}"
    if not verified:
        return "verify_verdict rejects the verdict"
    if verdict.oracle is not None and verdict.outcome != "inconclusive":
        want = "reached_zero" if verdict.outcome == "solvable" else "stabilized"
        if verdict.oracle["outcome"] != want:
            return f"verdict {verdict.outcome} disagrees with oracle {verdict.oracle['outcome']}"
    return None


def _corpus_verdicts(out) -> List[str]:
    kind, a, b = out
    return [a.outcome if kind == "restricted" else b.outcome]


def corpus_files(seed: int, writer: SpecWriter):
    """(file name, path, has_reference) for every classify-corpus spec file."""
    files = []

    def add(name, L, slice_name):
        files.append((name, writer.write(name, L, slice_name), slice_name == "fixed"))

    for q in (2, 4, 8):
        for builder, params in CURATED_N6 + [("negative_class2", {})]:
            add("c-" + _file_name(_label(builder, params, q)),
                build_family(builder, params, q), "fixed")
    add("c-example_7_1.alg", Fam.example_7_1(), "fixed")
    for (q, n), seeds in FIXED_STRATA:
        field = Fld.gf(q)
        for s in seeds:
            L, _ = Fam.random_instance(n, field, s)
            add(f"f-gf{q}-n{n}-s{s:02d}.alg", L, "fixed")
    rng = random.Random(f"liesolv-bench:{seed}")
    for (q, n), count in RANDOM_STRATA:
        field = Fld.gf(q)
        for i in range(count):
            L, _ = Fam.random_instance(n, field, rng.randrange(1 << 30))
            add(f"r-gf{q}-n{n}-{i:02d}.alg", L, "random")
    for i in range(ORDINARY_COUNT):
        L, _ = O.random_ordinary_instance(ORDINARY_DIM, Fld.GF2, rng.randrange(1 << 30))
        add(f"o-gf2-n{ORDINARY_DIM}-{i:03d}.alg", L, "random")
    return files


def _corpus_instances(seed, writer, ref) -> List[Instance]:
    instances = []
    for name, path, has_reference in corpus_files(seed, writer):
        S.parse_spec(path)    # set-up parses every file once, as the other workloads do
        instances.append(Instance(
            label=name,
            call=lambda path=path: _corpus_call(path),
            summary=_corpus_summary,
            extra_check=_corpus_check,
            reference=ref["corpus"].get(name) if has_reference else UNRECORDED,
            verdicts=_corpus_verdicts,
        ))
    return instances


WORKLOADS = ("series-gf2", "series-gf2k", "sz-ideal", "classify-corpus")


def build(name: str, seed: int, workdir: str) -> Built:
    """Set up one workload's instances from its seed inside workdir."""
    ref = load_reference()
    writer = SpecWriter(workdir)
    if name == "series-gf2":
        instances = _series_instances(SERIES_GF2, writer, ref, twins=False)
    elif name == "series-gf2k":
        instances = _series_instances(SERIES_GF2K, writer, ref, twins=True)
    elif name == "sz-ideal":
        instances = _sz_instances(SZ_IDEAL, writer, ref)
    elif name == "classify-corpus":
        instances = _corpus_instances(seed, writer, ref)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Built(instances, writer.digests())

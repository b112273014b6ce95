"""Command-line front end.

Commands: axioms, solvable, classify, sz-index, family, example-7-1,
ordinary {classify,witness,envelope}, corpus.  Text reports go to
stdout; --json switches to a single structured document.  Exit codes:
0 completed (verdicts including not-solvable count as success),
1 usage error or an algebra too large for u(L) (see
``envelope.MAX_ENVELOPE_N``), 2 parse or axiom error, 3 internal
invariant violation (classifier/oracle disagreement in a corpus sweep,
or a core that fails its re-check before the oracle runs modulo it).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

from . import __version__
from .algebra import RestrictedLieAlgebra
from .classify import ClassifyOptions, CoreNotNilpotent, classify
from .envelope import Envelope, EnvelopeTooLarge
from .families import FAMILY_BUILDERS, BadParameters, example_7_1_report, random_instance
from .fields import FieldError, RatFunc2, gf
from .ordinary import corollary_classify, two_envelope, witness_search
from .specfile import AxiomError, SpecError, parse_spec, serialize


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _report(args, command: str, payload: dict, text_lines, digest=None) -> None:
    if args.json:
        doc = {
            "tool": "liesolv",
            "version": __version__,
            "command": command,
            "input_digest": digest,
            "budgets": _budget_block(args),
            "result": payload,
        }
        if getattr(args, "timings", False):
            doc["elapsed_ms"] = int((time.monotonic() - args._t0) * 1000)
        print(json.dumps(doc, indent=1, sort_keys=True))
    else:
        for line in text_lines:
            print(line)
        if getattr(args, "timings", False):
            print(f"elapsed: {(time.monotonic() - args._t0) * 1000:.0f} ms")


def _budget_block(args) -> dict:
    out = {}
    for key in ("ladder", "witness_depth", "witness_degree", "witness_budget"):
        if hasattr(args, key):
            out[key] = getattr(args, key)
    return out


def _load(args, want=None):
    try:
        L = parse_spec(args.file)
    except (SpecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    except AxiomError as exc:
        print(f"axiom violation:\n{exc}", file=sys.stderr)
        raise SystemExit(2)
    if want == "restricted" and not isinstance(L, RestrictedLieAlgebra):
        print("error: this command needs a restricted algebra "
              "(\"restricted\": true)", file=sys.stderr)
        raise SystemExit(2)
    if want == "ordinary" and isinstance(L, RestrictedLieAlgebra):
        print("error: this command needs an ordinary algebra "
              "(\"restricted\": false)", file=sys.stderr)
        raise SystemExit(2)
    return L


def _envelope(L) -> Envelope:
    try:
        return Envelope(L)
    except EnvelopeTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(1)


def cmd_axioms(args) -> int:
    L = _load(args)
    report = L.check_axioms()
    payload = {
        "ok": report.ok,
        "violations": [{"kind": v.kind, "indices": list(v.indices),
                        "detail": v.detail} for v in report.violations],
    }
    _report(args, "axioms", payload,
            ["all axioms hold" if report.ok else str(report)],
            _digest(args.file))
    return 0


def cmd_solvable(args) -> int:
    L = _load(args, want="restricted")
    env = _envelope(L)
    res = env.lie_derived_series(max_steps=args.max_steps)
    payload = {"outcome": res.outcome, "value": res.value, "dims": res.dims}
    if res.outcome == "reached_zero":
        text = [f"ReachedZero, derived length {res.value}, dims: "
                + " -> ".join(str(d) for d in res.dims)]
    elif res.outcome == "stabilized":
        text = [f"Stabilized at dimension {res.value}, dims: "
                + " -> ".join(str(d) for d in res.dims)]
    else:
        text = [f"BudgetExceeded after {len(res.dims) - 1} steps"]
    _report(args, "solvable", payload, text, _digest(args.file))
    return 0


def cmd_classify(args) -> int:
    L = _load(args, want="restricted")
    options = ClassifyOptions(
        extension_ladder_max=args.ladder,
        oracle_crosscheck=not args.no_oracle,
    )
    verdict = classify(L, options)
    payload = verdict.to_json()
    text = [f"verdict: {verdict.outcome}"]
    if verdict.condition:
        text.append(f"condition ({verdict.condition}): "
                    f"{payload['condition_name']}")
        text.append(f"extension degree: {verdict.extension_degree}")
        text.append(f"core ideal dimension: {len(verdict.core_basis)}")
        for b in verdict.core_basis:
            text.append(f"  core basis: {b}")
        if verdict.certificate:
            text += [f"  {line}" for line in verdict.certificate.relations]
    if verdict.witness_str:
        text.append(f"witness ({verdict.witness_kind}): {verdict.witness_str}")
    if verdict.reason:
        text.append(f"reason: {verdict.reason}")
    if verdict.oracle:
        text.append(f"oracle on u(L/I), dim L/I = {verdict.oracle['quotient_dim']}: "
                    f"{verdict.oracle['outcome']} ({verdict.oracle['value']}), dims "
                    + " -> ".join(str(d) for d in verdict.oracle["dims"]))
    _report(args, "classify", payload, text, _digest(args.file))
    return 0


def cmd_sz_index(args) -> int:
    L = _load(args, want="restricted")
    env = _envelope(L)
    res = env.sz_nilpotency()
    payload = {"nilpotent": res.nilpotent, "index": res.index,
               "ideal_dim": res.ideal_dim,
               "witness": env.element_str(res.witness) if res.witness else None}
    if res.nilpotent:
        text = [f"ideal dimension {res.ideal_dim}, nilpotency index {res.index}"]
    else:
        text = [f"NotNilpotent: ideal dimension {res.ideal_dim}, witness "
                f"{env.element_str(res.witness)}"]
    _report(args, "sz-index", payload, text, _digest(args.file))
    return 0


def cmd_family(args) -> int:
    try:
        L, note = _build_family(args)
    except (BadParameters, FieldError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = serialize(L)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"{note}: wrote dim-{L.n} algebra to {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def _build_family(args):
    """(algebra, note) for the family command; bad input raises BadParameters,
    FieldError or, for an unknown builder keyword, TypeError."""
    tag = args.tag
    if tag == "random":
        L, attempts = random_instance(args.dim, _field_by_name(args.field), args.seed)
        return L, f"random instance accepted after {attempts} attempts"
    builder = FAMILY_BUILDERS.get(tag)
    if builder is None:
        raise BadParameters(f"unknown family {tag!r}; known: "
                            f"{sorted(FAMILY_BUILDERS) + ['random']}")
    kwargs = {}
    for opt in args.opt or []:
        if "=" not in opt:
            raise BadParameters(f"family option {opt!r} is not key=value")
        key, val = opt.split("=", 1)
        if key == "field":
            raise BadParameters("set the field with --field, not --opt")
        kwargs[key] = _parse_opt_value(key, val)
    if tag != "example-7-1" and args.field != "gf2":
        kwargs.setdefault("field", _field_by_name(args.field))
    return builder(**kwargs), f"family {tag}"


def _parse_opt_value(key: str, val: str):
    """An integer, or true/false; any other value is refused with its key."""
    if val in ("true", "false"):
        return val == "true"
    try:
        return int(val)
    except ValueError:
        raise BadParameters(f"family option {key!r} takes an integer or true/false, "
                            f"not {val!r}") from None


def _field_by_name(name: str):
    if name == "ratfunc2":
        return RatFunc2()
    if name.startswith("gf") and name[2:].isdigit():
        return gf(int(name[2:]))
    raise FieldError(f"unknown field {name!r}; use gf<q> or ratfunc2")


def cmd_example_7_1(args) -> int:
    rep = example_7_1_report()
    payload = {
        "part1_element": rep.part1_element,
        "part1_nonzero": rep.part1_nonzero,
        "part2_v_square_zero": rep.part2_v_square_zero,
        "part2_w_square_zero": rep.part2_w_square_zero,
        "part2_ideal_2nilpotent": rep.part2_ideal_2nilpotent,
        "part3_abelian_codim1_found": rep.part3_abelian_codim1_found,
        "part3_generator_brackets": rep.part3_generator_brackets,
        "part3_obstruction": rep.part3_obstruction,
        "notes": rep.notes,
    }
    _report(args, "example-7-1", payload, rep.lines())
    return 0


def cmd_ordinary(args) -> int:
    L = _load(args, want="ordinary")
    if args.action == "classify":
        v = corollary_classify(L, witness_budget=args.witness_budget)
        payload = v.to_json()
        text = [f"verdict: {v.outcome}"]
        if v.condition:
            text.append(f"condition ({v.condition}): "
                        f"{payload['condition_name']}")
            text += [f"  {r}" for r in v.relations]
        if v.witness_str:
            text.append(f"witness [{v.witness_pattern} on "
                        f"{', '.join(v.witness_args)}]: {v.witness_str}")
        if v.reason:
            text.append(f"reason: {v.reason}")
    elif args.action == "witness":
        w = witness_search(L, depth=args.witness_depth,
                           total_degree=args.witness_degree,
                           budget=args.witness_budget)
        if w is None:
            payload = {"found": False}
            text = ["Exhausted: no witness within the budget "
                    "(this is not a solvability proof)"]
        else:
            payload = {"found": True, "pattern": w.pattern, "args": w.args,
                       "element": w.element_str}
            text = [f"witness [{w.pattern} on {', '.join(w.args)}]: "
                    f"{w.element_str}"]
    else:  # envelope
        res = two_envelope(L, m_max=args.m_max)
        payload = {"stabilized": res.stabilized, "dims": res.dims}
        text = [f"square-closure spans: {' -> '.join(str(d) for d in res.dims)}",
                f"stabilized: {res.stabilized}"]
        if res.stabilized:
            payload["closure_dim"] = res.dims[-1]
            text.append(f"closure is a restricted algebra of dimension "
                        f"{res.dims[-1]}")
    _report(args, f"ordinary-{args.action}", payload, text, _digest(args.file))
    return 0


def cmd_corpus(args) -> int:
    if not os.path.isdir(args.dir):
        print(f"error: {args.dir} is not a directory", file=sys.stderr)
        return 1
    files = sorted(f for f in os.listdir(args.dir) if f.endswith(".alg"))
    if not files:
        print("error: no .alg files in the corpus directory", file=sys.stderr)
        return 1
    rows = []
    disagreements = 0
    for name in files:
        path = os.path.join(args.dir, name)
        try:
            L = parse_spec(path)
        except (SpecError, AxiomError) as exc:
            print(f"error in {name}: {exc}", file=sys.stderr)
            return 2
        # an ordinary algebra has no u(L) oracle: its row has agree None
        ordinary = not isinstance(L, RestrictedLieAlgebra)
        verdict = corollary_classify(L) if ordinary else classify(L)
        agree = None
        if not ordinary and verdict.oracle is not None and verdict.outcome != "inconclusive":
            want = "reached_zero" if verdict.outcome == "solvable" else "stabilized"
            agree = verdict.oracle["outcome"] == want
            if not agree:
                disagreements += 1
        rows.append({"file": name, "outcome": verdict.outcome,
                     "condition": verdict.condition, "agree": agree})
    payload = {"files": rows, "disagreements": disagreements}
    text = [f"{r['file']}: {r['outcome']}"
            + (f" ({r['condition']})" if r["condition"] else "")
            + ("" if r["agree"] is None else f" agree={r['agree']}")
            for r in rows]
    text.append(f"disagreements: {disagreements}")
    _report(args, "corpus", payload, text)
    return 3 if disagreements else 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="liesolv",
        description="Lie solvability of restricted enveloping algebras "
                    "in characteristic 2")
    p.add_argument("--json", action="store_true",
                   help="emit one structured JSON document")
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock timing (non-deterministic output)")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("axioms", help="verify the algebra axioms of a spec file")
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_axioms)

    sp = sub.add_parser("solvable", help="run the derived-series oracle on u(L)")
    sp.add_argument("file")
    sp.add_argument("--max-steps", type=int, default=64)
    sp.set_defaults(fn=cmd_solvable)

    sp = sub.add_parser("classify", help="run the structural classifier")
    sp.add_argument("file")
    sp.add_argument("--ladder", type=int, default=4,
                    help="maximum extension degree (default 4)")
    sp.add_argument("--no-oracle", action="store_true",
                    help="skip the derived-series cross-check")
    sp.set_defaults(fn=cmd_classify)

    sp = sub.add_parser("sz-index",
                        help="nilpotency index of the ideal generated by "
                             "[[a,b],[c,d],e]")
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_sz_index)

    sp = sub.add_parser("family", help="emit a named family instance")
    sp.add_argument("tag", help=f"one of {sorted(FAMILY_BUILDERS) + ['random']}")
    sp.add_argument("-o", "--output")
    sp.add_argument("--field", default="gf2",
                    help="gf2, gf4, gf8, gf16 or ratfunc2")
    sp.add_argument("--opt", action="append",
                    help="family parameter key=value (repeatable)")
    sp.add_argument("--dim", type=int, default=4, help="dimension for random")
    sp.add_argument("--seed", type=int, default=0, help="seed for random")
    sp.set_defaults(fn=cmd_family)

    sp = sub.add_parser("example-7-1",
                        help="three-part function-field example report")
    sp.set_defaults(fn=cmd_example_7_1)

    sp = sub.add_parser("ordinary", help="ordinary enveloping algebra commands")
    sp.add_argument("action", choices=["classify", "witness", "envelope"])
    sp.add_argument("file")
    sp.add_argument("--witness-depth", type=int, default=3,
                    help="max degree of witness argument monomials (default 3)")
    sp.add_argument("--witness-degree", type=int, default=6,
                    help="max total degree of witness arguments (default 6)")
    sp.add_argument("--witness-budget", type=int, default=20000)
    sp.add_argument("--m-max", type=int, default=6,
                    help="iteration cap for the square-closure spans")
    sp.set_defaults(fn=cmd_ordinary)

    sp = sub.add_parser("corpus", help="classify every .alg file in a directory "
                                       "and cross-check the oracle")
    sp.add_argument("dir")
    sp.set_defaults(fn=cmd_corpus)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args._t0 = time.monotonic()
    try:
        return args.fn(args)
    except BrokenPipeError:
        return 0
    except CoreNotNilpotent as exc:
        print(f"error: internal invariant violated: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

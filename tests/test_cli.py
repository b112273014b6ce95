import json

import pytest

from liesolv.cli import main
from liesolv.families import family_v, heisenberg, negative_class2
from liesolv.fields import GF2, RatFunc2, gf
from liesolv.algebra import LieAlgebra
from liesolv.specfile import (
    AxiomError, SpecError, algebra_from_json, algebra_to_json, parse_spec,
    serialize,
)


@pytest.fixture()
def h3_file(tmp_path):
    path = tmp_path / "h3.alg"
    path.write_text(serialize(heisenberg()))
    return str(path)


@pytest.fixture()
def n7_file(tmp_path):
    path = tmp_path / "n7.alg"
    path.write_text(serialize(negative_class2()))
    return str(path)


def test_spec_roundtrip_bit_exact(h3_file):
    L = parse_spec(h3_file)
    text1 = serialize(L)
    L2 = parse_spec(h3_file)
    assert serialize(L2) == text1
    assert open(h3_file).read() == text1


def test_spec_rejects_unknown_keys():
    doc = algebra_to_json(heisenberg())
    doc["extra"] = 1
    with pytest.raises(SpecError):
        algebra_from_json(doc)


def test_spec_requires_pmap_iff_restricted():
    doc = algebra_to_json(heisenberg())
    del doc["pmap"]
    with pytest.raises(SpecError):
        algebra_from_json(doc)
    ord_doc = algebra_to_json(LieAlgebra(GF2, ["a", "b"], {}))
    ord_doc["pmap"] = [{}, {}]
    with pytest.raises(SpecError):
        algebra_from_json(ord_doc)


def test_spec_index_out_of_range():
    doc = algebra_to_json(heisenberg())
    doc["brackets"][0]["value"] = {"7": "1"}
    with pytest.raises(SpecError):
        algebra_from_json(doc)


def test_parse_reports_axiom_violation(tmp_path):
    doc = algebra_to_json(heisenberg())
    doc["pmap"][0] = {"0": "1"}  # e1^[2] = e1 breaks restrictedness
    path = tmp_path / "bad.alg"
    path.write_text(json.dumps(doc))
    with pytest.raises(AxiomError) as err:
        parse_spec(str(path))
    assert "restricted" in str(err.value)


def test_parse_syntax_error_position(tmp_path):
    path = tmp_path / "broken.alg"
    path.write_text("{\n  broken\n}")
    with pytest.raises(SpecError) as err:
        parse_spec(str(path))
    assert ":2:" in str(err.value)


def test_cli_axioms_ok(h3_file, capsys):
    assert main(["axioms", h3_file]) == 0
    assert "all axioms hold" in capsys.readouterr().out


def test_cli_axioms_bad_exits_2(tmp_path, capsys):
    doc = algebra_to_json(heisenberg())
    doc["pmap"][0] = {"0": "1"}
    path = tmp_path / "bad.alg"
    path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        main(["axioms", str(path)])
    assert exc.value.code == 2


# JSON of the wrong type in each place of an H3 spec file
MALFORMED_SPECS = {
    "brackets-not-a-list": lambda d: d.update(brackets=5),
    "bracket-entry-not-an-object": lambda d: d.update(brackets=[5]),
    "value-is-a-list": lambda d: d["brackets"][0].update(value=["1"]),
    "pmap-entry-is-a-list": lambda d: d["pmap"].__setitem__(0, ["1"]),
    "field-is-a-string": lambda d: d.update(field="gf2"),
    "field-without-modulus": lambda d: d["field"].pop("modulus"),
    "k-is-a-string": lambda d: d["field"].update(k="1"),
    "unknown-field-kind": lambda d: d["field"].update(kind="gf3"),
    "modulus-of-wrong-degree": lambda d: d["field"].update(modulus=[1, 0]),
    "names-not-strings": lambda d: d.update(names=[1, 2, 3]),
    # JSON true/false where an integer goes, and coordinate keys that are
    # not canonical: all of these parsed, and would not serialize back
    "format-is-true": lambda d: d.update(format=True),
    "k-is-true": lambda d: d["field"].update(k=True),
    "modulus-bit-is-true": lambda d: d["field"]["modulus"].__setitem__(1, True),
    "dim-is-true": lambda d: d.update(dim=True, names=["e1"], brackets=[], pmap=[{}]),
    "i-is-false": lambda d: d["brackets"][0].update(i=False),
    "j-is-true": lambda d: d["brackets"][0].update(j=True),
    "restricted-is-1": lambda d: d.update(restricted=1),
    "key-with-leading-zero": lambda d: d["brackets"][0].update(value={"02": "1"}),
    "key-with-plus-sign": lambda d: d["brackets"][0].update(value={"+2": "1"}),
    "key-with-space": lambda d: d["pmap"].__setitem__(0, {" 2": "1"}),
    "key-twice-in-two-spellings": lambda d: d["brackets"][0].update(value={"2": "1", "02": "1"}),
    # GF(2^k) scalars other than the one to_str writes, and zero entries,
    # which the writer drops
    "scalar-with-leading-zero": lambda d: d["brackets"][0].update(value={"2": "01"}),
    "scalar-with-hex-prefix": lambda d: d["brackets"][0].update(value={"2": "0x1"}),
    "scalar-with-space": lambda d: d["pmap"].__setitem__(0, {"2": " 1"}),
    "scalar-uppercase": lambda d: d.update(field={"kind": "gf2k", "k": 4,
                                                  "modulus": [1, 1, 0, 0, 1]},
                                           brackets=[{"i": 0, "j": 1, "value": {"2": "A"}}]),
    "zero-bracket-entry": lambda d: d["brackets"][0].update(value={"2": "0"}),
    "zero-pmap-entry": lambda d: d["pmap"].__setitem__(0, {"1": "0"}),
    # F2(X,Y) scalars other than the one to_str writes, and keys a field
    # object does not have: all of these parsed, and were dropped or
    # respelled on write
    "ratfunc2-scalar-with-spaces": lambda d: _over_ratfunc2(d, " X + 1"),
    "ratfunc2-scalar-out-of-order": lambda d: _over_ratfunc2(d, "1+X"),
    "ratfunc2-scalar-over-1": lambda d: _over_ratfunc2(d, "(X)/(1)"),
    "ratfunc2-field-with-unknown-key": lambda d: d.update(field={"kind": "ratfunc2",
                                                                 "junk": 7}),
    "gf2k-field-with-unknown-key": lambda d: d["field"].update(junk=7),
}


def _over_ratfunc2(doc, scalar):
    """H3 over F2(X,Y) with [e1, e2] = scalar·e3."""
    doc.update(field={"kind": "ratfunc2"},
               brackets=[{"i": 0, "j": 1, "value": {"2": scalar}}])


def test_cli_canonical_ratfunc2_scalar_parses(tmp_path, capsys):
    # the control for the three ratfunc2 spellings above: "X+1" itself parses
    doc = algebra_to_json(heisenberg())
    _over_ratfunc2(doc, "X+1")
    path = tmp_path / "ok.alg"
    path.write_text(json.dumps(doc))
    assert main(["axioms", str(path)]) == 0
    assert json.loads(serialize(parse_spec(str(path)))) == doc


@pytest.mark.parametrize("change", MALFORMED_SPECS.values(), ids=list(MALFORMED_SPECS))
def test_cli_malformed_spec_is_an_error(tmp_path, capsys, change):
    doc = algebra_to_json(heisenberg())
    change(doc)
    path = tmp_path / "bad.alg"
    path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        main(["axioms", str(path)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert main(["corpus", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error in bad.alg: ")


def test_cli_solvable_h3(h3_file, capsys):
    assert main(["solvable", h3_file]) == 0
    out = capsys.readouterr().out
    assert "ReachedZero" in out and "derived length 2" in out
    assert "8 -> 3 -> 0" in out


def test_cli_classify_n7(n7_file, capsys):
    assert main(["classify", n7_file]) == 0
    out = capsys.readouterr().out
    assert "not_solvable" in out
    assert "witness" in out
    # the oracle runs on u(L/I), I the core of dimension 2
    assert "oracle on u(L/I), dim L/I = 5: stabilized (15), dims 32 -> 15 -> 15" in out


def test_cli_classify_exits_3_when_the_core_fails_its_recheck(n7_file, h3_file,
                                                              monkeypatch, capsys):
    # a core that is all of N7 is not 2-nilpotent: the oracle must refuse
    # it, not run on u(L/L); H3 is 2-nilpotent, so all of it may serve
    import liesolv.classify as classify_module
    monkeypatch.setattr(classify_module, "nilpotent_core", lambda L: L.full_space())
    assert main(["classify", n7_file]) == 3
    assert "internal invariant violated" in capsys.readouterr().err
    assert main(["classify", h3_file]) == 0
    assert "oracle on u(L/I), dim L/I = 0: reached_zero" in capsys.readouterr().out


def test_cli_sz_index(n7_file, capsys):
    assert main(["sz-index", n7_file]) == 0
    assert "NotNilpotent" in capsys.readouterr().out


def test_cli_family_roundtrip(tmp_path, capsys):
    out = tmp_path / "fam.alg"
    assert main(["family", "fam-v", "--opt", "h_dim=2", "-o", str(out)]) == 0
    capsys.readouterr()
    L = parse_spec(str(out))
    assert L.n == 6
    assert serialize(L) == out.read_text()


def test_cli_family_random_deterministic(tmp_path):
    a, b = tmp_path / "a.alg", tmp_path / "b.alg"
    assert main(["family", "random", "--dim", "4", "--seed", "9", "-o", str(a)]) == 0
    assert main(["family", "random", "--dim", "4", "--seed", "9", "-o", str(b)]) == 0
    assert a.read_text() == b.read_text()


def test_cli_family_unknown_tag(capsys):
    assert main(["family", "nope"]) == 1


@pytest.mark.parametrize("argv", [
    ["fam-v", "--field", "gf3"],
    ["fam-v", "--field", "gfx"],
    ["fam-v", "--field", "gf0"],
    ["random", "--field", "gf0"],
    ["random", "--dim", "9"],
    ["random", "--dim", "0"],
    ["fam-v", "--opt", "h_dim=0"],
    ["fam-v", "--opt", "h_dim"],
    ["fam-v", "--opt", "bogus=1"],
    ["fam-v", "--opt", "field=gf4"],
])
def test_cli_family_bad_input_is_an_error(capsys, argv):
    assert main(["family"] + argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("tag,opt", [
    ("fam-v", "h_dim=x"),
    ("fam-v", "h_dim=2.0"),
    ("fam-v", "h_dim="),
    ("fam-i", "toral_action=yes"),
    ("fam-i", "toral_action=False"),
    ("fam-i", "toral_action=TRUE"),
])
def test_cli_family_opt_value_must_be_integer_or_boolean(capsys, tag, opt):
    assert main(["family", tag, "--opt", opt]) == 1
    key = opt.split("=")[0]
    assert capsys.readouterr().err.startswith(f"error: family option {key!r} takes an integer")


def test_cli_family_opt_values_parse(capsys):
    assert main(["family", "fam-i", "--opt", "toral_action=false", "--opt", "moved=1"]) == 0
    off = capsys.readouterr().out
    assert main(["family", "fam-i", "--opt", "toral_action=true", "--opt", "moved=1"]) == 0
    assert capsys.readouterr().out != off


def test_cli_json_deterministic(n7_file, capsys):
    assert main(["--json", "classify", n7_file]) == 0
    first = capsys.readouterr().out
    assert main(["--json", "classify", n7_file]) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["result"]["outcome"] == "not_solvable"
    assert doc["input_digest"]
    assert doc["budgets"] == {"ladder": 4}


def test_cli_ordinary_commands(tmp_path, capsys):
    L = LieAlgebra(GF2, ["e1", "e2", "e3"], {(0, 1): (0, 0, 1)})
    path = tmp_path / "oh3.alg"
    path.write_text(serialize(L))
    assert main(["ordinary", "classify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "solvable" in out
    assert main(["ordinary", "witness", str(path), "--witness-budget", "500"]) == 0
    assert "Exhausted" in capsys.readouterr().out
    assert main(["ordinary", "envelope", str(path), "--m-max", "2"]) == 0
    assert "stabilized: False" in capsys.readouterr().out


@pytest.fixture()
def ordinary_h3_file(tmp_path):
    path = tmp_path / "oh3.alg"
    path.write_text(serialize(LieAlgebra(GF2, ["e1", "e2", "e3"], {(0, 1): (0, 0, 1)})))
    return str(path)


def test_cli_ordinary_rejects_restricted(h3_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ordinary", "classify", h3_file])
    assert exc.value.code == 2
    assert "needs an ordinary algebra" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["classify", "solvable", "sz-index"])
def test_cli_restricted_commands_reject_ordinary(ordinary_h3_file, capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, ordinary_h3_file])
    assert exc.value.code == 2
    assert "needs a restricted algebra" in capsys.readouterr().err


def test_cli_corpus_lists_ordinary_files(tmp_path, capsys):
    # an ordinary file gets a row with its corollary_classify verdict and
    # agree None: the free class-2 algebra on 4 generators is refuted by a
    # witness, ordinary H3 is solvable by (ii); the restricted row is as before
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    names = [f"x{i+1}" for i in range(4)] + [f"z{i+1}{j+1}" for i, j in pairs]
    free2 = LieAlgebra(GF2, names, {p: tuple(int(t == 4 + k) for t in range(10))
                                    for k, p in enumerate(pairs)})
    (tmp_path / "free2-4.alg").write_text(serialize(free2))
    (tmp_path / "h3.alg").write_text(serialize(heisenberg()))
    (tmp_path / "oh3.alg").write_text(
        serialize(LieAlgebra(GF2, ["e1", "e2", "e3"], {(0, 1): (0, 0, 1)})))
    assert main(["--json", "corpus", str(tmp_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["files"] == [
        {"file": "free2-4.alg", "outcome": "not_solvable", "condition": None, "agree": None},
        {"file": "h3.alg", "outcome": "solvable", "condition": "i", "agree": True},
        {"file": "oh3.alg", "outcome": "solvable", "condition": "ii", "agree": None},
    ]
    assert doc["budgets"] == {}
    assert main(["corpus", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "free2-4.alg: not_solvable", "h3.alg: solvable (i) agree=True",
        "oh3.alg: solvable (ii)", "disagreements: 0"]


@pytest.mark.parametrize("brackets,outcome,condition", [
    ({(0, 1): (0, 0, 1)}, "solvable", "ii"),                 # Heisenberg
    ({(0, 2): (1, 0, 0, 0), (1, 2): (0, 1, 0, 0), (0, 1): (0, 0, 0, 1)},
     "solvable", "iv"),
], ids=["heisenberg", "eigenvector-pair"])
def test_cli_ordinary_classify_over_function_field(tmp_path, capsys, brackets,
                                                   outcome, condition):
    # over F2(X,Y) condition (ii) is decided by the rank test on L/Z, and
    # (iv) by the linear system for a toral y, which b2 solves here
    f = RatFunc2()
    n = max(len(v) for v in brackets.values())
    L = LieAlgebra(f, [f"b{i}" for i in range(n)],
                   {k: tuple(f.one if c else f.zero for c in v) for k, v in brackets.items()})
    path = tmp_path / "ord-ratfunc.alg"
    path.write_text(serialize(L))
    assert main(["--json", "ordinary", "classify", str(path),
                 "--witness-budget", "200"]) == 0
    res = json.loads(capsys.readouterr().out)["result"]
    assert (res["outcome"], res["condition"]) == (outcome, condition)


def test_cli_corpus(tmp_path, capsys):
    (tmp_path / "h3.alg").write_text(serialize(heisenberg()))
    (tmp_path / "n7.alg").write_text(serialize(negative_class2()))
    assert main(["corpus", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "disagreements: 0" in out


def test_cli_corpus_on_a_missing_path_or_a_file(tmp_path, capsys):
    (tmp_path / "h3.alg").write_text(serialize(heisenberg()))
    for path in (tmp_path / "missing", tmp_path / "h3.alg"):
        assert main(["corpus", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path} is not a directory\n"


def test_cli_example_7_1(capsys):
    assert main(["example-7-1"]) == 0
    out = capsys.readouterr().out
    assert "part 1" in out and "part 2" in out and "part 3" in out


def test_cli_ratfunc_family_file_roundtrip(tmp_path, capsys):
    out = tmp_path / "ex71.alg"
    assert main(["family", "example-7-1", "-o", str(out)]) == 0
    capsys.readouterr()
    L = parse_spec(str(out))
    assert serialize(L) == out.read_text()
    assert '"(Y)/(X)"' in out.read_text()
    assert main(["classify", str(out)]) == 0
    assert "not_solvable" in capsys.readouterr().out


def test_zero_dimensional_algebra_edge():
    from liesolv.algebra import RestrictedLieAlgebra
    from liesolv.classify import classify
    from liesolv.envelope import Envelope

    Z = RestrictedLieAlgebra(GF2, [], {}, [])
    assert classify(Z).outcome == "solvable"
    res = Envelope(Z).lie_derived_series()
    assert res.outcome == "reached_zero" and res.value == 1


def test_cli_sz_index_ratfunc_spec(tmp_path, capsys):
    # the RatFunc2 envelope runs on dict elements and generic elimination
    out = tmp_path / "ex71.alg"
    assert main(["family", "example-7-1", "-o", str(out)]) == 0
    capsys.readouterr()
    assert main(["--json", "sz-index", str(out)]) == 0
    res = json.loads(capsys.readouterr().out)["result"]
    assert res["nilpotent"] is False and res["index"] is None
    assert res["ideal_dim"] == 64 and res["witness"]


@pytest.mark.parametrize("command", ["solvable", "sz-index"])
def test_cli_refuses_huge_envelope(tmp_path, capsys, monkeypatch, command):
    from liesolv import envelope
    from liesolv.algebra import RestrictedLieAlgebra

    n = 20
    path = tmp_path / "abelian20.alg"
    path.write_text(serialize(RestrictedLieAlgebra(
        GF2, [f"a{i}" for i in range(n)], {}, [(0,) * n] * n)))

    def no_tables(*args):
        raise AssertionError("tables built for a refused envelope")

    monkeypatch.setattr(envelope, "_GenTables", no_tables)
    with pytest.raises(SystemExit) as exc:
        main([command, str(path)])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "error:" in err and f"limited to dimension {envelope.MAX_ENVELOPE_N}" in err


@pytest.mark.parametrize("q", [4, 8])
def test_cli_classify_family_v_certificate(tmp_path, capsys, q):
    # the (iv) certificate of family_v(h_dim=2), pinned so that a change
    # in the order in which x, y and H are visited shows here
    path = tmp_path / f"fam-v-h2-gf{q}.alg"
    path.write_text(serialize(family_v(gf(q), h_dim=2)))
    assert main(["--json", "classify", str(path)]) == 0
    res = json.loads(capsys.readouterr().out)["result"]
    assert (res["outcome"], res["condition"], res["core_dim"]) == ("solvable", "iv", 0)
    assert res["certificate"] == [
        "[x,y] = x and [y,h] = h hold exactly",
        "H is strongly abelian; [x,H] is central",
        "x = x",
        "y = x + y",
        "H basis: ['h1 + z1', 'h2 + z2']",
    ]


@pytest.fixture()
def fam_v_file(tmp_path):
    path = tmp_path / "fam-v.alg"
    path.write_text(serialize(family_v()))
    return str(path)


def _json_result(capsys, argv):
    assert main(["--json"] + argv) == 0
    return json.loads(capsys.readouterr().out)


def test_cli_solvable_max_steps_budget(fam_v_file, capsys):
    # one step of the series 16 -> 11 -> 3 -> 0 leaves it undecided
    res = _json_result(capsys, ["solvable", "--max-steps", "1", fam_v_file])["result"]
    assert res == {"dims": [16, 11], "outcome": "budget_exceeded", "value": 11}


def test_cli_classify_no_oracle(n7_file, capsys):
    res = _json_result(capsys, ["classify", "--no-oracle", n7_file])["result"]
    assert (res["outcome"], res["witness_kind"], res["oracle"]) == \
        ("not_solvable", "sz_witness", None)


def test_cli_classify_ladder_budget(fam_v_file, capsys):
    doc = _json_result(capsys, ["classify", "--ladder", "1", fam_v_file])
    res = doc["result"]
    assert doc["budgets"] == {"ladder": 1}
    assert (res["outcome"], res["condition"], res["extension_degree"]) == ("solvable", "iii", 1)
    assert res["oracle"]["outcome"] == "reached_zero"

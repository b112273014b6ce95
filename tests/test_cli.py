import json

import pytest

from liesolv.cli import main
from liesolv.families import heisenberg, negative_class2
from liesolv.fields import GF2, RatFunc2
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


def test_cli_json_deterministic(n7_file, capsys):
    assert main(["--json", "classify", n7_file]) == 0
    first = capsys.readouterr().out
    assert main(["--json", "classify", n7_file]) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["result"]["outcome"] == "not_solvable"
    assert doc["input_digest"]


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


def test_cli_corpus_skips_ordinary_specs(tmp_path, capsys):
    (tmp_path / "h3.alg").write_text(serialize(heisenberg()))
    (tmp_path / "oh3.alg").write_text(
        serialize(LieAlgebra(GF2, ["e1", "e2", "e3"], {(0, 1): (0, 0, 1)})))
    assert main(["--json", "corpus", str(tmp_path)]) == 0
    rows = json.loads(capsys.readouterr().out)["result"]["files"]
    assert [r["file"] for r in rows] == ["h3.alg"]


@pytest.mark.parametrize("brackets,skipped", [
    ({(0, 1): (0, 0, 1)}, "(ii)"),                               # Heisenberg
    ({(0, 2): (1, 0, 0, 0), (1, 2): (0, 1, 0, 0), (0, 1): (0, 0, 0, 1)}, "(iv)"),
], ids=["heisenberg", "eigenvector-pair"])
def test_cli_ordinary_classify_over_function_field(tmp_path, capsys, brackets, skipped):
    # the enumerating conditions cannot run over F2(X,Y); they count as
    # not decided instead of crashing, and the reason says which one
    f = RatFunc2()
    n = max(len(v) for v in brackets.values())
    L = LieAlgebra(f, [f"b{i}" for i in range(n)],
                   {k: tuple(f.one if c else f.zero for c in v) for k, v in brackets.items()})
    path = tmp_path / "ord-ratfunc.alg"
    path.write_text(serialize(L))
    assert main(["--json", "ordinary", "classify", str(path),
                 "--witness-budget", "200"]) == 0
    res = json.loads(capsys.readouterr().out)["result"]
    assert res["outcome"] == "inconclusive"
    assert f"condition {skipped} was not decided" in res["reason"]


def test_cli_corpus(tmp_path, capsys):
    (tmp_path / "h3.alg").write_text(serialize(heisenberg()))
    (tmp_path / "n7.alg").write_text(serialize(negative_class2()))
    assert main(["corpus", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "disagreements: 0" in out


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

import json
from functools import lru_cache

import pytest

import liesupp.lattice as lattice_mod
from liesupp.classify import ALL_PREDICATES, classify_algebra
from liesupp.cli import EXIT_INTERNAL, PROPERTY_NAMES, main
from liesupp.formats import algebra_to_doc
from liesupp.liealg import abelian, catalog, counterexample_double, heisenberg


def write_doc(tmp_path, doc, name="alg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_validate_round_trip(tmp_path, capsys):
    out = str(tmp_path / "h.json")
    code, _, _ = run(capsys, ["catalog", "heisenberg", "-p", "2", "--out", out])
    assert code == 0
    code, _, err = run(capsys, ["validate", out])
    assert code == 0 and "ok" in err
    doc = json.loads(open(out).read())
    assert doc == algebra_to_doc(heisenberg(2))


def test_classify_report(tmp_path, capsys):
    path = write_doc(tmp_path, algebra_to_doc(heisenberg(2)))
    code, out, _ = run(capsys, ["classify", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["predicates"]["c_supplemented"] is True
    assert doc["predicates"]["completely_factorisable"] is False
    assert doc["lattice"]["subalgebras"] == 12
    assert doc["witnesses"]["phi"]["dim"] == 1
    assert "algebra_hash" in doc


def test_classify_report_deterministic_modulo_timing(tmp_path, capsys):
    path = write_doc(tmp_path, algebra_to_doc(counterexample_double(2)))
    docs = []
    for _ in range(2):
        code, out, _ = run(capsys, ["classify", path])
        assert code == 0
        d = json.loads(out)
        d.pop("timing")
        docs.append(d)
    assert docs[0] == docs[1]


def test_check_property_exit_codes(tmp_path, capsys):
    good = write_doc(tmp_path, algebra_to_doc(heisenberg(2)), "good.json")
    bad = write_doc(tmp_path, algebra_to_doc(counterexample_double(2)), "bad.json")
    code, out, _ = run(capsys, ["check", good, "--property", "c-supplemented"])
    assert code == 0 and json.loads(out)["holds"] is True
    code, out, _ = run(capsys, ["check", bad, "--property", "c-supplemented"])
    assert code == 1
    doc = json.loads(out)
    assert doc["holds"] is False
    assert doc["witnesses"]["c_supplemented_failing"]["rows"] == [[0, 0, 1, 0, 0, 1]]


@lru_cache(maxsize=None)
def _predicates(name, p):
    return classify_algebra(catalog(name, p)).predicates


@pytest.mark.parametrize("algebra", [("counterexample_double", 2), ("sl2", 3)])
@pytest.mark.parametrize("name", ALL_PREDICATES)
def test_check_every_property(tmp_path, capsys, algebra, name):
    path = write_doc(tmp_path, algebra_to_doc(catalog(*algebra)))
    prop = name.lower().replace("_", "-")
    code, out, _ = run(capsys, ["check", path, "--property", prop])
    holds = json.loads(out)["holds"]
    assert code == (0 if holds else 1)
    assert holds == _predicates(*algebra)[name]


def test_zero_algebra(tmp_path, capsys):
    path = write_doc(tmp_path, {"field": {"prime": 2}, "dim": 0, "brackets": []})
    code, out, _ = run(capsys, ["classify", path])
    assert code == 0
    predicates = json.loads(out)["predicates"]
    assert predicates["completely_factorisable"] is True
    assert predicates["c_supplemented"] is True
    for prop in PROPERTY_NAMES:
        code, _, _ = run(capsys, ["check", path, "--property", prop])
        assert code in (0, 1), prop


def test_check_subspace_level(tmp_path, capsys):
    bad = write_doc(tmp_path, algebra_to_doc(counterexample_double(2)))
    code, out, _ = run(
        capsys,
        ["check", bad, "--property", "c-supplemented", "--subspace", "0 0 1 0 0 1"],
    )
    assert code == 1 and json.loads(out)["holds"] is False
    code, out, _ = run(
        capsys,
        ["check", bad, "--property", "c-supplemented", "--subspace", "0 0 1 0 0 0"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["holds"] is True and "supplement" in doc
    code, out, _ = run(
        capsys, ["check", bad, "--property", "ideal", "--subspace", "0 0 1 0 0 0"]
    )
    assert code == 0
    code, out, _ = run(
        capsys, ["check", bad, "--property", "core", "--subspace", "0 0 1 0 0 1"]
    )
    assert code == 0 and json.loads(out)["core"]["dim"] == 0


def test_invalid_inputs_exit_2(tmp_path, capsys):
    # non-Jacobi table: [x,y] = y, [y,z] = z leaves a residual of z on (x,y,z)
    doc = {
        "field": {"prime": 2},
        "dim": 3,
        "brackets": [
            {"i": 0, "j": 1, "coeffs": {"1": 1}},
            {"i": 1, "j": 2, "coeffs": {"2": 1}},
        ],
    }
    path = write_doc(tmp_path, doc)
    code, _, err = run(capsys, ["validate", path])
    assert code == 2 and "(0, 1, 2)" in err
    code, _, err = run(capsys, ["validate", str(tmp_path / "missing.json")])
    assert code == 2
    bad_field = write_doc(
        tmp_path, {"field": {"prime": 4}, "dim": 1, "brackets": {}}, "f4.json"
    )
    code, _, err = run(capsys, ["validate", bad_field])
    assert code == 2
    good = write_doc(tmp_path, algebra_to_doc(heisenberg(2)), "h.json")
    code, _, err = run(capsys, ["check", good, "--property", "frobby"])
    assert code == 2 and "unknown property" in err


def test_cap_exceeded_exit_3(tmp_path, capsys):
    code, _, err = run(
        capsys, ["census", "-p", "3", "-n", "3", "--table-cap", "100"]
    )
    assert code == 3 and "cap exceeded" in err
    path = write_doc(tmp_path, algebra_to_doc(heisenberg(2)))  # 16 subspaces
    code, _, err = run(
        capsys,
        ["check", path, "--property", "c-supplemented", "--subspace", "0 0 1", "--cap", "10"],
    )
    assert code == 3 and "cap exceeded" in err


def test_census_counts(capsys):
    code, out, _ = run(capsys, ["census", "-p", "2", "-n", "3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["per_dim"]["3"] == {"candidates": 512, "algebras": 120}


def test_verify_confirmed_and_refuted(capsys):
    code, out, _ = run(capsys, ["verify", "tsupp", "-p", "2", "-n", "3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["confirmed"] is True and doc["examined"] == 125
    code, out, _ = run(capsys, ["verify", "csupp_dsum", "-p", "2", "-n", "3"])
    assert code == 1
    doc = json.loads(out)
    assert doc["confirmed"] is False and len(doc["counterexamples"]) == 3


def test_verify_no_dedup(capsys):
    code, out, _ = run(
        capsys, ["verify", "csupp_dsum", "-p", "2", "-n", "2", "--no-dedup"]
    )
    doc = json.loads(out)
    assert doc["universe"]["dedup_by_isomorphism"] is False


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_modulus_beyond_int64_exit_2(tmp_path, capsys):
    # 1008209 is the least prime whose dim-3 brackets could overflow int64
    code, _, err = run(capsys, ["catalog", "sl2", "-p", "1008209"])
    assert code == 2 and "overflow" in err
    doc = {"field": {"prime": 1008209}, "dim": 3, "brackets": []}
    code, _, err = run(capsys, ["validate", write_doc(tmp_path, doc)])
    assert code == 2 and "overflow" in err
    for argv in (
        ["census", "-p", "1008209", "-n", "3"],
        ["census", "-p", "1008209", "-n", "3", "--samples", "3"],
    ):
        code, _, err = run(capsys, argv)
        assert code == 2 and "overflow" in err
    # 2097169 is the least prime at or above the PrimeField limit
    for argv in (
        ["census", "-p", "2097169", "-n", "1"],
        ["verify", "pfrat", "-p", "2097169", "-n", "3"],
    ):
        code, _, err = run(capsys, argv)
        assert code == 2 and "limit" in err


def test_pair_dedup_dimension_limit_exit_3(capsys):
    code, _, err = run(
        capsys, ["verify", "ldsum", "-p", "2", "-n", "4", "--samples", "40"]
    )
    assert code == 3 and "--no-dedup" in err


def test_unsolvable_radical_exit_4(tmp_path, capsys, monkeypatch):
    # every proper ideal passes as solvable, so the radical becomes all of
    # the abelian plane, which then fails its own check
    monkeypatch.setattr(lattice_mod, "_space_solvable", lambda L, u: u.dim < L.dim)
    path = write_doc(tmp_path, algebra_to_doc(abelian(2, 2)))
    code, out, err = run(capsys, ["classify", path])
    assert code == EXIT_INTERNAL == 4
    assert out == "" and "internal error: radical is not solvable" in err


def test_plucker_overflow_guard_exit_4(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(lattice_mod, "comb", lambda n, k: 2**63)
    path = write_doc(tmp_path, algebra_to_doc(heisenberg(2)))
    code, out, err = run(capsys, ["check", path, "--property", "c-supplemented"])
    assert code == EXIT_INTERNAL
    assert out == "" and "internal error" in err and "overflow" in err


def test_workers_flag_removed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "pequ", "-p", "2", "-n", "2", "-w", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: -w 2" in capsys.readouterr().err

import json
import os
import re
import shlex
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

import liesupp.cli as cli_mod
import liesupp.lattice as lattice_mod
from liesupp.classify import ALL_PREDICATES, classify_algebra
from liesupp.cli import EXIT_INTERNAL, PROPERTY_NAMES, main
from liesupp.formats import algebra_to_doc
from liesupp.liealg import abelian, catalog, counterexample_double, heisenberg, nonabelian2


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
    # coeffs must map indices to integers: a list or a null is malformed
    # input (exit 2), not a false property (exit 1)
    for coeffs in ([0, 1], {"1": None}):
        entry = {"i": 0, "j": 1, "coeffs": coeffs}
        doc = {"field": {"prime": 2}, "dim": 2, "brackets": [entry]}
        code, _, err = run(capsys, ["validate", write_doc(tmp_path, doc, "coeffs.json")])
        assert code == 2 and "(0,1)" in err
    # prime, dim, i, j and the coefficient values must be JSON integers: a
    # float or a boolean is refused, not truncated or read as 0 or 1
    entry = {"i": 0, "j": 1, "coeffs": {"1": 1}}
    base = {"field": {"prime": 2}, "dim": 2, "brackets": [entry]}
    bad = [
        {
            "field": {"prime": 2.9},
            "dim": 2.2,
            "brackets": [{"i": 0.5, "j": 1, "coeffs": {"1": 1.5}}],
        },
        {**base, "field": {"prime": 2.9}},
        {**base, "field": {"prime": 2.0}},
        {**base, "field": {"prime": True}},
        {**base, "dim": 2.2},
        {**base, "dim": True},
    ]
    for key, value in (("i", 0.5), ("i", False), ("j", 1.0), ("j", True)):
        bad.append({**base, "brackets": [{**entry, key: value}]})
    for value in (1.5, 1.0, True):
        bad.append({**base, "brackets": [{"i": 0, "j": 1, "coeffs": {"1": value}}]})
    for doc in bad:
        code, out, _ = run(capsys, ["validate", write_doc(tmp_path, doc, "nonint.json")])
        assert (code, out) == (2, ""), doc
    code, _, _ = run(capsys, ["validate", write_doc(tmp_path, base, "int.json")])
    assert code == 0


def test_check_subspace_supplement_witness(tmp_path, capsys):
    """The witness of check --subspace is the first complement where there
    is one, and otherwise the first subalgebra of dimension codim + dim core
    that contains the core and spans L with the subspace, which meets it in
    exactly the core.  Here the ideal b = <e2, e3> of heisenberg + GF(2),
    with no complement, gets L."""
    path = write_doc(tmp_path, algebra_to_doc(heisenberg(2).direct_sum(abelian(2, 1))))
    code, out, _ = run(
        capsys, ["check", path, "--property", "c-supplemented", "--subspace", "1 0 0 0"]
    )
    doc = json.loads(out)
    assert code == 0 and doc["supplement"]["dim"] == 3 and doc["meets_in"]["dim"] == 0
    code, out, _ = run(
        capsys, ["check", path, "--property", "c-supplemented", "--subspace", "0 0 1 0; 0 0 0 1"]
    )
    doc = json.loads(out)
    assert code == 0 and doc["holds"] is True
    assert doc["supplement"]["rows"] == [[int(i == j) for j in range(4)] for i in range(4)]
    assert doc["meets_in"] == doc["core"] == doc["subspace"]
    # span(e0, e4) of nonabelian2 + heisenberg over GF(2) has no complement,
    # so its witness comes from the core test: the supplement
    # span(e1, e2, e3, e4), meeting it in its core span(e4)
    L = catalog("nonabelian2", 2).direct_sum(heisenberg(2))
    path = write_doc(tmp_path, algebra_to_doc(L), "n2h.json")
    code, out, _ = run(
        capsys, ["check", path, "--property", "c-supplemented", "--subspace", "1 0 0 0 0; 0 0 0 0 1"]
    )
    doc = json.loads(out)
    e = [[int(i == j) for j in range(5)] for i in range(5)]
    assert code == 0 and doc["holds"] and doc["supplement"]["rows"] == e[1:]
    assert doc["meets_in"] == doc["core"] == {"dim": 1, "rows": [e[4]]}


# classify in a fresh interpreter, reporting its exit code and its peak
# resident set in KB: VmHWM of Linux, the ru_maxrss of the interpreter's own
# memory.  ru_maxrss itself would count the pages of the pytest process
# that started it, which exec carries over into the child's high-water mark.
PEAK_RSS_SCRIPT = """
import sys
from liesupp.cli import main
code = main(['classify', sys.argv[1], '--out', sys.argv[2]])
with open('/proc/self/status') as status:
    print(code, next(line.split()[1] for line in status if line.startswith('VmHWM:')))
"""


@pytest.mark.parametrize(
    "algebra,bound_kb",
    [
        # every shape of GF(2)^8 is kept, in uint8; until the lattice stopped
        # building whole dimensions this crashed with an 18.2 GiB allocation
        (lambda: abelian(2, 8), 200_000),
        # the [v, e_j] table of GF(31)^4 is kept in uint8, built in row blocks
        (lambda: nonabelian2(31).direct_sum(nonabelian2(31)), 150_000),
    ],
    ids=["abelian(8)/GF(2)", "nonabelian2+nonabelian2/GF(31)"],
)
def test_classify_peak_rss(tmp_path, algebra, bound_kb):
    """classify exits 0 and its interpreter's peak resident set stays under
    the bound."""
    path = write_doc(tmp_path, algebra_to_doc(algebra()))
    src = str(Path(cli_mod.__file__).resolve().parents[1])
    got = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_SCRIPT, path, str(tmp_path / "report.json")],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    code, rss = map(int, got.stdout.split())
    assert code == 0 and rss < bound_kb


def test_memory_error_exit_3(tmp_path, capsys, monkeypatch):
    """A MemoryError (numpy's allocation failures are one) exits 3 with
    "out of memory" on stderr and no report, not 1, the code of a false
    verdict."""

    def allocate(*args, **kwargs):
        raise MemoryError("Unable to allocate 18.2 GiB for an array")

    path = write_doc(tmp_path, algebra_to_doc(heisenberg(2)))
    for name, argv in (
        ("classify_algebra", ["classify", path]),
        ("c_supplement", ["check", path, "--property", "c-supplemented", "--subspace", "1 0 0"]),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(cli_mod, name, allocate)
            code, out, err = run(capsys, argv)
        assert code == 3 and out == ""
        assert err.startswith("out of memory: ") and "18.2 GiB" in err


def test_cap_exceeded_exit_3(tmp_path, capsys):
    for argv in (
        ["census", "-p", "3", "-n", "3", "--table-cap", "100"],
        # 3^24 dim-4 and 2^50 dim-5 tables lie past the default table cap
        ["census", "-p", "3", "-n", "4"],
        ["verify", "pequ", "-p", "2", "-n", "5"],
        # every lattice of a campaign comes from an Analyzer under --cap
        ["verify", "pequ", "-p", "2", "-n", "3", "--cap", "1"],
    ):
        code, out, err = run(capsys, argv)
        assert code == 3 and out == "" and "cap exceeded" in err, argv
    path = write_doc(tmp_path, algebra_to_doc(heisenberg(2)))  # 16 subspaces
    code, _, err = run(
        capsys,
        ["check", path, "--property", "c-supplemented", "--subspace", "0 0 1", "--cap", "10"],
    )
    assert code == 3 and "cap exceeded" in err


@pytest.mark.parametrize("command", ["catalog", "classify", "check", "census", "verify"])
def test_unwritable_out_exit_2(tmp_path, capsys, command):
    """An --out path that cannot be opened for writing (here in a directory
    that does not exist) exits 2 with one stderr line and no traceback, not
    1, the code of a false verdict, and writes no report."""
    path = write_doc(tmp_path, algebra_to_doc(heisenberg(2)))
    argv = {
        "catalog": ["catalog", "sl2", "--field", "3"],
        "classify": ["classify", path],
        "check": ["check", path, "--property", "c-supplemented"],
        "census": ["census", "-p", "2", "-n", "2"],
        "verify": ["verify", "cE", "-p", "2", "-n", "2"],
    }[command]
    out = tmp_path / "no" / "such" / "x.json"
    code, stdout, err = run(capsys, argv + ["--out", str(out)])
    assert code == 2 and stdout == "" and not out.exists()
    assert err.startswith(f"cannot write {out}: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "cE", "--field", "2", "--dim", "0"],
        ["verify", "cE", "--field", "2", "--dim", "-2"],
        ["verify", "cE", "--field", "2", "--dim", "3", "--samples", "-4"],
        ["verify", "csupp_dsum", "--field", "2", "--dim", "2", "--samples", "0"],
        ["census", "--field", "2", "--dim", "0"],
        ["census", "--field", "2", "--dim", "2", "--samples", "0"],
    ],
)
def test_empty_universe_exit_2(capsys, argv):
    """A universe with no dimension or no sample is refused with exit 2,
    not reported as examined 0 and confirmed."""
    code, out, err = run(capsys, argv)
    assert code == 2 and out == "" and err.startswith("invalid input: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["census", "-p", "2", "-n", "2", "--samples", "2", "--seed", "99999999999999999999999"],
        ["verify", "pfrat", "-p", "2", "-n", "2", "--samples", "2", "--seed", str(2**64)],
        ["verify", "pfrat", "-p", "2", "-n", "2", "--samples", "2", "--seed", "-1"],
    ],
)
def test_seed_outside_64_bits_exit_2(capsys, argv):
    """A random universe's seed outside [0, 2^64), which its (seed, counter)
    sample keys cannot hold, is refused with exit 2 and one line."""
    code, out, err = run(capsys, argv)
    assert code == 2 and out == "" and err.startswith("invalid input: ")
    assert err.count("\n") == 1


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
        capsys, ["verify", "ldsum", "-p", "2", "-n", "5", "--samples", "40"]
    )
    assert code == 3 and "--no-dedup" in err


@pytest.mark.parametrize("command", ["census", "verify pequ"])
def test_dim4_opt_in_flag_removed(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main(command.split() + ["-p", "2", "-n", "2", "--dim4-opt-in"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --dim4-opt-in" in capsys.readouterr().err


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", readme, re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("liesupp ")]
    refuted = [line for line in lines if line.startswith("liesupp verify csupp_dsum")]
    assert len(lines) == 9 and len(refuted) == 1
    monkeypatch.chdir(tmp_path)
    for line in lines:
        expected = 1 if line in refuted else 0
        assert main(shlex.split(line)[1:]) == expected, line
        capsys.readouterr()


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

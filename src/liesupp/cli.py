"""Command-line front end.

Exit codes: 0 success / property holds / statement confirmed; 1 property
false or counterexamples found (report still emitted); 2 invalid input, or
an --out file that cannot be written; 3 cap exceeded, or out of memory
(MemoryError: the input is under the caps but its arrays do not fit);
4 internal error (a fault in liesupp, not in the input).
Diagnostics go to stderr, reports to stdout or --out.
"""
from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from typing import Dict, Optional

from . import census as census_mod
from .classify import ALL_PREDICATES, Analyzer, c_supplement, classify_algebra
from .formats import (
    DocumentError,
    TOOL_VERSION,
    algebra_from_doc,
    algebra_hash,
    algebra_to_doc,
    jsonable,
    space_doc,
)
from .gfp import InternalError
from .lattice import core
from .liealg import CATALOG, InvalidAlgebraError, JacobiError, LieAlgebra, catalog
from .subspace import CapExceededError, DEFAULT_SUBSPACE_CAP, Subspace

EXIT_OK = 0
EXIT_PROPERTY_FALSE = 1
EXIT_INVALID = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4

PROPERTY_NAMES = {n.lower().replace("_", "-"): n for n in ALL_PREDICATES}
SUBSPACE_PROPERTIES = ("subalgebra", "ideal", "c-supplemented", "core")


class OutputError(Exception):
    """The --out file could not be written."""


def _emit(doc: Dict, out: Optional[str]):
    blob = json.dumps(doc, indent=2) + "\n"
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(blob)
        except OSError as exc:
            raise OutputError(f"cannot write {out}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(blob)


def _load_algebra(path: str) -> LieAlgebra:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path} is not valid JSON: {exc}") from None
    return algebra_from_doc(doc)


def _parse_subspace(text: str, L: LieAlgebra) -> Subspace:
    vectors = []
    for part in text.split(";"):
        part = part.replace(",", " ").strip()
        if not part:
            continue
        coords = [int(x) for x in part.split()]
        if len(coords) != L.dim:
            raise DocumentError(
                f"subspace generator has {len(coords)} coordinates, algebra has dim {L.dim}"
            )
        vectors.append(coords)
    return Subspace.span(vectors, L.dim, L.p)


# -- subcommands ------------------------------------------------------------


def cmd_validate(args) -> int:
    _load_algebra(args.file)
    print("ok", file=sys.stderr)
    return EXIT_OK


def cmd_classify(args) -> int:
    L = _load_algebra(args.file)
    predicates = None
    if args.predicates:
        predicates = tuple(
            PROPERTY_NAMES.get(name.strip(), name.strip())
            for name in args.predicates.split(",")
        )
    report = classify_algebra(L, predicates=predicates, analyzer=Analyzer(args.cap))
    doc = algebra_to_doc(L)
    out = {
        "tool_version": TOOL_VERSION,
        "algebra": doc,
        "algebra_hash": algebra_hash(doc),
        "predicates": report.predicates,
        "witnesses": jsonable(report.witnesses),
        "lattice": report.lattice_stats,
        "degenerate": report.degenerate,
        "timing": {"elapsed_s": round(report.elapsed_s, 3)},
    }
    _emit(out, args.out)
    return EXIT_OK


def cmd_check(args) -> int:
    L = _load_algebra(args.file)
    prop = args.property
    if args.subspace is not None:
        return _check_subspace(L, prop, args)
    key = PROPERTY_NAMES.get(prop)
    if key is None:
        raise DocumentError(
            f"unknown property {prop!r}; known: {sorted(PROPERTY_NAMES)}"
        )
    report = classify_algebra(L, predicates=(key,), analyzer=Analyzer(args.cap))
    verdict = report.predicates[key]
    out = {
        "property": prop,
        "holds": verdict,
        "witnesses": jsonable(report.witnesses),
    }
    _emit(out, args.out)
    return EXIT_OK if verdict else EXIT_PROPERTY_FALSE


def _check_subspace(L: LieAlgebra, prop: str, args) -> int:
    space = _parse_subspace(args.subspace, L)
    out: Dict = {"property": prop, "subspace": space_doc(space)}
    if prop == "subalgebra":
        verdict = L.is_subalgebra(space)
    elif prop == "ideal":
        verdict = L.is_ideal(space)
    elif prop == "core":
        out["core"] = space_doc(core(L, space))
        verdict = True
    elif prop == "c-supplemented":
        if not L.is_subalgebra(space):
            raise DocumentError("given subspace is not a subalgebra")
        lattice = Analyzer(args.cap).lattice(L)
        supplement = c_supplement(L, lattice, space)
        verdict = supplement is not None
        if verdict:
            out["supplement"] = space_doc(supplement)
            out["meets_in"] = space_doc(space.intersect(supplement))
            out["core"] = space_doc(core(L, space))
    else:
        raise DocumentError(
            f"property {prop!r} does not take a subspace; subspace-level "
            f"properties: {SUBSPACE_PROPERTIES}"
        )
    out["holds"] = verdict
    _emit(out, args.out)
    return EXIT_OK if verdict else EXIT_PROPERTY_FALSE


def cmd_catalog(args) -> int:
    params = {}
    if args.n is not None:
        params["n"] = args.n
    if args.gamma0 is not None:
        params["gamma0"] = args.gamma0
    try:
        L = catalog(args.name, args.field, **params)
    except KeyError as exc:
        raise DocumentError(str(exc)) from None
    except TypeError as exc:
        raise DocumentError(f"bad parameters for {args.name}: {exc}") from None
    _emit(algebra_to_doc(L), args.out)
    return EXIT_OK


def _spec_from_args(args) -> census_mod.CensusSpec:
    mode = "exhaustive" if args.samples is None else "random"
    return census_mod.CensusSpec(
        p=args.field,
        max_dim=args.dim,
        mode=mode,
        count=args.samples or 0,
        seed=args.seed,
        table_cap=args.table_cap,
    )


def cmd_census(args) -> int:
    spec = _spec_from_args(args)
    per_dim: Dict[int, Dict[str, int]] = {
        n: {"candidates": 0, "algebras": 0} for n in spec.dims()
    }
    algebras = []
    if spec.mode == "exhaustive":
        for n in spec.dims():
            per_dim[n]["candidates"] = spec.p ** census_mod.table_digit_count(n)
    for entry in census_mod.generate(spec):
        n = entry.algebra.dim
        per_dim[n]["algebras"] += 1
        if args.emit_algebras:
            algebras.append(algebra_to_doc(entry.algebra))
    out = {
        "universe": spec.describe(),
        "per_dim": {str(n): v for n, v in per_dim.items()},
    }
    if args.emit_algebras:
        out["algebras"] = algebras
    _emit(out, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    spec = _spec_from_args(args)
    log = census_mod.verify(
        args.theorem, spec, dedup=not args.no_dedup, analyzer=Analyzer(args.cap)
    )
    _emit(log.to_doc(), args.out)
    return EXIT_OK if log.confirmed else EXIT_PROPERTY_FALSE


# -- argument parsing -------------------------------------------------------


def _add_census_flags(sp):
    sp.add_argument("--field", "-p", type=int, required=True, help="prime modulus")
    sp.add_argument("--dim", "-n", type=int, required=True, help="maximum dimension")
    sp.add_argument(
        "--samples",
        type=int,
        default=None,
        help="random mode: sample count (the universe is exhaustive without it)",
    )
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--table-cap", type=int, default=census_mod.DEFAULT_TABLE_CAP)


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args leaves it
    as it was, so main reuses it."""
    ap = argparse.ArgumentParser(
        prog="liesupp",
        description="Exact structure analysis of Lie algebras over prime fields.",
    )
    ap.add_argument("--version", action="version", version=TOOL_VERSION)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="validate an algebra document")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("classify", help="evaluate structural predicates")
    sp.add_argument("file")
    sp.add_argument("--predicates", help=f"comma list from {ALL_PREDICATES}")
    sp.add_argument("--cap", type=int, default=DEFAULT_SUBSPACE_CAP)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("check", help="check one property (optionally of a subspace)")
    sp.add_argument("file")
    sp.add_argument("--property", required=True)
    sp.add_argument(
        "--subspace",
        help="generators, coords space-separated, vectors ';'-separated",
    )
    sp.add_argument("--cap", type=int, default=DEFAULT_SUBSPACE_CAP)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("catalog", help="emit a named algebra as a document")
    sp.add_argument("name", choices=sorted(CATALOG))
    sp.add_argument("--field", "-p", type=int, required=True)
    sp.add_argument("--n", type=int, help="dimension (abelian)")
    sp.add_argument("--gamma0", type=int, help="parameter for L1_gamma")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_catalog)

    sp = sub.add_parser("census", help="generate a universe and report counts")
    _add_census_flags(sp)
    sp.add_argument("--emit-algebras", action="store_true")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_census)

    sp = sub.add_parser("verify", help="verify a structural statement over a universe")
    sp.add_argument(
        "theorem",
        choices=sorted(census_mod.CHECKERS) + list(census_mod.PAIR_THEOREMS),
    )
    _add_census_flags(sp)
    sp.add_argument("--cap", type=int, default=DEFAULT_SUBSPACE_CAP)
    sp.add_argument("--no-dedup", action="store_true",
                    help="check every table instead of one per isomorphism "
                    "class; pair universes keep isomorphic duplicates")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except JacobiError as exc:
        print(f"invalid algebra: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (DocumentError, InvalidAlgebraError, ValueError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OutputError as exc:
        print(exc, file=sys.stderr)
        return EXIT_INVALID
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_CAP
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

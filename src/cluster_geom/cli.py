"""Command-line front end: JSON seed files in, JSON reports out.

Subcommands: mutate, explore, laurent-check, picard, rank2.  All output is
canonical (sorted keys, stable ordering) so repeated runs are byte-identical.

Exit codes: 0 success; 2 invalid input or violated precondition; 3 a resource
cap was hit (explore still reports its truncated graph); 4 Laurent-phenomenon
violation (which would indicate a bug, not new mathematics), with nothing on
stdout and the path on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .errors import (
    ClusterGeomError,
    LaurentViolation,
    ResourceLimitExceeded,
    ValidationError,
)
from .explore import explore, root_node, verify_laurent_A, verify_laurent_X
from .intmat import Matrix
from .rank2 import (
    Rank2Data,
    build_seed,
    fg_failure_flag,
    invariance_check,
    non_fg_flag,
    symmetric_form,
)
from .seeds import (
    FixedData,
    Seed,
    is_coprime_seed,
    mutate_along,
    picard_invariants,
    totally_coprime_sufficient,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_TRUNCATED = 3
EXIT_LAURENT = 4


def _parse_entry(x):
    # a bool passes as an int, and Matrix refuses it
    if isinstance(x, int):
        return x
    if isinstance(x, str):
        try:
            if "/" in x:
                p, q = x.split("/")
                return Fraction(int(p), int(q))
            return int(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"bad matrix entry {x!r}: {exc}")
    raise ValidationError(f"matrix entries must be integers or 'p/q' strings, got {x!r}")


def _parse_matrix(rows, what):
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ValidationError(f"'{what}' must be a list of rows")
    return Matrix([[_parse_entry(x) for x in row] for row in rows])


def _encode_entry(x):
    if isinstance(x, int):
        return x
    return f"{x.numerator}/{x.denominator}"


def _encode_matrix(m):
    return [[_encode_entry(x) for x in row] for row in m.data]


_SKEW_KEYS = ("rank", "skew", "d", "frozen", "basis")
_PLANE_KEYS = ("w", "nu")


def load_seed_file(path):
    """Parse a seed file, which holds either a skew form (rank, skew, d,
    frozen, basis) or plane data (w, nu), never fields of both; returns
    (Seed, Rank2Data or None).  Only the JSON rules are checked here: the
    values go as they are to FixedData or Rank2Data, which check them."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # also bad UTF-8, huge ints
            raise ValidationError(f"invalid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ValidationError("seed file must be a JSON object")
    unknown = [key for key in doc if key not in _SKEW_KEYS + _PLANE_KEYS]
    if unknown:
        raise ValidationError(f"seed file has unknown key(s): {', '.join(map(repr, unknown))}")
    plane = [key for key in _PLANE_KEYS if key in doc]
    if plane:
        mixed = [key for key in _SKEW_KEYS if key in doc]
        if mixed:
            raise ValidationError(
                f"seed file mixes plane data ({', '.join(plane)}) with "
                f"skew-form fields ({', '.join(mixed)})"
            )
    for key in ("w",) if plane else ("rank", "skew"):
        if key not in doc:
            raise ValidationError(f"seed file is missing '{key}'")
    null = [key for key, value in doc.items() if value is None]
    if null:
        raise ValidationError(f"seed file has null field(s): {', '.join(map(repr, null))}")
    if plane:
        data = Rank2Data(doc["w"], doc.get("nu"))
        return build_seed(data), data
    skew = _parse_matrix(doc["skew"], "skew")
    fixed = FixedData(doc["rank"], skew, doc.get("d"), doc.get("frozen", ()))
    basis = (
        _parse_matrix(doc["basis"], "basis") if "basis" in doc
        else Matrix.identity(fixed.n)
    )
    return Seed(fixed, basis), None


def seed_to_json(seed):
    return {
        "rank": seed.n,
        "skew": _encode_matrix(seed.fixed.skew),
        "d": list(seed.fixed.d),
        "frozen": sorted(seed.fixed.frozen),
        "basis": _encode_matrix(seed.basis),
    }


def _emit(obj):
    try:
        text = json.dumps(obj, sort_keys=True, indent=2)
    except ValueError:  # an int past Python's int-to-str digit limit
        raise ResourceLimitExceeded(
            "result holds an integer too large to print"
        ) from None
    sys.stdout.write(text + "\n")


def _parse_int_list(text):
    if text is None or text.strip() == "":
        return []
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise ValidationError(f"expected a comma-separated integer list, got {text!r}")


def cmd_mutate(args):
    seed, _ = load_seed_file(args.file)
    path = _parse_int_list(args.path)
    mutated = mutate_along(seed, path)
    _emit({
        "seed": seed_to_json(mutated),
        "path": list(mutated.path),
        "epsilon": _encode_matrix(mutated.eps),
    })
    return EXIT_OK


def cmd_explore(args):
    seed, _ = load_seed_file(args.file)
    if args.workers < 1:
        raise ValidationError(f"workers must be at least 1, got {args.workers}")
    graph = explore(
        root_node(seed), args.depth, dedup=args.dedup, max_terms=args.max_terms
    )
    _emit(graph.report())
    return EXIT_TRUNCATED if graph.truncated else EXIT_OK


def cmd_laurent_check(args):
    seed, _ = load_seed_file(args.file)
    q = _parse_int_list(args.q)
    verify = verify_laurent_A if args.side == "A" else verify_laurent_X
    _emit(verify(seed, q, args.depth, max_terms=args.max_terms))
    return EXIT_OK


def cmd_picard(args):
    seed, _ = load_seed_file(args.file)
    factors = picard_invariants(seed)
    torsion_free = all(f == 0 for f in factors)
    _emit({
        "invariant_factors": list(factors),
        "torsion_free": torsion_free,
        "factoriality": "factorial" if torsion_free else "not_guaranteed",
    })
    return EXIT_OK


def cmd_rank2(args):
    seed, data = load_seed_file(args.file)
    if data is None:
        raise ValidationError(
            "rank2 analysis needs a file with a 'w'/'nu' block"
        )
    path = None if args.mutations is None else _parse_int_list(args.mutations)
    for k in path or ():
        seed.fixed.check_mutable(k)
    out = dict.fromkeys((
        "boundary_self_intersections", "all_minus_two", "non_noetherian_principal",
        "K_basis", "gram", "classification", "inertia", "fg_conjecture_possible",
        "invariance_ok",
    ))
    out.update({
        "epsilon": _encode_matrix(seed.eps),
        "is_coprime_seed": is_coprime_seed(seed),
        "totally_coprime_sufficient": totally_coprime_sufficient(seed),
        "invariance_checked_paths": [],
    })
    if any(x != 1 for x in data.nu):
        out["supported"] = False
        out["note"] = (
            "weighted data (some nu_i > 1) gives singular surfaces; such "
            "examples can be non-finitely generated but are outside this checker"
        )
    else:
        form = symmetric_form(data)
        out.update(**non_fg_flag(form), **fg_failure_flag(form))
        out.update(K_basis=[list(v) for v in form.basis], gram=_encode_matrix(form.gram))
        if path is not None:
            out["invariance_checked_paths"] = [path]
            out["invariance_ok"] = invariance_check(form, tuple(path))
    _emit(out)
    return EXIT_OK


@functools.cache  # built on the first call, not at import
def build_parser():
    parser = argparse.ArgumentParser(
        prog="cluster-geom",
        description=(
            "Exact computations with cluster-variety seeds: mutation, "
            "exchange-graph exploration, Laurent checks, Picard invariants, "
            "and the rank-2 kernel-pairing analysis.  Indices are 0-based."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mutate", help="mutate a seed along a path")
    p.add_argument("file")
    p.add_argument("--path", default="", help="comma-separated mutation indices")
    p.set_defaults(fn=cmd_mutate)

    p = sub.add_parser("explore", help="breadth-first exchange graph")
    p.add_argument("file")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--dedup", choices=("labeled", "unlabeled"), default="labeled")
    p.add_argument(
        "--workers", type=int, default=1,
        help="accepted for compatibility; exploration always runs serially",
    )
    p.add_argument("--max-terms", type=int, default=None)
    p.set_defaults(fn=cmd_explore)

    p = sub.add_parser(
        "laurent-check", help="verify a monomial stays Laurent under mutation"
    )
    p.add_argument("file")
    p.add_argument("--side", choices=("A", "X"), required=True)
    p.add_argument("--q", required=True, help="comma-separated exponents")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--max-terms", type=int, default=None)
    p.set_defaults(fn=cmd_laurent_check)

    p = sub.add_parser("picard", help="invariant factors of the Picard group")
    p.add_argument("file")
    p.set_defaults(fn=cmd_picard)

    p = sub.add_parser("rank2", help="full rank-2 analysis of a w/nu file")
    p.add_argument("file")
    p.add_argument(
        "--mutations", default=None,
        help="comma-separated path for an invariance check",
    )
    p.set_defaults(fn=cmd_rank2)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except LaurentViolation as exc:
        print(f"laurent violation: {exc} on path {list(exc.path)}", file=sys.stderr)
        return EXIT_LAURENT
    except ResourceLimitExceeded as exc:  # before its base, ClusterGeomError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRUNCATED
    except ClusterGeomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:  # missing file, a directory, no permission
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())

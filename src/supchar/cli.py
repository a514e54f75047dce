"""Command-line surface: build tables, run verification suites, inspect orbits,
and process custom algebra spec files.  Only the errors, fields and algebra
layers load with this module; each command imports the layers it runs."""
from __future__ import annotations

import argparse
import gc
import os
import sys

from .algebra import (
    DEFAULT_GROUP_BOUND,
    DEFAULT_SPACE_BOUND,
    is_singular,
    load_algebra_file,
    orbit_census,
    regular_orbit_counts,
)
from .errors import (
    AlgebraValidationError,
    BadSize,
    DegreeTooLarge,
    GroupTooLarge,
    NotPrime,
    OutputNotWritable,
    SpaceTooLarge,
    SupcharError,
)
from .fields import field_make

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_TOO_LARGE = 3


def _bound(args) -> int:
    """Bound on |G|; args.bound already carries SUPCHAR_BOUND (see main)."""
    return DEFAULT_GROUP_BOUND if args.bound is None else args.bound


def _space_bound(args) -> int:
    """Bound on |J| and |J*| for the orbit censuses."""
    return DEFAULT_SPACE_BOUND if args.bound is None else args.bound


def _field(args):
    return field_make(args.p, 1 if args.k is None else args.k, ("--p", "--k"))


def _write(path, text, flag="--out"):
    if path:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise OutputNotWritable(f"{flag} {path!r}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _render_table(table, fmt: str) -> str:
    if fmt == "json":
        import json
        return json.dumps(table.to_json(), indent=2, sort_keys=True) + "\n"
    return table.to_csv()


def cmd_table(args) -> int:
    from . import triangular as tri
    bound = _bound(args)
    F = _field(args)
    if args.mode != "both":
        _write(args.out, _render_table(tri.table(args.n, F, args.mode, bound), args.format))
        return EXIT_OK
    # mode both: build both, diff, write the closed table plus a report
    spec = tri.make_triangular(args.n, F)
    closed = tri.table(args.n, F, "closed", bound, spec=spec)
    brute = tri.table(args.n, F, "brute", bound, spec=spec)
    diffs = tri.compare_tables(closed, brute)
    _write(args.out, _render_table(closed, args.format))
    report = args.diff_out or (args.out + ".diff" if args.out else None)
    lines = [f"CHECK oracle-equivalence {'PASS' if not diffs else 'FAIL'} "
             f"{len(diffs)} mismatched entries of "
             f"{len(closed.row_labels) * len(closed.col_labels)}"]
    lines += diffs
    text = "\n".join(lines) + "\n"
    if report:
        _write(report, text, "--diff-out" if args.diff_out else "--out")
    else:
        sys.stderr.write(text)
    return EXIT_OK if not diffs else EXIT_CHECK_FAILED


def _report(results, path=None) -> int:
    """Write one CHECK line per result to path (default stdout)."""
    _write(path, "".join(f"CHECK {r.name} {'PASS' if r.passed else 'FAIL'} {r.details}\n"
                         for r in results))
    return EXIT_OK if all(r.passed for r in results) else EXIT_CHECK_FAILED


def _verify_checks(spec, n, F, selected, bound, space_bound):
    from . import triangular as tri
    from .superclasses import predicted_count, superclass_partition
    from .supercharacters import (CheckResult, InductionContext, axioms_report, build_table,
                                  enumerate_labels, restriction_report)
    results = []
    partition = superclass_partition(spec, bound)
    census_j = orbit_census(spec, "J", space_bound)
    census_d = orbit_census(spec, "J*", space_bound)
    labels = enumerate_labels(spec, census_d)

    if "counts" in selected:
        pred = predicted_count(spec, census_j)
        ok = pred == len(partition) == len(labels)
        detail = f"predicted {pred} = classes {len(partition)} = characters {len(labels)}"
        if n is not None:
            cls, chs = tri.labels(n, F)
            ok = ok and len(cls) == len(partition) and len(chs) == len(labels)
            detail += f" = closed-form labels {len(cls)}"
        results.append(CheckResult("counts", ok, detail))

    if "orbits" in selected:
        ok = (census_j.residual == 0 and census_d.residual == 0
              and census_j.n_e == census_d.n_e)
        results.append(CheckResult("orbits", ok,
                                   f"n(J)={census_j.n} n_E(J)={census_j.n_e} "
                                   f"n(J*)={census_d.n} n_E(J*)={census_d.n_e} "
                                   f"residuals {census_j.residual},{census_d.residual}"))

    # one induced table, and one set of conjugacy classes, serve every check
    ctx = table = None
    if {"axioms", "restriction"} & set(selected) or (n is not None and "oracle" in selected):
        ctx = InductionContext(spec, bound)
        table = build_table(spec, partition, labels, bound, ctx=ctx)

    if "axioms" in selected:
        results.extend(axioms_report(spec, table, partition, ctx.classes))

    if "oracle" in selected:
        if n is None:
            results.append(CheckResult("oracle", True, "skipped: no closed form for custom algebras"))
        else:
            diffs = tri.compare_tables(tri.table(n, F, "closed", bound, spec=spec),
                                       tri.brute_table(spec, n, partition, table))
            results.append(CheckResult("oracle", not diffs, f"{len(diffs)} mismatched entries"))

    if "restriction" in selected:
        results.append(restriction_report(spec, labels, table, partition, bound))
    return results


def cmd_verify(args) -> int:
    bound = _bound(args)
    all_checks = ["counts", "orbits", "axioms", "oracle", "restriction"]
    selected = all_checks if args.checks == ["all"] else args.checks
    bad = [c for c in selected if c not in all_checks]
    if bad:
        print("--checks all cannot be combined with named checks" if "all" in bad
              else f"unknown checks: {bad}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    if args.spec:
        spec = load_algebra_file(args.spec)
        n = F = None
    else:
        from .triangular import make_triangular
        F = _field(args)
        n = args.n
        spec = make_triangular(n, F)
    return _report(_verify_checks(spec, n, F, selected, bound, _space_bound(args)), args.out)


def cmd_orbits(args) -> int:
    if args.spec:
        spec = load_algebra_file(args.spec)
    else:
        from .triangular import make_triangular
        spec = make_triangular(args.n, _field(args))
    spaces = ["J", "J*"] if args.space == "both" else \
        (["J*"] if args.space == "dual" else ["J"])
    lines = []
    for sp in spaces:
        census = orbit_census(spec, sp, _space_bound(args))
        lines.append(f"space {sp}: n={census.n} n_E={census.n_e} residual={census.residual}")
        for T in sorted(census.n_sub, key=lambda t: (len(t), sorted(t))):
            lines.append(f"  n(J_{{{','.join(str(i + 1) for i in sorted(T))}}}) = {census.n_sub[T]}")
        for T, cnt in sorted(regular_orbit_counts(census).items(),
                             key=lambda kv: (len(kv[0]), sorted(kv[0]))):
            lines.append(f"  regular orbits with support {{{','.join(str(i + 1) for i in sorted(T))}}}: {cnt}")
        for orb in census.orbits:
            tag = "singular" if is_singular(spec, orb.representative, sp == "J*") else "regular"
            lines.append(f"  orbit rep {list(orb.representative)} size {len(orb.members)} {tag}")
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_algebra(args) -> int:
    from .superclasses import superclass_partition
    from .supercharacters import InductionContext, axioms_report, build_table, enumerate_labels
    bound = _bound(args)
    spec = load_algebra_file(args.spec)
    partition = superclass_partition(spec, bound)
    census_d = orbit_census(spec, "J*", _space_bound(args))
    labels = enumerate_labels(spec, census_d)
    ctx = InductionContext(spec, bound)
    table = build_table(spec, partition, labels, bound, ctx=ctx)
    _write(args.out, _render_table(table, args.format))
    return _report(axioms_report(spec, table, partition, ctx.classes))


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="supchar",
        description="Supercharacter tables for groups of invertible elements "
                    "of reduced algebras over finite fields.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, triangular=True, spec_file=False):
        if triangular:
            p.add_argument("--n", type=int, default=None, help="matrix size")
            p.add_argument("--p", type=int, default=None, help="field characteristic")
            p.add_argument("--k", type=int, default=None, help="field degree, q = p^k (default 1)")
        if spec_file:
            p.add_argument("--spec", default=None, help="algebra spec JSON file")
        p.add_argument("--bound", type=int, default=None,
                       help="enumeration bound on |G| and on |J|, |J*| (default "
                            "SUPCHAR_BOUND, else 2^17 for G and 2^20 for J, J*)")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    pt = sub.add_parser("table", help="build a triangular supercharacter table")
    common(pt)
    pt.add_argument("--mode", choices=["closed", "brute", "both"], default="closed")
    pt.add_argument("--format", choices=["csv", "json"], default="csv")
    pt.add_argument("--diff-out", default=None, help="mismatch report path for --mode both")
    pt.set_defaults(func=cmd_table)

    pv = sub.add_parser("verify", help="run verification suites")
    common(pv, spec_file=True)
    pv.add_argument("--checks", nargs="+", default=["all"],
                    help="subset of: counts orbits axioms oracle restriction, or all")
    pv.set_defaults(func=cmd_verify)

    po = sub.add_parser("orbits", help="orbit census for J and J*")
    common(po, spec_file=True)
    po.add_argument("--space", choices=["primal", "dual", "both"], default="both")
    po.set_defaults(func=cmd_orbits)

    pa = sub.add_parser("algebra", help="full pipeline on a custom algebra spec file")
    common(pa, triangular=False, spec_file=True)
    pa.add_argument("--format", choices=["csv", "json"], default="csv")
    pa.set_defaults(func=cmd_algebra)
    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    env = os.environ.get("SUPCHAR_BOUND")
    source = "--bound"
    if args.bound is None and env:
        source = "SUPCHAR_BOUND"
        try:
            args.bound = int(env)
        except ValueError:
            print(f"invalid configuration: SUPCHAR_BOUND must be an integer, got {env!r}",
                  file=sys.stderr)
            return EXIT_BAD_CONFIG
    if args.bound is not None and args.bound < 0:
        print(f"invalid configuration: {source} must be non-negative, got {args.bound}",
              file=sys.stderr)
        return EXIT_BAD_CONFIG
    if args.command in ("verify", "orbits") and args.spec and {args.n, args.p, args.k} != {None}:
        print("--spec conflicts with --n/--p/--k: give one algebra or the other", file=sys.stderr)
        return EXIT_BAD_CONFIG
    uses_field = args.command == "table" or (
        args.command in ("verify", "orbits") and not args.spec)
    if args.command == "algebra" and not args.spec:
        print("algebra command requires --spec", file=sys.stderr)
        return EXIT_BAD_CONFIG
    if uses_field:
        if args.n is None or args.p is None:
            print("missing --n/--p for a triangular run", file=sys.stderr)
            return EXIT_BAD_CONFIG
        if args.n < 2:
            print(f"--n must be at least 2, got {args.n}", file=sys.stderr)
            return EXIT_BAD_CONFIG
    try:
        return args.func(args)
    except (GroupTooLarge, SpaceTooLarge) as exc:
        print(f"enumeration bound exceeded: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except (AlgebraValidationError, NotPrime, DegreeTooLarge, BadSize, OutputNotWritable,
            FileNotFoundError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except SupcharError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


def entry() -> None:
    """The process entry, of `python -m supchar.cli` and of the `supchar`
    script: main() on sys.argv, then exit with its code.  Every output is
    closed by then, so the objects of the run are frozen (gc.freeze) and the
    interpreter's shutdown collection passes over them; stdout and stderr are
    still flushed at exit.  main() itself freezes nothing, so a caller's heap
    stays collectable."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()

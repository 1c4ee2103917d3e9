"""Command-line front end.

Commands: validate, analyze, enumerate, verify, search.  Exit codes:
0 success / consistent, 1 usage error, 2 invalid input, 3 counterexample
found (verify) or no match found (search --first).

verify and analyze print deterministically: byte-identical output across
runs and across --jobs values for the same input.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
from itertools import product

from . import theorems
from .core import (
    InvalidStructureError,
    StructureFormatError,
    canonical_json,
    load_structure,
    members,
    to_json_dict,
)
from .decomposition import least_complete_semilattice_congruence
from .enumeration import (
    DEDUP_MODES,
    MAX_ENUM_ORDER,
    EnumerationCursor,
    OrderTooLargeError,
    enumerate_ordered_semigroups,
)
from .ideals import kernel
from .properties import (
    ATOMS,
    ParseError,
    UnknownAtomError,
    evaluate,
    parse_property_expr,
)
from .regularity import (
    ordered_idempotents,
    pi_intra_set,
    pi_rv_set,
    regular_elements,
    rv_set,
)
from .relations import green

CHECKPOINT_EVERY = 1000


class UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage problems, not argparse's 2
        raise UsageError(message)


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="oseg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_ArgumentParser)

    p = sub.add_parser("validate", help="check the axioms of a structure file")
    p.add_argument("file")

    p = sub.add_parser("analyze", help="full property report for a structure file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true", dest="as_json")
    p.add_argument(
        "--rv-vacuous",
        action="store_true",
        help="also report the rv sets under the vacuous reading that admits irregular elements",
    )

    p = sub.add_parser("enumerate", help="stream all ordered semigroups of an order")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--dedup", choices=DEDUP_MODES, default="raw")
    p.add_argument("--out", help="write structures here instead of stdout")
    p.add_argument("--checkpoint", help="cursor file; resumes when it already exists")
    p.add_argument("--limit", type=int, help="stop after this many structures")

    p = sub.add_parser("verify", help="run the theorem catalog over an enumeration")
    p.add_argument("--order", type=int, required=True)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--theorem", help="single catalog id")
    g.add_argument("--all", action="store_true", help="whole catalog (default)")
    p.add_argument("--dedup", choices=DEDUP_MODES, default="raw")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--strict", action="store_true", help="adapted-theorem mismatches also fail")
    p.add_argument(
        "--limit", type=int, help="check only the first K structures (forces --jobs 1)"
    )

    p = sub.add_parser("search", help="emit structures matching a property expression")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--where", required=True)
    p.add_argument("--dedup", choices=DEDUP_MODES, default="raw")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--first", action="store_true", help="stop at the first match")
    g.add_argument("--count", action="store_true", help="print only the number of matches")

    return parser


# ---------------------------------------------------------------------------
# validate


def _cmd_validate(args, out) -> int:
    try:
        load_structure(args.file)
    except OSError as e:
        print(f"invalid: {e}", file=out)
        return 2
    except StructureFormatError as e:
        print(f"invalid: {e}", file=out)
        return 2
    except InvalidStructureError as e:
        for v in e.violations:
            print(v, file=out)
        return 2
    print("valid", file=out)
    return 0


# ---------------------------------------------------------------------------
# analyze


def _relation_classes(S, which) -> list[list[int]]:
    return green(S, which).classes()


def analyze_report(S, rv_vacuous: bool = False) -> dict:
    atoms = {name: ATOMS[name](S) for name in ATOMS}
    report = {
        "structure": to_json_dict(S),
        "atoms": atoms,
        "green": {which: _relation_classes(S, which) for which in ("L", "R", "J", "H")},
        "kernel": members(kernel(S)),
        "least_congruence": least_complete_semilattice_congruence(S).classes_as_lists(),
        "regular_elements": members(regular_elements(S)),
        "ordered_idempotents": members(ordered_idempotents(S)),
        "rv_set": members(rv_set(S)),
        "pi_rv_set": members(pi_rv_set(S)),
        "pi_intra_set": members(pi_intra_set(S)),
    }
    if rv_vacuous:
        report["rv_set_vacuous"] = members(rv_set(S, include_irregular=True))
        report["pi_rv_set_vacuous"] = members(pi_rv_set(S, include_irregular=True))
    return report


def _cmd_analyze(args, out) -> int:
    try:
        S = load_structure(args.file)
    except (OSError, StructureFormatError, InvalidStructureError) as e:
        print(f"invalid: {e}", file=out)
        return 2
    report = analyze_report(S, rv_vacuous=args.rv_vacuous)
    if args.as_json:
        print(json.dumps(report, sort_keys=True, indent=2), file=out)
        return 0
    print(f"order: {S.n}", file=out)
    print(f"structure: {canonical_json(S)}", file=out)
    for name, value in report["atoms"].items():
        print(f"{name}: {'yes' if value else 'no'}", file=out)
    for which in ("L", "R", "J", "H"):
        print(f"green {which}: {report['green'][which]}", file=out)
    print(f"kernel: {report['kernel']}", file=out)
    print(f"least congruence: {report['least_congruence']}", file=out)
    print(f"regular elements: {report['regular_elements']}", file=out)
    print(f"ordered idempotents: {report['ordered_idempotents']}", file=out)
    print(f"rv set: {report['rv_set']}", file=out)
    print(f"pi rv set: {report['pi_rv_set']}", file=out)
    print(f"pi intra set: {report['pi_intra_set']}", file=out)
    if args.rv_vacuous:
        print(f"rv set (vacuous reading): {report['rv_set_vacuous']}", file=out)
        print(f"pi rv set (vacuous reading): {report['pi_rv_set_vacuous']}", file=out)
    return 0


# ---------------------------------------------------------------------------
# enumerate


def _cmd_enumerate(args, out) -> int:
    if args.order < 1:
        raise UsageError("--order must be >= 1")
    cursor = None
    resuming = False
    if args.checkpoint and os.path.exists(args.checkpoint):
        try:
            with open(args.checkpoint, "r", encoding="utf-8") as fh:
                cursor = EnumerationCursor.from_json(fh.read())
        except (OSError, ValueError) as e:
            print(f"invalid checkpoint: {e}", file=sys.stderr)
            return 2
        if cursor.order != args.order or cursor.dedup != args.dedup:
            print("invalid checkpoint: order/dedup mismatch", file=sys.stderr)
            return 2
        resuming = True
    try:
        stream = enumerate_ordered_semigroups(args.order, dedup=args.dedup, cursor=cursor)
    except OrderTooLargeError as e:
        print(f"invalid: {e}", file=sys.stderr)
        return 2

    def save_checkpoint():
        if args.checkpoint:
            with open(args.checkpoint, "w", encoding="utf-8") as fh:
                fh.write(stream.cursor.to_json() + "\n")

    sink = out
    close_sink = False
    if args.out:
        sink = open(args.out, "a" if resuming else "w", encoding="utf-8")
        close_sink = True
    try:
        emitted = 0
        for S in stream:
            print(canonical_json(S), file=sink)
            emitted += 1
            if emitted % CHECKPOINT_EVERY == 0:
                save_checkpoint()
            if args.limit is not None and emitted >= args.limit:
                break
        save_checkpoint()
    finally:
        if close_sink:
            sink.close()
    return 0


# ---------------------------------------------------------------------------
# verify


def _fresh_acc(ids):
    return {tid: {"checked": 0, "skipped": 0, "cex": [], "mismatch": []} for tid in ids}


def _run_catalog(n, dedup, ids, first_row=None, limit=None):
    acc = _fresh_acc(ids)
    count = 0
    for S in enumerate_ordered_semigroups(n, dedup=dedup, first_row=first_row):
        count += 1
        for tid in ids:
            if theorems.precondition_unmet(S, tid) is not None:
                acc[tid]["skipped"] += 1
                continue
            report = theorems.check(S, tid)
            acc[tid]["checked"] += 1
            if not report.consistent:
                entry = (
                    canonical_json(S),
                    json.dumps(report.to_json_dict(), sort_keys=True),
                )
                acc[tid]["mismatch" if report.adapted else "cex"].append(entry)
        if limit is not None and count >= limit:
            break
    return count, acc


def _merge(acc, part):
    """Add the per-theorem tallies of part into acc."""
    for tid, a in acc.items():
        for key in ("checked", "skipped"):
            a[key] += part[tid][key]
        for key in ("cex", "mismatch"):
            a[key].extend(part[tid][key])


def _verify_worker(task):
    n, dedup, ids, rows = task
    total = 0
    merged = _fresh_acc(ids)
    for row in rows:
        count, acc = _run_catalog(n, dedup, ids, first_row=row)
        total += count
        _merge(merged, acc)
    return total, merged


def _cmd_verify(args, out) -> int:
    if args.order < 1:
        raise UsageError("--order must be >= 1")
    if args.theorem:
        if args.theorem not in theorems.theorem_ids():
            raise UsageError(f"unknown theorem id {args.theorem!r}")
        ids = [args.theorem]
    else:
        ids = theorems.theorem_ids()
    jobs = max(1, args.jobs)
    if args.limit is not None:
        jobs = 1
    if args.order > MAX_ENUM_ORDER:
        e = OrderTooLargeError("enumeration", MAX_ENUM_ORDER, args.order)
        print(f"invalid: {e}", file=sys.stderr)
        return 2

    if jobs == 1:
        total, acc = _run_catalog(args.order, args.dedup, ids, limit=args.limit)
    else:
        rows = list(product(range(args.order), repeat=args.order))
        chunks = [rows[i::jobs] for i in range(jobs) if rows[i::jobs]]
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(len(chunks)) as pool:
            results = pool.map(
                _verify_worker, [(args.order, args.dedup, ids, chunk) for chunk in chunks]
            )
        total = 0
        acc = _fresh_acc(ids)
        for count, part in results:
            total += count
            _merge(acc, part)

    print(f"verify order={args.order} dedup={args.dedup}", file=out)
    if args.limit is not None:
        print(f"limit={args.limit} (deterministic prefix of the enumeration)", file=out)
    print(f"structures={total}", file=out)
    any_cex = False
    any_mismatch = False
    for tid in ids:
        a = acc[tid]
        a["cex"].sort()
        a["mismatch"].sort()
        if theorems.is_adapted(tid):
            print(
                f"{tid}: checked={a['checked']} skipped={a['skipped']}"
                f" mismatches={len(a['mismatch'])} (adapted)",
                file=out,
            )
        else:
            print(
                f"{tid}: checked={a['checked']} skipped={a['skipped']}"
                f" counterexamples={len(a['cex'])}",
                file=out,
            )
        any_cex = any_cex or bool(a["cex"])
        any_mismatch = any_mismatch or bool(a["mismatch"])
    for tid in ids:
        for struct, report in acc[tid]["cex"]:
            print(f"COUNTEREXAMPLE theorem={tid}", file=out)
            print(struct, file=out)
            print(report, file=out)
        for struct, report in acc[tid]["mismatch"]:
            print(f"ADAPTATION-MISMATCH theorem={tid}", file=out)
            print(struct, file=out)
            print(report, file=out)
    failed = any_cex or (args.strict and any_mismatch)
    print("result: " + ("COUNTEREXAMPLE" if failed else "ok"), file=out)
    return 3 if failed else 0


# ---------------------------------------------------------------------------
# search


def _cmd_search(args, out) -> int:
    if args.order < 1:
        raise UsageError("--order must be >= 1")
    try:
        expr = parse_property_expr(args.where)
    except (ParseError, UnknownAtomError) as e:
        raise UsageError(f"--where: {e}")
    try:
        stream = enumerate_ordered_semigroups(args.order, dedup=args.dedup)
    except OrderTooLargeError as e:
        print(f"invalid: {e}", file=sys.stderr)
        return 2
    count = 0
    for S in stream:
        if not evaluate(S, expr):
            continue
        count += 1
        if args.count:
            continue
        print(canonical_json(S), file=out)
        if args.first:
            return 0
    if args.count:
        print(count, file=out)
        return 0
    if args.first:
        return 3  # nothing matched
    return 0


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "validate": _cmd_validate,
            "analyze": _cmd_analyze,
            "enumerate": _cmd_enumerate,
            "verify": _cmd_verify,
            "search": _cmd_search,
        }[args.command]
        return handler(args, sys.stdout)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Commands: validate, analyze, enumerate, verify, search.  Exit codes:
0 success / consistent, 1 usage error, 2 invalid input, 3 counterexample
found (verify) or no match found (search --first), 141 stdout closed early.

verify and analyze print deterministically: byte-identical output across
runs and across --jobs values for the same input.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
from dataclasses import replace
from itertools import islice, product

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
    EnumerationCursor,
    OrderTooLargeError,
    _check_order,
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
    except (OSError, StructureFormatError) as e:
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


def analyze_report(S, rv_vacuous: bool = False) -> dict:
    atoms = {name: ATOMS[name](S) for name in ATOMS}
    report = {
        "structure": to_json_dict(S),
        "atoms": atoms,
        "green": {which: green(S, which).classes() for which in ("L", "R", "J", "H")},
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


def _check_limit(args) -> None:
    if args.limit is not None and args.limit < 0:
        raise UsageError("--limit must be >= 0")


def _cmd_enumerate(args, out) -> int:
    _check_limit(args)
    cursor = None
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
        if args.out and cursor.out_bytes is not None:
            size = os.path.getsize(args.out) if os.path.exists(args.out) else 0
            if size < cursor.out_bytes:
                print(f"invalid checkpoint: --out is under {cursor.out_bytes} bytes", file=sys.stderr)
                return 2
    stream = enumerate_ordered_semigroups(args.order, dedup=args.dedup, cursor=cursor)
    sink = out

    def save_checkpoint():
        """Make --out durable, then swap the new cursor in atomically, so a
        kill leaves the previous checkpoint or this one, never a torn file.
        The cursor records the length of --out that it accounts for."""
        if not args.checkpoint:
            return
        sink.flush()
        current = stream.cursor
        if args.out:
            os.fsync(sink.fileno())
            current = replace(current, out_bytes=os.fstat(sink.fileno()).st_size)
        tmp = args.checkpoint + ".tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(current.to_json() + "\n")
                fh.flush()
                os.fsync(fh.fileno())
        except OSError as e:
            e.filename = args.checkpoint  # the path given, not its temporary twin
            raise
        os.replace(tmp, args.checkpoint)
    try:
        try:  # a bad --out or --checkpoint path fails before the first structure
            if args.out:
                sink = open(args.out, "w" if cursor is None else "a", encoding="utf-8")
                if cursor is not None and cursor.out_bytes is not None:
                    sink.truncate(cursor.out_bytes)  # lines past the cursor come again
            save_checkpoint()
        except OSError as e:
            print(f"invalid: {e}", file=sys.stderr)
            return 2
        for emitted, S in enumerate(islice(stream, args.limit), start=1):
            print(canonical_json(S), file=sink)
            if emitted % CHECKPOINT_EVERY == 0:
                save_checkpoint()
        save_checkpoint()
    finally:
        if sink is not out:
            sink.close()
    return 0


# ---------------------------------------------------------------------------
# verify


def _fresh_acc(ids):
    return {tid: {"checked": 0, "skipped": 0, "failures": []} for tid in ids}


def _run_catalog(task):
    """(count, tallies) of the ids over one (order, dedup, ids, first_row, limit) run."""
    n, dedup, ids, first_row, limit = task
    acc = _fresh_acc(ids)
    count = 0
    stream = enumerate_ordered_semigroups(n, dedup=dedup, first_row=first_row)
    for S in islice(stream, limit):
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
                acc[tid]["failures"].append(entry)
    return count, acc


def _cmd_verify(args, out) -> int:
    if args.theorem:
        if args.theorem not in theorems.theorem_ids():
            raise UsageError(f"unknown theorem id {args.theorem!r}")
        ids = [args.theorem]
    else:
        ids = theorems.theorem_ids()
    _check_limit(args)
    if args.jobs < 1:
        raise UsageError("--jobs must be >= 1")
    jobs = 1 if args.limit is not None else args.jobs
    _check_order(args.order)  # before a pool starts

    if jobs == 1:
        results = [_run_catalog((args.order, args.dedup, ids, None, args.limit))]
    else:
        # one task per first row, so a slow row holds up one worker only
        tasks = [
            (args.order, args.dedup, ids, row, None)
            for row in product(range(args.order), repeat=args.order)
        ]
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(min(jobs, len(tasks), os.cpu_count() or 1)) as pool:
            results = list(pool.imap(_run_catalog, tasks))
    total = 0
    acc = _fresh_acc(ids)
    for count, part in results:
        total += count
        for tid, a in acc.items():
            for key in ("checked", "skipped"):
                a[key] += part[tid][key]
            a["failures"].extend(part[tid]["failures"])

    print(f"verify order={args.order} dedup={args.dedup}", file=out)
    if args.limit is not None:
        print(f"limit={args.limit} (deterministic prefix of the enumeration)", file=out)
    print(f"structures={total}", file=out)
    failed = False
    for tid in ids:
        a = acc[tid]
        a["failures"].sort()
        adapted, found = theorems.is_adapted(tid), len(a["failures"])
        tally = f"mismatches={found} (adapted)" if adapted else f"counterexamples={found}"
        print(f"{tid}: checked={a['checked']} skipped={a['skipped']} {tally}", file=out)
        failed = failed or (found > 0 and (args.strict or not adapted))
    for tid in ids:
        label = "ADAPTATION-MISMATCH" if theorems.is_adapted(tid) else "COUNTEREXAMPLE"
        for struct, report in acc[tid]["failures"]:
            print(f"{label} theorem={tid}", file=out)
            print(struct, file=out)
            print(report, file=out)
    print("result: " + ("COUNTEREXAMPLE" if failed else "ok"), file=out)
    return 3 if failed else 0


# ---------------------------------------------------------------------------
# search


def _cmd_search(args, out) -> int:
    try:
        expr = parse_property_expr(args.where)
    except (ParseError, UnknownAtomError) as e:
        raise UsageError(f"--where: {e}")
    count = 0
    for S in enumerate_ordered_semigroups(args.order, dedup=args.dedup):
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
        if getattr(args, "order", 1) < 1:
            raise UsageError("--order must be >= 1")
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
    except OrderTooLargeError as e:
        print(f"invalid: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # stdout's reader left (`| head`): exit as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # quiet exit flush
        return 141


if __name__ == "__main__":
    sys.exit(main())

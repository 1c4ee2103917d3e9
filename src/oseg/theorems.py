"""Equivalence-theorem catalog and the per-structure consistency checker.

Each catalog entry evaluates a list of named conditions on one structure,
every condition computed independently (no short-circuiting between
conditions), and then compares the outcome against the claimed logical
shape: an all-equivalent list, an lhs-iff-conjunction, or a family of
checks quantified over every ideal or congruence.  A verdict of
COUNTEREXAMPLE means the structure falsifies the claim as encoded here.
Deciding is split from explaining: an entry's witnesses (ideal members,
exponents, rv sets, partitions) are built only when a report is read.

An all-equivalent entry is a table of rows read line by line against the
paper: a condition key and parts that must all hold, each search --where
text, compiled once, or a named function where the atoms cannot say it:
the starred relations, and raw restatements of a cached condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import ideals
from .core import (
    Mask, OrderedSemigroup, _least_power_in, _pairwise_related, derived, downset, full_mask, iter_mask, mask_of,
    members, to_json_dict, two_sided,
)
from .decomposition import (
    MAX_PARTITION_ORDER,
    _check_order,
    all_complete_semilattice_congruences,
    is_complete_semilattice_of,
    nil_extension_ideals,
    nil_extension_of_type,
)
from .properties import CslOf, NilExtOf, _every, parse_property_expr, predicate, type_of
from .regularity import (
    is_right_inverse,
    is_right_pi_inverse,
    ordered_idempotents,
    pi_intra_set,
    pi_rv_set,
    pi_rv_witness,
    regular_elements,
    rv_set,
)
from .relations import green


class UnknownTheoremError(KeyError):
    pass


@dataclass(slots=True)
class TheoremReport:
    """An entry's verdict on one structure.  The witnesses, what a reader
    needs to follow the verdict, are built by the entry's explain on the
    structure whenever they are read."""

    theorem_id: str
    conditions: dict[str, bool]
    verdict: str  # "consistent" | "COUNTEREXAMPLE"
    violation: dict | None
    adapted: bool
    structure: OrderedSemigroup

    @property
    def consistent(self) -> bool:
        return self.verdict == "consistent"

    @property
    def witnesses(self) -> dict[str, object]:
        return _entry(self.theorem_id).explain(self.structure)

    def to_json_dict(self) -> dict:
        out: dict = {
            "theorem": self.theorem_id,
            "conditions": dict(self.conditions),
            "verdict": self.verdict,
            "witnesses": self.witnesses,
        }
        if self.adapted:
            out["adapted"] = True
        if self.violation is not None:
            out["violation"] = self.violation
        return out


# ---------------------------------------------------------------------------
# shared pieces


@derived
def _raw_power_masks(S: OrderedSemigroup) -> tuple[Mask, ...]:
    """Per element, the mask of a^1..a^n, straight from the table.

    For conditions that restate a cached one independently; sharing the
    one-sided record's powers would collapse the equivalence they check.  Those
    conditions only read it, so they share one copy.
    """
    pow_masks = [0] * S.n
    for a in range(S.n):
        x = a
        for _ in range(S.n):
            pow_masks[a] |= 1 << x
            x = S.table[x][a]
    return tuple(pow_masks)


def _equiv_violation(conditions: dict[str, bool]) -> dict | None:
    if len(set(conditions.values())) == 1:
        return None
    return {
        "shape": "all-equivalent",
        "true": sorted(k for k, v in conditions.items() if v),
        "false": sorted(k for k, v in conditions.items() if not v),
    }


def _nilext_witness(S: OrderedSemigroup, tau) -> dict:
    K = nil_extension_of_type(S, tau)
    if K is not None:
        return {"ideal": members(K), "exponents": list(_least_power_in(S, K))}
    kernel_nil = ideals.kernel(S) in nil_extension_ideals(S)
    return {"reason": "type-fails" if kernel_nil else "kernel-not-nil"}


def _ideal_key(K: Mask) -> str:
    return "ideal[" + ",".join(str(e) for e in members(K)) + "]"


def _no_witnesses(S: OrderedSemigroup) -> dict:
    return {}


def _rv_witness(S: OrderedSemigroup) -> dict:
    return {"rv_set": members(rv_set(S))}


def _idempotents_witness(S: OrderedSemigroup) -> dict:
    return {"ordered_idempotents": members(ordered_idempotents(S))}


def _powers_reach_all(pow_masks, targets) -> bool:
    """Some power of every element in each target, target by target."""
    return all(all(p & target for p in pow_masks) for target in targets)


# ---------------------------------------------------------------------------
# conditions the atoms cannot state: the starred relations, and raw
# restatements of an atom that must not share its cached path


def _universal(which: str) -> Callable[[OrderedSemigroup], bool]:
    """Green's `which` relates every pair of elements."""
    return lambda S: _pairwise_related(green(S, which), full_mask(S.n))


def _on_idempotents(which: str) -> Callable[[OrderedSemigroup], bool]:
    """Green's `which` relates every pair of ordered idempotents."""
    return lambda S: _pairwise_related(green(S, which), ordered_idempotents(S))


def _implies_on_idempotents(a: str, b: str) -> Callable[[OrderedSemigroup], bool]:
    """On the ordered idempotents, a-related implies b-related."""
    def holds(S: OrderedSemigroup) -> bool:
        E, rows_a, rows_b = ordered_idempotents(S), green(S, a), green(S, b)
        return all(rows_a[i] & E & ~rows_b[i] == 0 for i in iter_mask(E))
    return holds


def _raw_right_pi_inverse(S: OrderedSemigroup) -> bool:
    """Some power p of every element has V(p) nonempty and pairwise
    R-related, from the table and the order alone: V(p) by definition,
    R by comparing the right ideals (b u bS].

    Reading pi_rv_witness here would compare condition (i) with itself.
    """
    n, table, down = S.n, S.table, S.down
    right = [downset(S, 1 << b | mask_of(table[b])) for b in range(n)]
    agree = 0
    for p in range(n):
        first = None
        for b in range(n):
            if down[table[table[p][b]][p]] >> p & 1 and down[table[table[b][p]][b]] >> b & 1:
                if first is None:
                    first = right[b]
                elif right[b] != first:
                    break
        else:
            if first is not None:
                agree |= 1 << p
    return all(powers & agree for powers in _raw_power_masks(S))


def _raw_t_archimedean(S: OrderedSemigroup) -> bool:
    """t-Archimedean rebuilt from the table, independent of the closed
    products is_archimedean reads: (aSa] is the downset of the row set aSa."""
    table = S.table
    asa = (downset(S, mask_of(table[x][a] for x in table[a])) for a in range(S.n))
    return _powers_reach_all(_raw_power_masks(S), asa)


def _raw_archimedean(S: OrderedSemigroup) -> bool:
    """Archimedean spelled out by definition, independent of the closed
    products is_archimedean reads: (SbS] is the downset of the union over
    s of the row set (sb)S."""
    row_masks = [mask_of(row) for row in S.table]
    sbs = [0] * S.n
    for row in S.table:  # row s holds sb for every b
        for b, sb in enumerate(row):
            sbs[b] |= row_masks[sb]
    return _powers_reach_all(_raw_power_masks(S), (downset(S, m) for m in sbs))


# ---------------------------------------------------------------------------
# catalog evaluators: evaluate(S) gives (conditions, violation) and
# explain(S) the witnesses


def _explain_thm_500(S: OrderedSemigroup) -> dict:
    witnesses: dict[str, object] = _idempotents_witness(S)
    if is_right_pi_inverse(S):
        witnesses["right_pi_inverse_exponents"] = list(pi_rv_witness(S))
    return witnesses


def _eval_lem_cao(S: OrderedSemigroup):
    # condition (ii) recomputes the power condition from the raw table;
    # sharing nil_extension_ideals' power masks would collapse the equivalence check
    pow_masks = _raw_power_masks(S)
    nil_ideals = nil_extension_ideals(S)
    conditions: dict[str, bool] = {}
    bad = []
    for K in ideals.all_ideals(S):
        key = _ideal_key(K)
        nil = K in nil_ideals
        lands = all(pow_masks[a] & K for a in range(S.n))
        conditions[key + ".i_nil_extension"] = nil
        conditions[key + ".ii_every_power_lands"] = lands
        if nil != lands:
            bad.append(members(K))
    return conditions, None if not bad else {"shape": "per-ideal equivalence", "ideals": bad}


def _eval_lem_ne51(S: OrderedSemigroup):
    rv = rv_set(S)
    table = S.table
    rng = range(S.n)
    # a | c iff c lies in the principal two-sided ideal of a
    divided = two_sided(S).ideal
    cond_i = all(divided[a] & rv & ~divided[table[a][a]] == 0 for a in rng)
    cond_ii = all(divided[a] & divided[b] & rv & ~divided[table[a][b]] == 0 for a in rng for b in rng)
    conditions = {"i_square_divides": cond_i, "ii_product_divides": cond_ii}
    return conditions, _equiv_violation(conditions)


def _eval_thm_ne511(S: OrderedSemigroup):
    s_ri = is_right_inverse(S)
    s_rpi = is_right_pi_inverse(S)
    rv_s = rv_set(S)
    conditions: dict[str, bool] = {
        "S.right_inverse": s_ri,
        "S.right_pi_inverse": s_rpi,
    }
    failures = []
    for k, p in enumerate(all_complete_semilattice_congruences(S)):
        union_rv = 0
        all_ri = True
        all_rpi = True
        for cmask in p.classes:
            r = ideals.restrict(S, cmask)
            union_rv |= r.to_ambient(rv_set(r.structure))
            all_ri = all_ri and is_right_inverse(r.structure)
            all_rpi = all_rpi and is_right_pi_inverse(r.structure)
        key = f"cong{k}"
        conditions[key + ".i_rv_union_matches"] = union_rv == rv_s
        conditions[key + ".ii_all_classes_right_inverse"] = all_ri
        conditions[key + ".iii_all_classes_right_pi_inverse"] = all_rpi
        if union_rv != rv_s or all_ri != s_ri or all_rpi != s_rpi:
            failures.append({"congruence": p.classes_as_lists(), "rv_union": members(union_rv)})
    return conditions, None if not failures else {"shape": "per-congruence", "failures": failures}


def _eval_lem_ne53(S: OrderedSemigroup):
    rv = rv_set(S)
    lrows = green(S, "L")
    # never false: an idempotent is regular (see regularity.is_pi_regular)
    conditions: dict[str, bool] = {"regular_elements_exist": regular_elements(S) != 0}
    failures = []
    for K in nil_extension_ideals(S):
        key = _ideal_key(K)
        inside = rv & ~K == 0
        lclasses_ok = all(lrow & ~K == 0 for lrow in lrows if lrow & rv)
        conditions[key + ".i_rv_inside"] = inside
        conditions[key + ".ii_l_classes_meeting_rv_inside"] = lclasses_ok
        if not (inside and lclasses_ok):
            failures.append(members(K))
    return conditions, None if not failures else {"shape": "per-nil-ideal", "ideals": failures}


_RIGHT_INVERSE = type_of(parse_property_expr("right-inverse"))


def _eval_cor_rinv_nilext(S: OrderedSemigroup):
    lhs = nil_extension_of_type(S, _RIGHT_INVERSE) is not None
    rv = rv_set(S)
    table, down = S.table, S.down
    outside = full_mask(S.n) & ~rv
    conditions = {
        "nilext_right_inverse": lhs,
        "i_right_pi_inverse": is_right_pi_inverse(S),
        # a <= ba (ii) or a <= ab (iii) with b in rv puts a in rv
        "ii_left_multiple_stays_rv": not any(
            down[table[b][a]] >> a & 1 for b in iter_mask(rv) for a in iter_mask(outside)
        ),
        "iii_right_multiple_stays_rv": not any(
            down[table[a][b]] >> a & 1 for b in iter_mask(rv) for a in iter_mask(outside)
        ),
        # rv is a down-set
        "iv_below_stays_rv": all(down[b] & outside == 0 for b in iter_mask(rv)),
    }
    rhs = all(v for k, v in conditions.items() if k != "nilext_right_inverse")
    return conditions, None if lhs == rhs else {"shape": "lhs-iff-conjunction", "conditions": dict(conditions)}


def _explain_cor_rinv_nilext(S: OrderedSemigroup) -> dict:
    witnesses: dict[str, object] = _rv_witness(S)
    K = nil_extension_of_type(S, _RIGHT_INVERSE)
    if K is not None:
        witnesses["ideal"] = members(K)
    return witnesses


def _explain_csl_corollary(S: OrderedSemigroup) -> dict:
    return {"pi_intra_set": members(pi_intra_set(S)), "pi_rv_set": members(pi_rv_set(S))}


# ---------------------------------------------------------------------------
# catalog table


@dataclass(frozen=True)
class CatalogEntry:
    """evaluate(S) returns (conditions, violation), and the claim holds on S
    iff violation is None; explain(S) returns the witnesses of a report.  A
    capped entry, the default, scans every ideal or congruence (as every
    nil-extension question does), so it is skipped above MAX_PARTITION_ORDER."""

    theorem_id: str
    evaluate: Callable
    explain: Callable = _no_witnesses
    capped: bool = True
    adapted: bool = False


def _equivalence(theorem_id: str, *rows, witnesses=_idempotents_witness, **flags) -> CatalogEntry:
    """The entry claiming that its conditions are all equivalent.  A row is
    a condition key and its parts, each --where text or a function of S;
    the condition holds when every part does.  The witnesses are the
    outcome of each condition that is one nil-ext-of or csl-of expression,
    keyed by the condition's numeral, and then witnesses(S)."""
    conditions, outcomes = [], []
    for key, *parts in rows:
        parts = [parse_property_expr(p) if isinstance(p, str) else p for p in parts]
        funcs = tuple(p if callable(p) else predicate(p) for p in parts)
        conditions.append((key, funcs[0] if len(funcs) == 1 else _every(funcs)))
        if len(parts) == 1 and isinstance(e := parts[0], (NilExtOf, CslOf)):
            outcomes.append((key.split("_", 1)[0], isinstance(e, NilExtOf), type_of(e.arg)))

    def evaluate(S: OrderedSemigroup):
        values = {key: holds(S) for key, holds in conditions}
        return values, _equiv_violation(values)

    def explain(S: OrderedSemigroup) -> dict:
        out: dict[str, object] = {}
        for numeral, nilext, tau in outcomes:
            if nilext:
                out[numeral] = _nilext_witness(S, tau)
            elif (csl := is_complete_semilattice_of(S, tau)).holds:
                out[numeral + "_partition"] = csl.witness.classes_as_lists()
        return out | witnesses(S)

    return CatalogEntry(theorem_id, evaluate, explain, **flags)


_CATALOG: dict[str, CatalogEntry] = {
    e.theorem_id: e
    for e in (
        _equivalence(
            "thm-500",
            ("i_right_pi_inverse", "right-pi-inverse"),
            ("ii_idempotents_lstar_implies_rstar", _implies_on_idempotents("L*", "R*")),
            witnesses=_explain_thm_500,
            capped=False,
        ),
        _equivalence(
            "thm-15",
            ("i_right_pi_inverse", "right-pi-inverse"),
            ("ii_some_power_has_r_related_inverses", _raw_right_pi_inverse),
            witnesses=lambda S: {"exponents": list(pi_rv_witness(S))},
            capped=False,
        ),
        _equivalence(
            "thm-74",
            ("i_nilext_left_simple_pi_inverse", "nil-ext-of(left-simple & pi-inverse)"),
            ("ii_pi_inverse_and_l_archimedean", "pi-inverse & l-archimedean"),
            ("iii_pi_inverse_and_lstar_universal", "pi-inverse", _universal("L*")),
            ("iv_pi_inverse_and_idempotents_lstar", "pi-inverse", _on_idempotents("L*")),
            ("v_pi_regular_and_idempotents_hstar", "pi-regular", _on_idempotents("H*")),
            ("vi_pi_regular_and_hstar_universal", "pi-regular", _universal("H*")),
            ("vii_pi_inverse_and_t_archimedean", "pi-inverse & t-archimedean"),
            ("viii_nilext_t_simple_pi_inverse", "nil-ext-of(t-simple & pi-inverse)"),
        ),
        _equivalence(
            "cor-76",
            ("i_nilext_simple_pi_inverse", "nil-ext-of(simple & pi-inverse)"),
            ("ii_pi_inverse_and_idempotents_jstar", "pi-inverse", _on_idempotents("J*")),
        ),
        CatalogEntry("lem-cao", _eval_lem_cao),
        CatalogEntry("lem-ne51", _eval_lem_ne51, _rv_witness, capped=False),
        CatalogEntry("thm-ne511", _eval_thm_ne511, _rv_witness),
        CatalogEntry("lem-ne53", _eval_lem_ne53, _rv_witness),
        _equivalence(
            "thm-1005",
            ("i_nilext_left_simple_rpi", "nil-ext-of(left-simple & right-pi-inverse)"),
            ("ii_rpi_and_l_archimedean", "right-pi-inverse & l-archimedean"),
            ("iii_rpi_and_lstar_universal", "right-pi-inverse", _universal("L*")),
            ("iv_rpi_and_idempotents_lstar", "right-pi-inverse", _on_idempotents("L*")),
            ("v_pi_regular_and_idempotents_hstar", "pi-regular", _on_idempotents("H*")),
            ("vi_pi_regular_and_hstar_universal", "pi-regular", _universal("H*")),
            ("vii_pi_inverse_and_t_archimedean", "pi-inverse & t-archimedean"),
            ("viii_rpi_and_t_archimedean", "right-pi-inverse", _raw_t_archimedean),
            ("ix_nilext_t_simple_rpi", "nil-ext-of(t-simple & right-pi-inverse)"),
        ),
        _equivalence(
            "cor-simple",
            ("i_nilext_simple_rpi", "nil-ext-of(simple & right-pi-inverse)"),
            ("ii_rpi_and_idempotents_jstar", "right-pi-inverse", _on_idempotents("J*")),
            ("iii_rpi_and_jstar_universal", "right-pi-inverse", _universal("J*")),
            ("iv_rpi_and_powers_reach_sbs", "right-pi-inverse", _raw_archimedean),
            ("v_rpi_and_archimedean", "right-pi-inverse & archimedean"),
        ),
        CatalogEntry("cor-rinv-nilext", _eval_cor_rinv_nilext, _explain_cor_rinv_nilext),
        # the paper's (ii) asks the pi intra set to equal the pi rv set; the
        # first is all of a finite S, so (ii) says S is right pi-inverse
        _equivalence(
            "cor-1114",
            ("i_csl_of_nilext_simple_rpi", "csl-of(nil-ext-of(simple & right-pi-inverse))"),
            ("ii_csl_of_nilext_simple_and_intra_matches_rv", "csl-of(nil-ext-of(simple)) & right-pi-inverse"),
            ("iii_rpi_and_csl_of_archimedean", "right-pi-inverse & csl-of(archimedean)"),
            witnesses=_explain_csl_corollary,
        ),
        _equivalence(
            "cor-leftsimple",
            ("i_csl_of_nilext_left_simple_rpi", "csl-of(nil-ext-of(left-simple & right-pi-inverse))"),
            ("ii_csl_of_nilext_left_simple_and_intra_matches_rv", "csl-of(nil-ext-of(left-simple)) & right-pi-inverse"),
            ("iii_rpi_and_csl_of_l_archimedean", "right-pi-inverse & csl-of(l-archimedean)"),
            witnesses=_explain_csl_corollary,
        ),
        # the pi intra set is all of a finite S, so (ii)'s "nonempty" always holds
        _equivalence(
            "thm-774-adapted",
            ("i_nilext_t_simple", "nil-ext-of(t-simple)"),
            ("ii_t_archimedean_and_intra_nonempty", "t-archimedean"),
            witnesses=lambda S: {"pi_intra_set": members(pi_intra_set(S))},
            adapted=True,
        ),
    )
}


def theorem_ids() -> list[str]:
    return list(_CATALOG)


def _entry(theorem_id: str) -> CatalogEntry:
    try:
        return _CATALOG[theorem_id]
    except KeyError:
        raise UnknownTheoremError(theorem_id) from None


def is_adapted(theorem_id: str) -> bool:
    """Whether the entry is an adapted statement (mismatches are warnings)."""
    return _entry(theorem_id).adapted


def precondition_unmet(S: OrderedSemigroup, theorem_id: str) -> str | None:
    """The reason the theorem does not apply to S, or None if it does."""
    if _entry(theorem_id).capped and S.n > MAX_PARTITION_ORDER:
        return f"exhaustive ideal/congruence scan requires order <= {MAX_PARTITION_ORDER}"
    return None


def check(S: OrderedSemigroup, theorem_id: str) -> TheoremReport:
    """The entry's report on S; OrderTooLargeError for a capped entry above
    MAX_PARTITION_ORDER (see precondition_unmet)."""
    entry = _entry(theorem_id)
    if entry.capped:
        _check_order(S.n)
    conditions, violation = entry.evaluate(S)
    if violation is not None and entry.adapted:
        violation = violation | {"note": "adaptation-mismatch"}
    verdict = "consistent" if violation is None else "COUNTEREXAMPLE"
    return TheoremReport(theorem_id, conditions, verdict, violation, entry.adapted, S)


def report_bundle(S: OrderedSemigroup) -> dict:
    """One JSON-ready object per structure: theorem id -> conditions/verdict.

    Skipped theorems appear with the skip reason instead of a verdict.
    Key ordering is the catalog order; serialize with sort_keys for a
    byte-stable encoding.
    """
    reports: dict[str, dict] = {}
    for theorem_id in _CATALOG:
        reason = precondition_unmet(S, theorem_id)
        if reason is not None:
            reports[theorem_id] = {"skipped": reason}
            continue
        rep = check(S, theorem_id)
        entry = rep.to_json_dict()
        del entry["theorem"]
        reports[theorem_id] = entry
    return {"structure": to_json_dict(S), "theorems": reports}

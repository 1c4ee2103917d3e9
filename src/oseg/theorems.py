"""Equivalence-theorem catalog and the per-structure consistency checker.

Each catalog entry evaluates a list of named conditions on one structure,
every condition computed independently (no short-circuiting between
conditions), and then compares the outcome against the claimed logical
shape: an all-equivalent list, an lhs-iff-conjunction, or a family of
checks quantified over every ideal or congruence.  A verdict of
COUNTEREXAMPLE means the structure falsifies the claim as encoded here.
Deciding is split from explaining: an entry's witnesses (ideal members,
exponents, rv sets, partitions) are built only when a report is read.

Condition evaluators call the public operations of the other modules,
so a counterexample localizes a defect; the few conditions whose entire
point is to restate another condition independently recompute their
side from the raw table instead of sharing the cached path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import ideals
from .core import (
    Mask, OrderedSemigroup, _least_power_in, _pairwise_related, derived, downset, full_mask, iter_mask, mask_of,
    members, two_sided,
)
from .decomposition import (
    MAX_PARTITION_ORDER,
    _check_order,
    all_complete_semilattice_congruences,
    is_complete_semilattice_of,
    nil_extension_ideals,
    nil_extension_of_type,
)
from .properties import parse_property_expr, type_of
from .regularity import (
    is_pi_inverse,
    is_right_inverse,
    is_right_pi_inverse,
    ordered_idempotents,
    pi_intra_set,
    pi_rv_set,
    pi_rv_witness,
    regular_elements,
    rv_set,
)
from .relations import green, green_star, is_archimedean


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


def _implication_on(rel_a, rel_b, mask: Mask) -> bool:
    """a ~A b implies a ~B b for all pairs from mask."""
    return all(rel_a.rows[i] & mask & ~rel_b.rows[i] == 0 for i in iter_mask(mask))


@derived
def _raw_power_masks(S: OrderedSemigroup) -> list[Mask]:
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
    return pow_masks


def _type(text: str) -> Callable[[OrderedSemigroup], bool]:
    """The type a search --where expression names, e.g. "simple & pi-inverse"."""
    return type_of(parse_property_expr(text))


TAU_LEFT_SIMPLE_RPI = _type("left-simple & right-pi-inverse")
TAU_T_SIMPLE_RPI = _type("t-simple & right-pi-inverse")
TAU_SIMPLE_RPI = _type("simple & right-pi-inverse")
TAU_LEFT_SIMPLE_PI_INV = _type("left-simple & pi-inverse")
TAU_T_SIMPLE_PI_INV = _type("t-simple & pi-inverse")
TAU_SIMPLE_PI_INV = _type("simple & pi-inverse")
TAU_T_SIMPLE = _type("t-simple")
TAU_RIGHT_INVERSE = _type("right-inverse")


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


def _nilext_explainer(**taus) -> Callable:
    """The explain of an entry whose witnesses are the outcomes of its
    nil-extension conditions, keyed by condition, and the ordered idempotents."""

    def explain(S: OrderedSemigroup) -> dict:
        witnesses: dict[str, object] = {key: _nilext_witness(S, tau) for key, tau in taus.items()}
        witnesses["ordered_idempotents"] = members(ordered_idempotents(S))
        return witnesses

    return explain


def _ideal_key(K: Mask) -> str:
    return "ideal[" + ",".join(str(e) for e in members(K)) + "]"


def _no_witnesses(S: OrderedSemigroup) -> dict:
    return {}


def _rv_witness(S: OrderedSemigroup) -> dict:
    return {"rv_set": members(rv_set(S))}


def _powers_reach_all(pow_masks, targets) -> bool:
    """Some power of every element in each target, target by target."""
    return all(all(p & target for p in pow_masks) for target in targets)


# ---------------------------------------------------------------------------
# catalog evaluators: evaluate(S) gives (conditions, violation) and
# explain(S) the witnesses


def _eval_thm_500(S: OrderedSemigroup):
    rpi = is_right_pi_inverse(S)
    impl = _implication_on(green_star(S, "L*"), green_star(S, "R*"), ordered_idempotents(S))
    conditions = {"i_right_pi_inverse": rpi, "ii_idempotents_lstar_implies_rstar": impl}
    return conditions, None if rpi == impl else {"shape": "equivalence", "conditions": conditions}


def _explain_thm_500(S: OrderedSemigroup) -> dict:
    witnesses: dict[str, object] = {"ordered_idempotents": members(ordered_idempotents(S))}
    if is_right_pi_inverse(S):
        witnesses["right_pi_inverse_exponents"] = list(pi_rv_witness(S))
    return witnesses


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


def _eval_thm_15(S: OrderedSemigroup):
    conditions = {
        "i_right_pi_inverse": is_right_pi_inverse(S),
        "ii_some_power_has_r_related_inverses": _raw_right_pi_inverse(S),
    }
    return conditions, _equiv_violation(conditions)


def _explain_thm_15(S: OrderedSemigroup) -> dict:
    return {"exponents": list(pi_rv_witness(S))}


def _eval_thm_74(S: OrderedSemigroup):
    pinv = is_pi_inverse(S)
    E = ordered_idempotents(S)
    conditions = {
        "i_nilext_left_simple_pi_inverse": nil_extension_of_type(S, TAU_LEFT_SIMPLE_PI_INV) is not None,
        "ii_pi_inverse_and_l_archimedean": pinv and is_archimedean(S, "l"),
        "iii_pi_inverse_and_lstar_universal": pinv and green_star(S, "L*").is_universal(),
        "iv_pi_inverse_and_idempotents_lstar": pinv and _pairwise_related(green_star(S, "L*").rows, E),
        # the pi-regular conjunct holds on every finite structure
        "v_pi_regular_and_idempotents_hstar": _pairwise_related(green_star(S, "H*").rows, E),
        "vi_pi_regular_and_hstar_universal": green_star(S, "H*").is_universal(),
        "vii_pi_inverse_and_t_archimedean": pinv and is_archimedean(S, "t"),
        "viii_nilext_t_simple_pi_inverse": nil_extension_of_type(S, TAU_T_SIMPLE_PI_INV) is not None,
    }
    return conditions, _equiv_violation(conditions)


def _eval_cor_76(S: OrderedSemigroup):
    pinv = is_pi_inverse(S)
    E = ordered_idempotents(S)
    conditions = {
        "i_nilext_simple_pi_inverse": nil_extension_of_type(S, TAU_SIMPLE_PI_INV) is not None,
        "ii_pi_inverse_and_idempotents_jstar": pinv and _pairwise_related(green_star(S, "J*").rows, E),
    }
    return conditions, _equiv_violation(conditions)


def _eval_lem_cao(S: OrderedSemigroup):
    # condition (ii) recomputes the power condition from the raw table;
    # sharing is_nil_extension's loop would collapse the equivalence check
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
    lrel = green(S, "L")
    # never false: an idempotent is regular (see regularity.is_pi_regular)
    conditions: dict[str, bool] = {"regular_elements_exist": regular_elements(S) != 0}
    failures = []
    for K in nil_extension_ideals(S):
        key = _ideal_key(K)
        inside = rv & ~K == 0
        lclasses_ok = all(lrow & ~K == 0 for lrow in lrel.rows if lrow & rv)
        conditions[key + ".i_rv_inside"] = inside
        conditions[key + ".ii_l_classes_meeting_rv_inside"] = lclasses_ok
        if not (inside and lclasses_ok):
            failures.append(members(K))
    return conditions, None if not failures else {"shape": "per-nil-ideal", "ideals": failures}


def _raw_t_archimedean(S: OrderedSemigroup) -> bool:
    """t-Archimedean rebuilt from the table, independent of the closed
    products is_archimedean reads: (aSa] is the downset of the row set aSa."""
    table = S.table
    asa = (downset(S, mask_of(table[x][a] for x in table[a])) for a in range(S.n))
    return _powers_reach_all(_raw_power_masks(S), asa)


def _eval_thm_1005(S: OrderedSemigroup):
    rpi = is_right_pi_inverse(S)
    pinv = is_pi_inverse(S)
    E = ordered_idempotents(S)
    conditions = {
        "i_nilext_left_simple_rpi": nil_extension_of_type(S, TAU_LEFT_SIMPLE_RPI) is not None,
        "ii_rpi_and_l_archimedean": rpi and is_archimedean(S, "l"),
        "iii_rpi_and_lstar_universal": rpi and green_star(S, "L*").is_universal(),
        "iv_rpi_and_idempotents_lstar": rpi and _pairwise_related(green_star(S, "L*").rows, E),
        # the pi-regular conjunct holds on every finite structure
        "v_pi_regular_and_idempotents_hstar": _pairwise_related(green_star(S, "H*").rows, E),
        "vi_pi_regular_and_hstar_universal": green_star(S, "H*").is_universal(),
        "vii_pi_inverse_and_t_archimedean": pinv and is_archimedean(S, "t"),
        "viii_rpi_and_t_archimedean": rpi and _raw_t_archimedean(S),
        "ix_nilext_t_simple_rpi": nil_extension_of_type(S, TAU_T_SIMPLE_RPI) is not None,
    }
    return conditions, _equiv_violation(conditions)


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


def _eval_cor_simple(S: OrderedSemigroup):
    rpi = is_right_pi_inverse(S)
    E = ordered_idempotents(S)
    conditions = {
        "i_nilext_simple_rpi": nil_extension_of_type(S, TAU_SIMPLE_RPI) is not None,
        "ii_rpi_and_idempotents_jstar": rpi and _pairwise_related(green_star(S, "J*").rows, E),
        "iii_rpi_and_jstar_universal": rpi and green_star(S, "J*").is_universal(),
        "iv_rpi_and_powers_reach_sbs": rpi and _raw_archimedean(S),
        "v_rpi_and_archimedean": rpi and is_archimedean(S, "two-sided"),
    }
    return conditions, _equiv_violation(conditions)


def _eval_cor_rinv_nilext(S: OrderedSemigroup):
    lhs = nil_extension_of_type(S, TAU_RIGHT_INVERSE) is not None
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
    violation = (
        None
        if lhs == rhs
        else {"shape": "lhs-iff-conjunction", "conditions": dict(conditions)}
    )
    return conditions, violation


def _explain_cor_rinv_nilext(S: OrderedSemigroup) -> dict:
    witnesses: dict[str, object] = _rv_witness(S)
    K = nil_extension_of_type(S, TAU_RIGHT_INVERSE)
    if K is not None:
        witnesses["ideal"] = members(K)
    return witnesses


def _csl_corollary(simple: str, arch: str) -> tuple[Callable, Callable]:
    """The evaluator and explainer of cor-1114 (simple, archimedean) and
    cor-leftsimple (left-simple, l-archimedean): S is a complete
    semilattice of nil-extensions of `simple` right pi-inverse ones, iff of
    nil-extensions of `simple` ones and right pi-inverse, iff S is right
    pi-inverse and a complete semilattice of `arch` ones.  The paper's (ii)
    asks the pi intra set to equal the pi rv set; the first is all of a
    finite S, so that is right pi-inverseness, which (ii) and (iii) share."""
    ne_rpi = _type(f"nil-ext-of({simple} & right-pi-inverse)")
    ne = _type(f"nil-ext-of({simple})")
    arch_type = _type(arch)
    s, a = simple.replace("-", "_"), arch.replace("-", "_")

    def evaluate(S: OrderedSemigroup):
        rpi = is_right_pi_inverse(S)
        conditions = {
            f"i_csl_of_nilext_{s}_rpi": is_complete_semilattice_of(S, ne_rpi).holds,
            f"ii_csl_of_nilext_{s}_and_intra_matches_rv": is_complete_semilattice_of(S, ne).holds and rpi,
            f"iii_rpi_and_csl_of_{a}": rpi and is_complete_semilattice_of(S, arch_type).holds,
        }
        return conditions, _equiv_violation(conditions)

    def explain(S: OrderedSemigroup) -> dict:
        witnesses: dict[str, object] = {
            "pi_intra_set": members(pi_intra_set(S)),
            "pi_rv_set": members(pi_rv_set(S)),
        }
        csl_ne_rpi = is_complete_semilattice_of(S, ne_rpi)
        if csl_ne_rpi.holds:
            witnesses["i_partition"] = csl_ne_rpi.witness.classes_as_lists()
        return witnesses

    return evaluate, explain


def _eval_thm_774_adapted(S: OrderedSemigroup):
    conditions = {
        "i_nilext_t_simple": nil_extension_of_type(S, TAU_T_SIMPLE) is not None,
        # the pi intra set is all of a finite S, so it is never empty
        "ii_t_archimedean_and_intra_nonempty": is_archimedean(S, "t"),
    }
    violation = _equiv_violation(conditions)
    if violation is not None:
        violation["note"] = "adaptation-mismatch"
    return conditions, violation


def _explain_thm_774_adapted(S: OrderedSemigroup) -> dict:
    return {"i": _nilext_witness(S, TAU_T_SIMPLE), "pi_intra_set": members(pi_intra_set(S))}


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


_CATALOG: dict[str, CatalogEntry] = {
    e.theorem_id: e
    for e in (
        CatalogEntry("thm-500", _eval_thm_500, _explain_thm_500, capped=False),
        CatalogEntry("thm-15", _eval_thm_15, _explain_thm_15, capped=False),
        CatalogEntry(
            "thm-74",
            _eval_thm_74,
            _nilext_explainer(i=TAU_LEFT_SIMPLE_PI_INV, viii=TAU_T_SIMPLE_PI_INV),
        ),
        CatalogEntry("cor-76", _eval_cor_76, _nilext_explainer(i=TAU_SIMPLE_PI_INV)),
        CatalogEntry("lem-cao", _eval_lem_cao),
        CatalogEntry("lem-ne51", _eval_lem_ne51, _rv_witness, capped=False),
        CatalogEntry("thm-ne511", _eval_thm_ne511, _rv_witness),
        CatalogEntry("lem-ne53", _eval_lem_ne53, _rv_witness),
        CatalogEntry(
            "thm-1005",
            _eval_thm_1005,
            _nilext_explainer(i=TAU_LEFT_SIMPLE_RPI, ix=TAU_T_SIMPLE_RPI),
        ),
        CatalogEntry("cor-simple", _eval_cor_simple, _nilext_explainer(i=TAU_SIMPLE_RPI)),
        CatalogEntry("cor-rinv-nilext", _eval_cor_rinv_nilext, _explain_cor_rinv_nilext),
        CatalogEntry("cor-1114", *_csl_corollary("simple", "archimedean")),
        CatalogEntry("cor-leftsimple", *_csl_corollary("left-simple", "l-archimedean")),
        CatalogEntry(
            "thm-774-adapted", _eval_thm_774_adapted, _explain_thm_774_adapted, adapted=True
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
    verdict = "consistent" if violation is None else "COUNTEREXAMPLE"
    return TheoremReport(theorem_id, conditions, verdict, violation, entry.adapted, S)


def check_all(S: OrderedSemigroup) -> list[TheoremReport]:
    """Every catalog theorem whose precondition S meets, in catalog order."""
    out = []
    for theorem_id in _CATALOG:
        if precondition_unmet(S, theorem_id) is None:
            out.append(check(S, theorem_id))
    return out


def report_bundle(S: OrderedSemigroup) -> dict:
    """One JSON-ready object per structure: theorem id -> conditions/verdict.

    Skipped theorems appear with the skip reason instead of a verdict.
    Key ordering is the catalog order; serialize with sort_keys for a
    byte-stable encoding.
    """
    from .core import to_json_dict

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

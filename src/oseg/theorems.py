"""Equivalence-theorem catalog and the per-structure consistency checker.

Each catalog entry evaluates a list of named conditions on one structure,
every condition computed independently (no short-circuiting between
conditions), and then compares the outcome against the claimed logical
shape: an all-equivalent list, an lhs-iff-conjunction, or a family of
checks quantified over every ideal or congruence.  A verdict of
COUNTEREXAMPLE means the structure falsifies the claim as encoded here.

Condition evaluators call the public operations of the other modules,
so a counterexample localizes a defect; the few conditions whose entire
point is to restate another condition independently recompute their
side from the raw table instead of sharing the cached path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from . import ideals
from .core import Mask, OrderedSemigroup, _SaS, downset, iter_mask, members
from .decomposition import (
    MAX_PARTITION_ORDER,
    TypePredicate,
    all_complete_semilattice_congruences,
    is_complete_semilattice_of,
    is_nil_extension,
    nil_extension_ideal_exists,
    nil_extension_of_type,
)
from .regularity import (
    _pairwise_related,
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
from .relations import divides, green, green_star, is_archimedean


class UnknownTheoremError(KeyError):
    pass


class PreconditionUnmetError(ValueError):
    def __init__(self, theorem_id: str, detail: str):
        self.theorem_id = theorem_id
        self.detail = detail
        super().__init__(f"{theorem_id}: {detail}")


@dataclass
class TheoremReport:
    theorem_id: str
    conditions: dict[str, bool]
    verdict: str  # "consistent" | "COUNTEREXAMPLE"
    witnesses: dict[str, object] = field(default_factory=dict)
    violation: dict | None = None
    adapted: bool = False

    @property
    def consistent(self) -> bool:
        return self.verdict == "consistent"

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


def _raw_power_masks(S: OrderedSemigroup) -> list[Mask]:
    """Per element, the mask of a^1..a^n, straight from the table.

    For conditions that restate a cached one independently; sharing
    core._powers would collapse the equivalence they check.
    """
    pow_masks = [0] * S.n
    for a in range(S.n):
        x = a
        for _ in range(S.n):
            pow_masks[a] |= 1 << x
            x = S.table[x][a]
    return pow_masks


def _tau(name: str, *checks: Callable[[OrderedSemigroup], bool]) -> TypePredicate:
    return TypePredicate(name, lambda sub: all(c(sub) for c in checks))


_left_simple = lambda S: ideals.is_simple(S, "left")
_t_simple = lambda S: ideals.is_simple(S, "t")
_simple = lambda S: ideals.is_simple(S, "two-sided")

TAU_LEFT_SIMPLE_RPI = _tau("left-simple & right-pi-inverse", _left_simple, is_right_pi_inverse)
TAU_T_SIMPLE_RPI = _tau("t-simple & right-pi-inverse", _t_simple, is_right_pi_inverse)
TAU_SIMPLE_RPI = _tau("simple & right-pi-inverse", _simple, is_right_pi_inverse)
TAU_LEFT_SIMPLE_PI_INV = _tau("left-simple & pi-inverse", _left_simple, is_pi_inverse)
TAU_T_SIMPLE_PI_INV = _tau("t-simple & pi-inverse", _t_simple, is_pi_inverse)
TAU_SIMPLE_PI_INV = _tau("simple & pi-inverse", _simple, is_pi_inverse)
TAU_T_SIMPLE = _tau("t-simple", _t_simple)
TAU_SIMPLE = _tau("simple", _simple)
TAU_LEFT_SIMPLE = _tau("left-simple", _left_simple)
TAU_RIGHT_INVERSE = _tau("right-inverse", is_right_inverse)
TAU_ARCHIMEDEAN = _tau("archimedean", lambda S: is_archimedean(S, "two-sided"))
TAU_L_ARCHIMEDEAN = _tau("l-archimedean", lambda S: is_archimedean(S, "l"))

TAU_NE_SIMPLE_RPI = TypePredicate(
    "nil-ext-of(simple & right-pi-inverse)",
    lambda S: nil_extension_of_type(S, TAU_SIMPLE_RPI).found,
)
TAU_NE_SIMPLE = TypePredicate(
    "nil-ext-of(simple)", lambda S: nil_extension_of_type(S, TAU_SIMPLE).found
)
TAU_NE_LEFT_SIMPLE_RPI = TypePredicate(
    "nil-ext-of(left-simple & right-pi-inverse)",
    lambda S: nil_extension_of_type(S, TAU_LEFT_SIMPLE_RPI).found,
)
TAU_NE_LEFT_SIMPLE = TypePredicate(
    "nil-ext-of(left-simple)", lambda S: nil_extension_of_type(S, TAU_LEFT_SIMPLE).found
)


def _equiv_verdict(conditions: dict[str, bool]):
    values = set(conditions.values())
    if len(values) == 1:
        return "consistent", None
    return "COUNTEREXAMPLE", {
        "shape": "all-equivalent",
        "true": sorted(k for k, v in conditions.items() if v),
        "false": sorted(k for k, v in conditions.items() if not v),
    }


def _nilext_witness(outcome) -> dict:
    if outcome.found:
        return {
            "ideal": members(outcome.ideal),
            "exponents": list(outcome.exponents),
        }
    return {"reason": outcome.reason}


def _ideal_key(K: Mask) -> str:
    return "ideal[" + ",".join(str(e) for e in members(K)) + "]"


# ---------------------------------------------------------------------------
# catalog evaluators


def _eval_thm_500(S: OrderedSemigroup):
    rpi = is_right_pi_inverse(S)
    E = ordered_idempotents(S)
    impl = _implication_on(green_star(S, "L*"), green_star(S, "R*"), E)
    conditions = {"i_right_pi_inverse": rpi, "ii_idempotents_lstar_implies_rstar": impl}
    witnesses: dict[str, object] = {"ordered_idempotents": members(E)}
    if rpi:
        witnesses["right_pi_inverse_exponents"] = list(pi_rv_witness(S))
    verdict = "consistent" if rpi == impl else "COUNTEREXAMPLE"
    violation = None if rpi == impl else {"shape": "equivalence", "conditions": conditions}
    return conditions, verdict, witnesses, violation


def _eval_thm_15(S: OrderedSemigroup):
    rpi = is_right_pi_inverse(S)
    witness = pi_rv_witness(S)
    power_cond = all(w is not None for w in witness)
    conditions = {
        "i_right_pi_inverse": rpi,
        "ii_some_power_has_r_related_inverses": power_cond,
    }
    witnesses = {"exponents": list(witness)}
    verdict, violation = _equiv_verdict(conditions)
    return conditions, verdict, witnesses, violation


def _eval_thm_74(S: OrderedSemigroup):
    pinv = is_pi_inverse(S)
    E = ordered_idempotents(S)
    ne_left = nil_extension_of_type(S, TAU_LEFT_SIMPLE_PI_INV)
    ne_t = nil_extension_of_type(S, TAU_T_SIMPLE_PI_INV)
    conditions = {
        "i_nilext_left_simple_pi_inverse": ne_left.found,
        "ii_pi_inverse_and_l_archimedean": pinv and is_archimedean(S, "l"),
        "iii_pi_inverse_and_lstar_universal": pinv and green_star(S, "L*").is_universal(),
        "iv_pi_inverse_and_idempotents_lstar": pinv and _pairwise_related(green_star(S, "L*").rows, E),
        # the pi-regular conjunct holds on every finite structure
        "v_pi_regular_and_idempotents_hstar": _pairwise_related(green_star(S, "H*").rows, E),
        "vi_pi_regular_and_hstar_universal": green_star(S, "H*").is_universal(),
        "vii_pi_inverse_and_t_archimedean": pinv and is_archimedean(S, "t"),
        "viii_nilext_t_simple_pi_inverse": ne_t.found,
    }
    witnesses = {
        "i": _nilext_witness(ne_left),
        "viii": _nilext_witness(ne_t),
        "ordered_idempotents": members(E),
    }
    verdict, violation = _equiv_verdict(conditions)
    return conditions, verdict, witnesses, violation


def _eval_cor_76(S: OrderedSemigroup):
    pinv = is_pi_inverse(S)
    E = ordered_idempotents(S)
    ne = nil_extension_of_type(S, TAU_SIMPLE_PI_INV)
    conditions = {
        "i_nilext_simple_pi_inverse": ne.found,
        "ii_pi_inverse_and_idempotents_jstar": pinv and _pairwise_related(green_star(S, "J*").rows, E),
    }
    witnesses = {"i": _nilext_witness(ne), "ordered_idempotents": members(E)}
    verdict, violation = _equiv_verdict(conditions)
    return conditions, verdict, witnesses, violation


def _eval_lem_cao(S: OrderedSemigroup):
    # condition (ii) recomputes the power condition from the raw table;
    # sharing is_nil_extension's loop would collapse the equivalence check
    pow_masks = _raw_power_masks(S)
    conditions: dict[str, bool] = {}
    bad = []
    for K in ideals.all_ideals(S, "two-sided"):
        key = _ideal_key(K)
        nil = is_nil_extension(S, K).ok
        lands = all(pow_masks[a] & K for a in range(S.n))
        conditions[key + ".i_nil_extension"] = nil
        conditions[key + ".ii_every_power_lands"] = lands
        if nil != lands:
            bad.append(members(K))
    verdict = "consistent" if not bad else "COUNTEREXAMPLE"
    violation = None if not bad else {"shape": "per-ideal equivalence", "ideals": bad}
    return conditions, verdict, {}, violation


def _eval_lem_ne51(S: OrderedSemigroup):
    rv = rv_set(S)
    table = S.table
    rng = range(S.n)
    cond_i = all(
        not divides(S, a, c) or divides(S, table[a][a], c)
        for a in rng
        for c in iter_mask(rv)
    )
    cond_ii = all(
        not (divides(S, a, c) and divides(S, b, c)) or divides(S, table[a][b], c)
        for a in rng
        for b in rng
        for c in iter_mask(rv)
    )
    conditions = {"i_square_divides": cond_i, "ii_product_divides": cond_ii}
    witnesses = {"rv_set": members(rv)}
    verdict, violation = _equiv_verdict(conditions)
    return conditions, verdict, witnesses, violation


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
    verdict = "consistent" if not failures else "COUNTEREXAMPLE"
    violation = None if not failures else {"shape": "per-congruence", "failures": failures}
    return conditions, verdict, {"rv_set": members(rv_s)}, violation


def _eval_lem_ne53(S: OrderedSemigroup):
    regs = regular_elements(S)
    rv = rv_set(S)
    lrel = green(S, "L")
    conditions: dict[str, bool] = {"regular_elements_exist": regs != 0}
    failures = []
    for K in ideals.all_ideals(S, "two-sided"):
        if not is_nil_extension(S, K).ok:
            continue
        key = _ideal_key(K)
        inside = rv & ~K == 0
        lclasses_ok = all(lrow & ~K == 0 for lrow in lrel.rows if lrow & rv)
        conditions[key + ".i_rv_inside"] = inside
        conditions[key + ".ii_l_classes_meeting_rv_inside"] = lclasses_ok
        if regs != 0 and not (inside and lclasses_ok):
            failures.append(members(K))
    verdict = "consistent" if not failures else "COUNTEREXAMPLE"
    violation = None if not failures else {"shape": "per-nil-ideal", "ideals": failures}
    return conditions, verdict, {"rv_set": members(rv)}, violation


def _eval_thm_1005(S: OrderedSemigroup):
    rpi = is_right_pi_inverse(S)
    pinv = is_pi_inverse(S)
    E = ordered_idempotents(S)
    t_arch = is_archimedean(S, "t")
    ne_left = nil_extension_of_type(S, TAU_LEFT_SIMPLE_RPI)
    ne_t = nil_extension_of_type(S, TAU_T_SIMPLE_RPI)
    conditions = {
        "i_nilext_left_simple_rpi": ne_left.found,
        "ii_rpi_and_l_archimedean": rpi and is_archimedean(S, "l"),
        "iii_rpi_and_lstar_universal": rpi and green_star(S, "L*").is_universal(),
        "iv_rpi_and_idempotents_lstar": rpi and _pairwise_related(green_star(S, "L*").rows, E),
        # the pi-regular conjunct holds on every finite structure
        "v_pi_regular_and_idempotents_hstar": _pairwise_related(green_star(S, "H*").rows, E),
        "vi_pi_regular_and_hstar_universal": green_star(S, "H*").is_universal(),
        "vii_pi_inverse_and_t_archimedean": pinv and t_arch,
        "viii_rpi_and_t_archimedean": rpi and t_arch,
        "ix_nilext_t_simple_rpi": ne_t.found,
    }
    witnesses = {
        "i": _nilext_witness(ne_left),
        "ix": _nilext_witness(ne_t),
        "ordered_idempotents": members(E),
    }
    verdict, violation = _equiv_verdict(conditions)
    return conditions, verdict, witnesses, violation


def _eval_cor_simple(S: OrderedSemigroup):
    rpi = is_right_pi_inverse(S)
    E = ordered_idempotents(S)
    ne = nil_extension_of_type(S, TAU_SIMPLE_RPI)
    # condition (iv) spelled out by definition, independent of the cached
    # path that condition (v) takes through is_archimedean
    pow_masks = _raw_power_masks(S)
    targets = [downset(S, m) for m in _SaS(S)]
    iv = all(pow_masks[a] & targets[b] for a in range(S.n) for b in range(S.n))
    conditions = {
        "i_nilext_simple_rpi": ne.found,
        "ii_rpi_and_idempotents_jstar": rpi and _pairwise_related(green_star(S, "J*").rows, E),
        "iii_rpi_and_jstar_universal": rpi and green_star(S, "J*").is_universal(),
        "iv_rpi_and_powers_reach_sbs": rpi and iv,
        "v_rpi_and_archimedean": rpi and is_archimedean(S, "two-sided"),
    }
    witnesses = {"i": _nilext_witness(ne), "ordered_idempotents": members(E)}
    verdict, violation = _equiv_verdict(conditions)
    return conditions, verdict, witnesses, violation


def _eval_cor_rinv_nilext(S: OrderedSemigroup):
    K = nil_extension_ideal_exists(S, TAU_RIGHT_INVERSE)
    lhs = K is not None
    rv = rv_set(S)
    table = S.table
    rng = range(S.n)
    g_ii = all(
        rv >> a & 1 or not (rv >> b & 1 and S.leq(a, table[b][a])) for a in rng for b in rng
    )
    g_iii = all(
        rv >> a & 1 or not (rv >> b & 1 and S.leq(a, table[a][b])) for a in rng for b in rng
    )
    g_iv = all(rv >> a & 1 or not (rv >> b & 1 and S.leq(a, b)) for a in rng for b in rng)
    conditions = {
        "nilext_right_inverse": lhs,
        "i_right_pi_inverse": is_right_pi_inverse(S),
        "ii_left_multiple_stays_rv": g_ii,
        "iii_right_multiple_stays_rv": g_iii,
        "iv_below_stays_rv": g_iv,
    }
    witnesses: dict[str, object] = {"rv_set": members(rv)}
    if lhs:
        witnesses["ideal"] = members(K)
    rhs = all(v for k, v in conditions.items() if k != "nilext_right_inverse")
    verdict = "consistent" if lhs == rhs else "COUNTEREXAMPLE"
    violation = (
        None
        if lhs == rhs
        else {"shape": "lhs-iff-conjunction", "conditions": dict(conditions)}
    )
    return conditions, verdict, witnesses, violation


def _eval_cor_1114(S: OrderedSemigroup):
    csl_ne_simple_rpi = is_complete_semilattice_of(S, TAU_NE_SIMPLE_RPI)
    csl_ne_simple = is_complete_semilattice_of(S, TAU_NE_SIMPLE)
    csl_arch = is_complete_semilattice_of(S, TAU_ARCHIMEDEAN)
    sets_match = pi_intra_set(S) == pi_rv_set(S)
    conditions = {
        "i_csl_of_nilext_simple_rpi": csl_ne_simple_rpi.holds,
        "ii_csl_of_nilext_simple_and_intra_matches_rv": csl_ne_simple.holds and sets_match,
        "iii_rpi_and_csl_of_archimedean": is_right_pi_inverse(S) and csl_arch.holds,
    }
    witnesses: dict[str, object] = {
        "pi_intra_set": members(pi_intra_set(S)),
        "pi_rv_set": members(pi_rv_set(S)),
    }
    if csl_ne_simple_rpi.holds:
        witnesses["i_partition"] = csl_ne_simple_rpi.witness.classes_as_lists()
    verdict, violation = _equiv_verdict(conditions)
    return conditions, verdict, witnesses, violation


def _eval_cor_leftsimple(S: OrderedSemigroup):
    csl_ne_ls_rpi = is_complete_semilattice_of(S, TAU_NE_LEFT_SIMPLE_RPI)
    csl_ne_ls = is_complete_semilattice_of(S, TAU_NE_LEFT_SIMPLE)
    csl_larch = is_complete_semilattice_of(S, TAU_L_ARCHIMEDEAN)
    sets_match = pi_intra_set(S) == pi_rv_set(S)
    conditions = {
        "i_csl_of_nilext_left_simple_rpi": csl_ne_ls_rpi.holds,
        "ii_csl_of_nilext_left_simple_and_intra_matches_rv": csl_ne_ls.holds and sets_match,
        "iii_rpi_and_csl_of_l_archimedean": is_right_pi_inverse(S) and csl_larch.holds,
    }
    witnesses: dict[str, object] = {
        "pi_intra_set": members(pi_intra_set(S)),
        "pi_rv_set": members(pi_rv_set(S)),
    }
    if csl_ne_ls_rpi.holds:
        witnesses["i_partition"] = csl_ne_ls_rpi.witness.classes_as_lists()
    verdict, violation = _equiv_verdict(conditions)
    return conditions, verdict, witnesses, violation


def _eval_thm_774_adapted(S: OrderedSemigroup):
    lhs = is_archimedean(S, "t") and pi_intra_set(S) != 0
    ne = nil_extension_of_type(S, TAU_T_SIMPLE)
    conditions = {
        "i_nilext_t_simple": ne.found,
        "ii_t_archimedean_and_intra_nonempty": lhs,
    }
    witnesses = {"i": _nilext_witness(ne), "pi_intra_set": members(pi_intra_set(S))}
    verdict, violation = _equiv_verdict(conditions)
    if violation is not None:
        violation["note"] = "adaptation-mismatch"
    return conditions, verdict, witnesses, violation


# ---------------------------------------------------------------------------
# catalog table


def _needs_small_order(S: OrderedSemigroup) -> str | None:
    if S.n > MAX_PARTITION_ORDER:
        return f"exhaustive ideal/congruence scan requires order <= {MAX_PARTITION_ORDER}"
    return None


@dataclass(frozen=True)
class CatalogEntry:
    theorem_id: str
    evaluate: Callable
    precondition: Callable[[OrderedSemigroup], str | None] | None = None
    adapted: bool = False


_CATALOG: dict[str, CatalogEntry] = {
    e.theorem_id: e
    for e in (
        CatalogEntry("thm-500", _eval_thm_500),
        CatalogEntry("thm-15", _eval_thm_15),
        CatalogEntry("thm-74", _eval_thm_74),
        CatalogEntry("cor-76", _eval_cor_76),
        CatalogEntry("lem-cao", _eval_lem_cao, _needs_small_order),
        CatalogEntry("lem-ne51", _eval_lem_ne51),
        CatalogEntry("thm-ne511", _eval_thm_ne511, _needs_small_order),
        CatalogEntry("lem-ne53", _eval_lem_ne53, _needs_small_order),
        CatalogEntry("thm-1005", _eval_thm_1005),
        CatalogEntry("cor-simple", _eval_cor_simple),
        CatalogEntry("cor-rinv-nilext", _eval_cor_rinv_nilext, _needs_small_order),
        CatalogEntry("cor-1114", _eval_cor_1114, _needs_small_order),
        CatalogEntry("cor-leftsimple", _eval_cor_leftsimple, _needs_small_order),
        CatalogEntry("thm-774-adapted", _eval_thm_774_adapted, adapted=True),
    )
}


def theorem_ids() -> list[str]:
    return list(_CATALOG)


def is_adapted(theorem_id: str) -> bool:
    """Whether the entry is an adapted statement (mismatches are warnings)."""
    try:
        return _CATALOG[theorem_id].adapted
    except KeyError:
        raise UnknownTheoremError(theorem_id) from None


def precondition_unmet(S: OrderedSemigroup, theorem_id: str) -> str | None:
    """The reason the theorem does not apply to S, or None if it does."""
    try:
        entry = _CATALOG[theorem_id]
    except KeyError:
        raise UnknownTheoremError(theorem_id) from None
    if entry.precondition is None:
        return None
    return entry.precondition(S)


def check(S: OrderedSemigroup, theorem_id: str) -> TheoremReport:
    try:
        entry = _CATALOG[theorem_id]
    except KeyError:
        raise UnknownTheoremError(theorem_id) from None
    reason = entry.precondition(S) if entry.precondition else None
    if reason is not None:
        raise PreconditionUnmetError(theorem_id, reason)
    conditions, verdict, witnesses, violation = entry.evaluate(S)
    return TheoremReport(
        theorem_id=theorem_id,
        conditions=conditions,
        verdict=verdict,
        witnesses=witnesses,
        violation=violation,
        adapted=entry.adapted,
    )


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

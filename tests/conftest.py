"""Shared fixtures and the independent brute-force oracles.

Everything prefixed oracle_ recomputes a fact straight from its
definition with naive loops over plain Python sets, deliberately
ignoring the package's representations and shortcuts.  Tests compare
package results against these.
"""

from __future__ import annotations

from itertools import permutations, product

import pytest

from oseg.core import OrderedSemigroup, members
from oseg.enumeration import enumerate_ordered_semigroups
from oseg.fixtures import FIXTURES


# ---------------------------------------------------------------------------
# oracle layer: tables and orders as plain lists/sets


def oracle_associative(table) -> bool:
    n = len(table)
    return all(
        table[table[i][j]][k] == table[i][table[j][k]]
        for i in range(n)
        for j in range(n)
        for k in range(n)
    )


def oracle_poset(leq) -> bool:
    n = len(leq)
    if not all(leq[i][i] for i in range(n)):
        return False
    if any(leq[i][j] and leq[j][i] for i in range(n) for j in range(n) if i != j):
        return False
    return all(
        not (leq[i][j] and leq[j][k]) or leq[i][k]
        for i in range(n)
        for j in range(n)
        for k in range(n)
    )


def oracle_compatible(table, leq) -> bool:
    n = len(table)
    return all(
        not leq[a][b] or (leq[table[x][a]][table[x][b]] and leq[table[a][x]][table[b][x]])
        for a in range(n)
        for b in range(n)
        for x in range(n)
    )


def oracle_all_tables(n):
    """Every associative table, by filtering all n^(n*n) candidates."""
    cells = n * n
    for flat in product(range(n), repeat=cells):
        table = [list(flat[i * n : (i + 1) * n]) for i in range(n)]
        if oracle_associative(table):
            yield table


def oracle_all_orders(n):
    """Every partial order on n points, by filtering all off-diagonal choices."""
    offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
    for bits in product((False, True), repeat=len(offdiag)):
        leq = [[i == j for j in range(n)] for i in range(n)]
        for (i, j), b in zip(offdiag, bits):
            if b:
                leq[i][j] = True
        if oracle_poset(leq):
            yield leq


def oracle_all_structures(n):
    """Every (table, leq) pair passing the definitions, fully brute force."""
    orders = list(oracle_all_orders(n))
    for table in oracle_all_tables(n):
        for leq in orders:
            if oracle_compatible(table, leq):
                yield table, leq


def oracle_downset(leq, A) -> set:
    n = len(leq)
    return {x for x in range(n) if any(leq[x][a] for a in A)}


def oracle_product(table, A, B) -> set:
    return {table[a][b] for a in A for b in B}


def oracle_power(table, a, m) -> int:
    x = a
    for _ in range(m - 1):
        x = table[x][a]
    return x


def oracle_power_values(table, a) -> set:
    """All values of a^m for m >= 1, iterating until the sequence repeats."""
    seen = set()
    x = a
    while x not in seen:
        seen.add(x)
        x = table[x][a]
    return seen


def oracle_divides(table, leq, a, b) -> bool:
    """a | b: b <= x*a*y for some x, y in S u {1}.

    None stands for the adjoined identity, so no extended table is built.
    """

    def mul(x, y):
        return y if x is None else x if y is None else table[x][y]

    s1 = [None, *range(len(table))]
    return any(leq[b][mul(mul(x, a), y)] for x in s1 for y in s1)


def oracle_is_ideal(table, leq, A, kind) -> bool:
    n = len(table)
    if not A:
        return False
    if oracle_downset(leq, A) != A:
        return False
    full = set(range(n))
    if kind == "left":
        return oracle_product(table, full, A) <= A
    if kind == "right":
        return oracle_product(table, A, full) <= A
    if kind == "two-sided":
        return oracle_product(table, full, A) <= A and oracle_product(table, A, full) <= A
    if kind == "bi":
        return oracle_product(table, oracle_product(table, A, full), A) <= A
    raise ValueError(kind)


def oracle_subsets(n):
    for bits in product((False, True), repeat=n):
        yield {i for i in range(n) if bits[i]}


def oracle_principal_ideal(table, leq, a, kind) -> set:
    """L(a) = (a u Sa] etc., straight from the displayed formulas."""
    n = len(table)
    full = set(range(n))
    if kind == "left":
        gens = {a} | oracle_product(table, full, {a})
    elif kind == "right":
        gens = {a} | oracle_product(table, {a}, full)
    elif kind == "two-sided":
        gens = (
            {a}
            | oracle_product(table, full, {a})
            | oracle_product(table, {a}, full)
            | oracle_product(table, oracle_product(table, full, {a}), full)
        )
    elif kind == "bi":
        gens = {a} | oracle_product(table, oracle_product(table, {a}, full), {a})
    else:
        raise ValueError(kind)
    return oracle_downset(leq, gens)


def oracle_simple(table, leq, kind) -> bool:
    """No proper ideal of the kind, by scanning every subset."""
    n = len(table)
    if kind == "t":
        return oracle_simple(table, leq, "left") and oracle_simple(table, leq, "right")
    full = set(range(n))
    return not any(
        A != full and oracle_is_ideal(table, leq, A, kind) for A in oracle_subsets(n) if A
    )


def oracle_regular(table, leq, a) -> bool:
    n = len(table)
    asa = {table[table[a][x]][a] for x in range(n)}
    return a in oracle_downset(leq, asa)


def oracle_inverses(table, leq, a) -> set:
    n = len(table)
    return {
        b
        for b in range(n)
        if leq[a][table[table[a][b]][a]] and leq[b][table[table[b][a]][b]]
    }


def oracle_green_related(table, leq, a, b, which) -> bool:
    if which == "H":
        return oracle_green_related(table, leq, a, b, "L") and oracle_green_related(
            table, leq, a, b, "R"
        )
    kind = {"L": "left", "R": "right", "J": "two-sided"}[which]
    return oracle_principal_ideal(table, leq, a, kind) == oracle_principal_ideal(
        table, leq, b, kind
    )


def oracle_pairwise_r_related(table, leq, xs) -> bool:
    return all(oracle_green_related(table, leq, x, y, "R") for x in xs for y in xs)


def oracle_rv_set(table, leq) -> set:
    n = len(table)
    out = set()
    for a in range(n):
        v = oracle_inverses(table, leq, a)
        if v and oracle_pairwise_r_related(table, leq, v):
            out.add(a)
    return out


def oracle_rv_set_vacuous(table, leq) -> set:
    """The vacuous reading: V(a) empty or pairwise R-related."""
    n = len(table)
    return {
        a
        for a in range(n)
        if oracle_pairwise_r_related(table, leq, oracle_inverses(table, leq, a))
    }


def oracle_pi_rv_set(table, leq) -> set:
    """Some power of a has V nonempty and pairwise R-related."""
    rv = oracle_rv_set(table, leq)
    return {a for a in range(len(table)) if oracle_power_values(table, a) & rv}


def oracle_pi_rv_set_vacuous(table, leq) -> set:
    """Some power of a has V empty or pairwise R-related."""
    rv = oracle_rv_set_vacuous(table, leq)
    return {a for a in range(len(table)) if oracle_power_values(table, a) & rv}


def oracle_right_pi_inverse(table, leq) -> bool:
    """Directly: each element has a power with nonempty, R-related inverses.

    The exponent ranges over every distinct power value, with no a
    priori bound, so this is independent of the package's m <= n search.
    """
    n = len(table)
    for a in range(n):
        ok = False
        for p in oracle_power_values(table, a):
            v = oracle_inverses(table, leq, p)
            if v and oracle_pairwise_r_related(table, leq, v):
                ok = True
                break
        if not ok:
            return False
    return True


def oracle_pi_regular(table, leq) -> bool:
    return all(
        any(oracle_regular(table, leq, p) for p in oracle_power_values(table, a))
        for a in range(len(table))
    )


def oracle_intra_pi_regular(table, leq) -> bool:
    """Some m with a^m below S a^2m S.  The pair (a^m, a^2m) is eventually
    periodic with preamble and period at most n, so m up to 4n is safe."""
    n = len(table)
    full = set(range(n))
    for a in range(n):
        ok = False
        for m in range(1, 4 * n + 1):
            p = oracle_power(table, a, m)
            q = oracle_power(table, a, 2 * m)
            closed = oracle_downset(leq, oracle_product(table, oracle_product(table, full, {q}), full))
            if p in closed:
                ok = True
                break
        if not ok:
            return False
    return True


def oracle_pairwise_related(table, leq, xs, which) -> bool:
    return all(oracle_green_related(table, leq, x, y, which) for x in xs for y in xs)


def oracle_pi_inverse_family(table, leq, which) -> bool:
    """pi-regular with some power of each element having nonempty inverses
    pairwise related under the given Green relation."""
    if not oracle_pi_regular(table, leq):
        return False
    for a in range(len(table)):
        ok = False
        for p in oracle_power_values(table, a):
            v = oracle_inverses(table, leq, p)
            if v and oracle_pairwise_related(table, leq, v, which):
                ok = True
                break
        if not ok:
            return False
    return True


def oracle_right_inverse(table, leq) -> bool:
    n = len(table)
    return (
        all(oracle_regular(table, leq, a) for a in range(n))
        and oracle_rv_set(table, leq) == set(range(n))
    )


def oracle_archimedean(table, leq, flavor) -> bool:
    n = len(table)
    full = set(range(n))
    for a in range(n):
        if flavor == "two-sided":
            gens = oracle_product(table, oracle_product(table, full, {a}), full)
        elif flavor == "l":
            gens = oracle_product(table, full, {a})
        elif flavor == "r":
            gens = oracle_product(table, {a}, full)
        elif flavor == "t":
            gens = oracle_product(table, oracle_product(table, {a}, full), {a})
        else:
            raise ValueError(flavor)
        closed = oracle_downset(leq, gens)
        for b in range(n):
            if not (oracle_power_values(table, b) & closed):
                return False
    return True


def oracle_nil_extension(table, leq, K) -> bool:
    if not oracle_is_ideal(table, leq, K, "two-sided"):
        return False
    return all(oracle_power_values(table, a) & K for a in range(len(table)))


def oracle_partitions(n):
    """Every partition of range(n) as a class-id vector whose ids appear in
    order of first use, lexicographically: the vectors of product(range(n))
    that never skip an id."""
    for labels in product(range(n), repeat=n):
        if all(c <= max(labels[:i], default=-1) + 1 for i, c in enumerate(labels)):
            yield labels


def oracle_csl_congruences(table, leq) -> list[tuple]:
    """Every complete semilattice congruence, in oracle_partitions order,
    from the definition: an equivalence compatible on both sides with
    ab ~ ba, a ~ a*a, and a ~ ab whenever a <= b."""
    n = len(table)
    rng = range(n)
    out = []
    for cls in oracle_partitions(n):
        if (
            all(
                cls[table[a][b]] == cls[table[b][a]]
                and (not leq[a][b] or cls[a] == cls[table[a][b]])
                for a in rng
                for b in rng
            )
            and all(cls[a] == cls[table[a][a]] for a in rng)
            and all(
                cls[a] != cls[b]
                or (cls[table[c][a]] == cls[table[c][b]] and cls[table[a][c]] == cls[table[b][c]])
                for a in rng
                for b in rng
                for c in rng
            )
        ):
            out.append(cls)
    return out


def oracle_relabelings(table, leq) -> list[tuple]:
    """(flat table, down masks) of every renaming x -> p(x), one per p.

    Straight from the definition of an isomorphism: the renamed structure
    has p(x) * p(y) = p(x * y) and p(x) <= p(y) iff x <= y.  down[j] is
    the mask of the i with i <= j, as in the package's key.
    """
    n = len(table)
    keys = []
    for p in permutations(range(n)):
        t = [[0] * n for _ in range(n)]
        le = [[False] * n for _ in range(n)]
        for x in range(n):
            for y in range(n):
                t[p[x]][p[y]] = p[table[x][y]]
                le[p[x]][p[y]] = leq[x][y]
        flat = tuple(v for row in t for v in row)
        down = tuple(sum(1 << i for i in range(n) if le[i][j]) for j in range(n))
        keys.append((flat, down))
    return keys


# ---------------------------------------------------------------------------
# helpers bridging oracle world and package world


def as_structure(table, leq) -> OrderedSemigroup:
    from oseg.core import validate

    return validate(len(table), table, leq)


def structure_tables(S: OrderedSemigroup):
    """(table, leq) of a package structure, as plain lists for the oracles."""
    table = [list(row) for row in S.table]
    leq = [[S.leq(i, j) for j in range(S.n)] for i in range(S.n)]
    return table, leq


def mask_set(mask) -> set:
    return set(members(mask))


# ---------------------------------------------------------------------------
# shared corpora


@pytest.fixture(scope="session")
def corpus2() -> list[OrderedSemigroup]:
    """All raw ordered semigroups of orders 1 and 2."""
    out = []
    for n in (1, 2):
        out.extend(enumerate_ordered_semigroups(n))
    return out


@pytest.fixture(scope="session")
def corpus3() -> list[OrderedSemigroup]:
    """All raw ordered semigroups of orders 1, 2, and 3."""
    out = []
    for n in (1, 2, 3):
        out.extend(enumerate_ordered_semigroups(n))
    return out


@pytest.fixture(params=sorted(FIXTURES), scope="session")
def fixture_structure(request) -> OrderedSemigroup:
    return FIXTURES[request.param]

"""Output checks that do not go through the program's own shortcuts.

The relabeling here is written from the definition of an isomorphism of
ordered semigroups (x*y -> p(x)*p(y), x <= y -> p(x) <= p(y)); it does
not call ``oseg.enumeration._relabel`` or ``canonical_form``.
"""

from __future__ import annotations

import hashlib
from itertools import permutations
from math import factorial


def digest():
    """The running digest every workload folds its output lines into."""
    return hashlib.blake2b(digest_size=8)


def _relabelings(n, table, down):
    """(flat table, down masks) of every renaming of the structure."""
    for p in permutations(range(n)):
        t = [0] * (n * n)
        d = [0] * n
        for i in range(n):
            for j in range(n):
                t[p[i] * n + p[j]] = p[table[i][j]]
                if down[j] >> i & 1:
                    d[p[j]] |= 1 << p[i]
        yield tuple(t), tuple(d)


def relabeling_facts(S) -> tuple[int, bool]:
    """(orbit size n!/|Aut(S)|, whether S's key is least among its renamings).

    Orbit-stabilizer: summed over one representative per class, the orbit
    sizes count the raw structures.
    """
    key = (tuple(v for row in S.table for v in row), tuple(S.down))
    automorphisms = 0
    least = True
    for r in _relabelings(S.n, S.table, S.down):
        automorphisms += r == key
        least = least and key <= r
    return factorial(S.n) // automorphisms, least


def catalog_signature(reports) -> str:
    """One line per structure: every entry's verdict and condition values.

    ``reports`` holds, in catalog order, ``None`` for a skipped entry or
    the entry's ``TheoremReport``.
    """
    parts = []
    for rep in reports:
        if rep is None:
            parts.append("-")
        else:
            bits = "".join("1" if v else "0" for v in rep.conditions.values())
            parts.append(("c" if rep.consistent else "X") + bits)
    return "|".join(parts)

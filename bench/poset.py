"""Seeded random posets and the spec JSON of their incidence algebras.

The incidence algebra I(P, F) of a finite poset P has basis E_xy for x <= y
and product E_xy E_yz = E_xz.  It is reduced: S is spanned by the E_xx, one
degree-1 block each, and J by the strict relations.
"""
from __future__ import annotations

import itertools
import json
import random

POINTS = 4
STRICT = 3


def _closure(rel):
    rel = set(rel)
    while True:
        extra = {(a, d) for (a, b) in rel for (c, d) in rel if b == c} - rel
        if not extra:
            return rel
        rel |= extra


def all_posets() -> list:
    """Every poset on range(POINTS) with exactly STRICT strict relations, as
    sorted relation lists: the antisymmetric, transitively closed sets."""
    pairs = list(itertools.permutations(range(POINTS), 2))
    return [list(rel) for rel in itertools.combinations(pairs, STRICT)
            if not any((b, a) in rel for a, b in rel) and _closure(rel) == set(rel)]


def random_poset(seed: int) -> list:
    """A poset drawn uniformly from all_posets()."""
    return random.Random(seed).choice(all_posets())


def incidence_spec(relations, p: int, points: int = POINTS) -> dict:
    """Spec JSON of I(P, GF(p)) for the strict relations of P."""
    basis = [(x, x) for x in range(points)] + list(relations)
    index = {pair: i for i, pair in enumerate(basis)}
    mul = []
    for (a, b), (c, d) in itertools.product(basis, repeat=2):
        if b == c:
            mul.append([index[(a, b)], index[(c, d)], [[index[(a, d)], 1]]])
    dim = len(basis)
    unit = [1 if i < points else 0 for i in range(dim)]
    blocks = [{"idempotent": [1 if j == x else 0 for j in range(dim)],
               "degree": 1, "basis": [x]} for x in range(points)]
    return {
        "name": f"incidence algebra over GF({p}) of the poset with strict relations "
                + ", ".join(f"{a}<{b}" for a, b in relations),
        "p": p, "k": 1, "dim": dim, "unit": unit, "mul": mul,
        "blocks": blocks, "radical_basis": list(range(points, dim)),
    }


def spec_text(relations, p: int = 3) -> str:
    return json.dumps(incidence_spec(relations, p), indent=1) + "\n"

"""The compiled maps against the literal actions they replace, on every element.

Covers the three maps of the pair (u, w) = (t a, b^-1 t^-1) of a triple
tau = (t, a, b): R_tau on G, rho(tau) on J and rho*(tau)^-1 on J*, for every
triple that sandwich_pairs stands for and 20 seeded random triples, and
conjugation by every s in G, on every acceptance configuration (GF(4)
included) and on both bundled spec files.
"""
import os
import random

import pytest

from supchar.algebra import (
    certified_generators,
    load_algebra_file,
    orbit,
    rho,
    rho_dual,
    rho_dual_map,
    sandwich_map,
    sandwich_pairs,
)
from supchar.errors import NotInRadical
from supchar.superclasses import r_act, r_map

from conftest import (ACCEPTANCE_CONFIGS, dual_vectors, g_elements, get_spec, j_vectors,
                      random_triple)

DATA = os.path.join(os.path.dirname(__file__), "..", "src", "supchar", "data")
SPEC_FILES = ["dual_numbers_q3.json", "triangular_2_3.json"]
CASES = [f"T{n}-{p}^{k}" for n, p, k in ACCEPTANCE_CONFIGS] + SPEC_FILES


def spec_for(case):
    if case in SPEC_FILES:
        return load_algebra_file(os.path.join(DATA, case))
    return get_spec(*ACCEPTANCE_CONFIGS[CASES.index(case)])


def triples(spec):
    """The triples (t, 1, 1), (1, a, 1) and (1, 1, a^-1) of the certified torus
    generators t and parts a, in the order of sandwich_pairs, then 20 seeded
    random triples."""
    torus, parts = certified_generators(spec)
    unit, rng = spec.unit, random.Random(11)
    return [(t, unit, unit) for t in torus] + \
        [tau for a in parts for tau in ((unit, a, unit), (unit, unit, spec.invert(a)))] + \
        [random_triple(spec, rng) for _ in range(20)]


def pair(spec, tau):
    """The sandwich (u, w) = (t a, b^-1 t^-1) of tau = (t, a, b)."""
    t, a, b = tau
    return spec.mul(t, a), spec.mul(spec.invert(b), spec.invert(t))


@pytest.mark.parametrize("case", CASES)
def test_triple_maps_match_literal_actions(case):
    s = spec_for(case)
    gl = g_elements(s)
    xs = j_vectors(s)
    lams = dual_vectors(s)
    pairs = sandwich_pairs(s)
    assert pairs == [pair(s, tau) for tau in triples(s)[:len(pairs)]]
    for tau in triples(s):
        u, w = pair(s, tau)
        f = r_map(s, u, w).apply
        assert all(f(g) == r_act(s, tau, g) for g in gl)
        f = sandwich_map(s, u, w, s.radical_basis).apply
        assert all(f(x) == rho(s, tau, x) for x in xs)
        # lam -> lam(u x w) undoes rho*(tau)
        f = rho_dual_map(s, u, w).apply
        assert all(rho_dual(s, tau, f(lam)) == lam for lam in lams)


@pytest.mark.parametrize("case", CASES)
def test_conjugation_maps_match_mul(case):
    s = spec_for(case)
    gl = g_elements(s)
    for x in gl:
        x_inv = s.invert(x)
        f = sandwich_map(s, x_inv, x).apply
        assert all(f(g) == s.mul_many(x_inv, g, x) for g in gl)


def test_orbit_rejects_start_outside_radical():
    s = get_spec(2, 2)
    with pytest.raises(NotInRadical):
        orbit(s, s.unit, "J")

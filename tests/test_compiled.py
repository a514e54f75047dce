"""The compiled maps against the literal actions they replace, on every element.

Covers R_tau on G, rho on J and rho* on J* for every generator triple and 20
seeded random triples, and conjugation by every s in G, on every acceptance
configuration (GF(4) included) and on both bundled spec files.
"""
import os
import random

import pytest

from supchar.algebra import (
    load_algebra_file,
    orbit,
    rho,
    rho_dual,
    rho_dual_map,
    rho_map,
    sandwich_map,
    tilde_generators,
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
    rng = random.Random(11)
    return tilde_generators(spec) + [random_triple(spec, rng) for _ in range(20)]


@pytest.mark.parametrize("case", CASES)
def test_triple_maps_match_literal_actions(case):
    s = spec_for(case)
    gl = g_elements(s)
    xs = j_vectors(s)
    lams = dual_vectors(s)
    for tau in triples(s):
        f = r_map(s, tau).apply
        assert all(f(g) == r_act(s, tau, g) for g in gl)
        f = rho_map(s, tau).apply
        assert all(f(x) == rho(s, tau, x) for x in xs)
        f = rho_dual_map(s, tau).apply
        assert all(f(lam) == rho_dual(s, tau, lam) for lam in lams)


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
        orbit(s, s.unit, "rho")

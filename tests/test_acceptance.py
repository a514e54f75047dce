"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `python3 -m pytest tests/test_acceptance.py -v -s` to see the lines.
"""
import os
from fractions import Fraction

import pytest

from supchar.algebra import (
    group_order,
    is_singular,
    load_algebra_file,
    orbit_census,
)
from supchar.cyclo import CycloNumber
from supchar import cli
from supchar.superclasses import predicted_count
from supchar.supercharacters import (
    InductionContext,
    axioms_report,
    build_table,
    enumerate_labels,
    stabilizer_data,
)
from supchar import triangular as tri

from conftest import get_field, get_partition, get_spec, points_of

CONFIGS = [(2, 2, 1), (2, 3, 1), (2, 2, 2), (3, 2, 1), (3, 3, 1), (4, 2, 1)]
DATA = os.path.join(os.path.dirname(cli.__file__), "data")


def emit(name: str, ok: bool, detail: str = ""):
    print(f"{name} {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name} {detail}"


def q_of(p, k):
    return p ** k


def test_ac1_oracle_equivalence():
    total = 0
    configs = CONFIGS + [(4, 3, 1)]
    for n, p, k in configs:
        F = get_field(p, k)
        closed = tri.table(n, F, mode="closed")
        brute = tri.table(n, F, mode="brute")
        diffs = tri.compare_tables(closed, brute)
        assert diffs == [], f"(n={n}, q={q_of(p, k)}): {diffs[:3]}"
        total += len(closed.row_labels) * len(closed.col_labels)
    emit("AC-1", True, f"closed form matches brute force on {len(configs)} "
         f"configurations, {total} entries compared exactly")


def test_ac2_count_identities():
    anchors = {(2, 2, 1): 2, (2, 3, 1): 5, (3, 2, 1): 5}
    for n, p, k in CONFIGS:
        spec = get_spec(n, p, k)
        q = q_of(p, k)
        partition = get_partition(n, p, k)
        labels = enumerate_labels(spec, orbit_census(spec, "J*"))
        pred = predicted_count(spec, orbit_census(spec, "J"))
        formula = sum((q - 1) ** (n - len(d.rowcol()))
                      for d in tri.basic_subsets(n))
        assert pred == len(partition) == len(labels) == formula, \
            f"(n={n}, q={q}): {pred}, {len(partition)}, {len(labels)}, {formula}"
        if (n, p, k) in anchors:
            assert pred == anchors[(n, p, k)]
    emit("AC-2", True, "predicted = classes = characters = rook-placement sum "
         "on all configurations, anchors 2/5/5 confirmed")


def test_ac3_axioms():
    for n, p, k in CONFIGS:
        spec = get_spec(n, p, k)
        partition = get_partition(n, p, k)
        labels = enumerate_labels(spec, orbit_census(spec, "J*"))
        ctx = InductionContext(spec, 2 ** 17)
        table = build_table(spec, partition, labels, 2 ** 17, ctx=ctx)
        report = axioms_report(spec, table, partition, ctx.classes)
        failed = [r.name for r in report if not r.passed]
        assert not failed, f"(n={n}, q={q_of(p, k)}): {failed}"
    emit("AC-3", True, "constancy, identity singleton, orthogonality, "
         "conjugacy refinement, regular character on all configurations")


def test_ac4_orbit_theory():
    specs = [(n, p, 1) for n in (2, 3, 4) for p in (2, 3)]
    for n, p, k in specs:
        spec = get_spec(n, p, k)
        cj = orbit_census(spec, "J")
        cd = orbit_census(spec, "J*")
        assert cj.n_e == cd.n_e, f"t({n},{p}): {cj.n_e} != {cd.n_e}"
        assert cj.residual == 0 and cd.residual == 0
        for census, is_form in ((cj, False), (cd, True)):
            for orb in census.orbits:
                flags = {is_singular(spec, v, is_form) for v in points_of(spec, orb)}
                assert len(flags) == 1, f"t({n},{p}): singularity not orbit-constant"
        for d in tri.basic_subsets(n):
            want = tri.is_regular_D(d, n)
            assert is_singular(spec, tri.x_D(spec, n, d)) == (not want)
            assert is_singular(spec, tri.lambda_D(n, d), True) == (not want)
    custom = load_algebra_file(os.path.join(DATA, "dual_numbers_q3.json"))
    ccj = orbit_census(custom, "J")
    ccd = orbit_census(custom, "J*")
    assert ccj.n_e == ccd.n_e and ccj.residual == 0 and ccd.residual == 0
    emit("AC-4", True, "orbit duality, zero residuals, orbit-constant "
         "singularity, annihilator vs combinatorial criterion, n <= 4, q <= 3 "
         "plus the bundled custom algebra")


def test_ac5_hand_anchors():
    F2 = get_field(2)
    t22 = tri.table(2, F2, mode="closed")
    m2 = t22.cyclo_order
    want = [[CycloNumber.rational(m2, 1), CycloNumber.rational(m2, 1)],
            [CycloNumber.rational(m2, 1), CycloNumber.rational(m2, -1)]]
    assert [list(r) for r in t22.values] == want

    F3 = get_field(3)
    t23 = tri.table(2, F3, mode="closed")
    m3 = t23.cyclo_order
    big = t23.values[-1]
    assert [v.rational_value() if v.is_rational() else None for v in big] == \
        [4, 0, 0, 0, -2]

    # regular character: coefficient 1 on each linear row, 2 on the big row
    spec = get_spec(2, 3)
    coeffs = [1, 1, 1, 1, 2]
    regular = [CycloNumber.zero(m3) for _ in range(5)]
    for c, row in zip(coeffs, t23.values):
        regular = [acc + v * c for acc, v in zip(regular, row)]
    assert regular[0] == CycloNumber.rational(m3, group_order(spec))
    assert all(v.is_zero() for v in regular[1:])
    emit("AC-5", True, "T(2,2) = [[1,1],[1,-1]]; T(2,3) big row (4,0,0,0,-2); "
         "regular character (12,0,0,0,0)")


def test_ac6_degree_identity():
    for n, p, k in CONFIGS:
        F = get_field(p, k)
        q = F.q
        spec = get_spec(n, p, k)
        order_g = group_order(spec)
        _, char_labels = tri.labels(n, F)
        identity = tri.TriSuperclassLabel((1,) * n, tri.BasicSubset(()))
        for lbl in char_labels:
            deg = tri.value(lbl, identity, F).rational_value()
            stab = stabilizer_data(spec, *_lam_e(spec, n, lbl))
            assert deg == Fraction(order_g, stab.size), lbl.render()
            power = sum(r.col - r.row - 1 for r in lbl.d.roots)
            assert deg == q ** power * (q - 1) ** len(lbl.d.rowcol()), lbl.render()
    emit("AC-6", True, "value at identity = |G|/|G_lambda| = "
         "q^sum(j-i-1) * (q-1)^|rows u cols| on all configurations")


def _lam_e(spec, n, lbl):
    gen = tri.to_general_label(spec, n, lbl)
    return gen.lambda_rep, gen.e


def test_ac7_determinism(tmp_path):
    blobs = []
    for i in range(3):
        out = tmp_path / f"run{i}.csv"
        diff = tmp_path / f"run{i}.diff"
        code = cli.main(["table", "--n", "3", "--p", "2", "--mode", "both",
                         "--out", str(out), "--diff-out", str(diff)])
        assert code == 0
        blobs.append(out.read_bytes() + diff.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]
    emit("AC-7", True, "table --mode both byte-identical across three repeated runs")

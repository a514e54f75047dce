"""Stabilizers G_lambda, the linear character xi, literal induction, inner
products, and the supercharacter-theory axiom report."""
from __future__ import annotations

import csv
import io
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .algebra import (
    AlgebraSpec,
    block_component,
    corner_orbit,
    form_support,
    g_elements,
    group_order,
    h_elements,
    make_triple,
    orbit,
    orbit_support,
    sandwich_map,
)
from .cyclo import CycloNumber
from .errors import (
    GroupTooLarge,
    NotConstantOnSuperclass,
    NotInStabilizer,
    NotRegular,
    PartitionMismatch,
)
from .fields import additive_char_exponent
from .superclasses import identity_index


@dataclass(frozen=True)
class SupercharLabel:
    e: frozenset                # blocks of the corner carrying the orbit
    f: frozenset                # blocks where theta restricts nontrivially
    theta: tuple[int, ...]      # one exponent per block, 0 on blocks of e
    lambda_rep: tuple           # canonical form representative (radical coords)

    def sort_key(self):
        return (tuple(sorted(self.e)), tuple(sorted(self.f)), self.theta, self.lambda_rep)

    def render(self) -> str:
        e = ",".join(str(i + 1) for i in sorted(self.e))
        f = ",".join(str(i + 1) for i in sorted(self.f))
        return f"e={{{e}}};f={{{f}}};theta={list(self.theta)};l={list(self.lambda_rep)}"


@dataclass
class StabilizerData:
    lam: tuple
    e: frozenset
    j_right_basis: list
    j_right: set            # radical-coord tuples
    h_eprime: list
    g_lambda: set
    size: int


@dataclass
class ClassFunction:
    values: tuple           # CycloNumbers aligned with the partition order
    degree: CycloNumber


def stabilizer_data(spec: AlgebraSpec, lam, e: frozenset,
                    check_regular: bool = True) -> StabilizerData:
    """J_{lam,right}, H_{e'}, and G_lam = H_{e'} (1 + J_{lam,right})."""
    F = spec.field
    if check_regular:
        if form_support(spec, lam) != e or \
                orbit_support(spec, corner_orbit(spec, e, lam, "rho_dual")) != e:
            raise NotRegular(f"form {lam} is not regular in the corner of {sorted(e)}")

    rad = list(spec.radical_basis)
    rows = []
    for r in rad:
        rows.append([spec.form_eval(lam, spec.mul(spec.basis_vec(c), spec.basis_vec(r)))
                     for c in rad])
    basis = linalg.kernel_basis(F, rows)
    j_right = set(linalg.span(F, basis, dim=len(rad)))

    hs = []
    for h in h_elements(spec):
        if all(block_component(spec, h, i) == spec.blocks[i].idempotent for i in e):
            hs.append(h)

    g_lam = set()
    for h in hs:
        for u in j_right:
            g_lam.add(spec.mul(h, spec.add(spec.unit, spec.j_embed(u))))
    assert len(g_lam) == len(hs) * len(j_right)

    # cross-check: H_{e'} = H_{lam,right} /\ H_{lam,left}
    def fixes(h):
        right = tuple(spec.form_eval(lam, spec.mul(h, spec.basis_vec(r))) for r in rad)
        left = tuple(spec.form_eval(lam, spec.mul(spec.basis_vec(r), h)) for r in rad)
        return right == lam and left == lam
    both = [h for h in h_elements(spec) if fixes(h)]
    assert sorted(both) == sorted(hs), "H_{e'} != H_right /\\ H_left for a regular form"

    return StabilizerData(tuple(lam), e, basis, j_right, hs, g_lam, len(g_lam))


def theta_exponent(spec: AlgebraSpec, theta, h) -> int:
    """Exponent j with theta(h) = zeta_m^j, multiplying over the torus blocks."""
    m = spec.cyclo_order
    out = 0
    for i, exp in enumerate(theta):
        order = spec.block_orders[i]
        if order == 1 or exp % order == 0:
            continue
        comp = block_component(spec, h, i)
        out = (out + exp * spec.block_dlog[i][comp] * (m // order)) % m
    return out


def xi_exponent(spec: AlgebraSpec, stab: StabilizerData, theta, g) -> int:
    """Exponent of xi(g) = theta(h) eps^{lam(x)} as a power of zeta_m."""
    h = spec.s_part(g)
    x = spec.j_part(g)
    if h not in set(stab.h_eprime) or spec.j_coords(x) not in stab.j_right:
        raise NotInStabilizer(f"{g} does not lie in G_lambda")
    m = spec.cyclo_order
    add = additive_char_exponent(spec.field, spec.form_eval(stab.lam, x), m)
    return (theta_exponent(spec, theta, h) + add) % m


def xi(spec: AlgebraSpec, label: SupercharLabel, g,
       stab: StabilizerData | None = None) -> CycloNumber:
    if stab is None:
        stab = stabilizer_data(spec, label.lambda_rep, label.e)
    return CycloNumber.root(spec.cyclo_order, xi_exponent(spec, stab, label.theta, g))


class InductionContext:
    """Shared conjugation data for literal induction: the compiled maps
    x -> s^{-1} x s for s in G, and memoized multisets of s^{-1} g s."""

    def __init__(self, spec: AlgebraSpec, bound: int):
        size = group_order(spec)
        if size > bound:
            raise GroupTooLarge(f"|G| = {size} exceeds bound {bound}")
        self.conj = [sandwich_map(spec, spec.invert(s), s).apply for s in g_elements(spec)]
        self._memo: dict = {}

    def conj_counter(self, g) -> Counter:
        got = self._memo.get(g)
        if got is None:
            got = Counter(f(g) for f in self.conj)
            self._memo[g] = got
        return got


def induce(spec: AlgebraSpec, label: SupercharLabel, partition,
           ctx: InductionContext, constancy: str = "full",
           stab: StabilizerData | None = None, seed: int = 0) -> ClassFunction:
    """ind(xi, G_lambda, G) by the literal averaging formula, constancy-checked."""
    if stab is None:
        stab = stabilizer_data(spec, label.lambda_rep, label.e)
    m = spec.cyclo_order
    # xi tabulated once on G_lambda; a key miss means v lies outside G_lambda
    xi_exp = {v: xi_exponent(spec, stab, label.theta, v) for v in stab.g_lambda}

    def value_at(g) -> CycloNumber:
        counts: Counter = Counter()
        for v, cnt in ctx.conj_counter(g).items():
            e = xi_exp.get(v)
            if e is not None:
                counts[e] += cnt
        out = CycloNumber.zero(m)
        for e, cnt in counts.items():
            out = out + CycloNumber.root(m, e) * cnt
        return out / stab.size

    rng = random.Random(seed)
    values = []
    for rec in partition:
        members = sorted(rec.members)
        if constancy == "sample" and len(members) > 4:
            members = [rec.representative] + rng.sample(members, 3)
        elif constancy == "none":
            members = [rec.representative]
        vals = [value_at(g) for g in members]
        if any(v != vals[0] for v in vals[1:]):
            raise NotConstantOnSuperclass(f"induced character varies on {rec.representative}")
        values.append(vals[0])

    idx = identity_index(spec, partition)
    degree = values[idx]
    expected = Fraction(group_order(spec), stab.size)
    assert degree == expected, f"degree {degree} != |G|/|G_lambda| = {expected}"
    return ClassFunction(tuple(values), degree)


def inner_product(partition, phi: ClassFunction, psi: ClassFunction,
                  order: int) -> CycloNumber:
    if len(phi.values) != len(partition) or len(psi.values) != len(partition):
        raise PartitionMismatch("class functions defined on different partitions")
    m = phi.values[0].order
    out = CycloNumber.zero(m)
    for rec, a, b in zip(partition, phi.values, psi.values):
        out = out + a * b.conj() * rec.size
    return out / order


def enumerate_labels(spec: AlgebraSpec, dual_census) -> list[SupercharLabel]:
    """All quadruples (e, f, theta, orbit): one per regular corner orbit in J*
    and torus character associated with an orthogonal idempotent f."""
    nb = len(spec.blocks)
    labels = []
    for orb, supp in zip(dual_census.orbits, dual_census.supports):
        lam_rep = min(v for v in orb.members if form_support(spec, v) <= supp)
        rest = sorted(set(range(nb)) - supp)
        for fmask in range(2 ** len(rest)):
            fset = frozenset(rest[i] for i in range(len(rest)) if fmask >> i & 1)
            theta_lists = [[]]
            ok = True
            for i in range(nb):
                if i in fset:
                    opts = list(range(1, spec.block_orders[i]))
                    if not opts:
                        ok = False
                        break
                else:
                    opts = [0]
                theta_lists = [t + [o] for t in theta_lists for o in opts]
            if not ok:
                continue
            for t in theta_lists:
                labels.append(SupercharLabel(supp, fset, tuple(t), lam_rep))
    labels.sort(key=lambda l: l.sort_key())
    return labels


# ---------------------------------------------------------------------------
# the character table
# ---------------------------------------------------------------------------

@dataclass
class CharacterTable:
    row_labels: list
    col_labels: list
    sizes: list
    values: list            # values[r][c]: CycloNumber
    group_order: int
    cyclo_order: int
    constancy: str = "full"

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["class"] + [l.render() for l in self.col_labels])
        w.writerow(["size"] + ["" if s is None else s for s in self.sizes])
        for lbl, row in zip(self.row_labels, self.values):
            w.writerow([lbl.render()] + [v.render() for v in row])
        return buf.getvalue()

    def to_json(self) -> dict:
        return {
            "group_order": self.group_order,
            "cyclo_order": self.cyclo_order,
            "columns": [
                {"label": l.render(), "size": s}
                for l, s in zip(self.col_labels, self.sizes)
            ],
            "rows": [
                {
                    "label": lbl.render(),
                    "values": [
                        [[c.numerator, c.denominator] for c in v.coeffs] for v in row
                    ],
                }
                for lbl, row in zip(self.row_labels, self.values)
            ],
        }


def build_table(spec: AlgebraSpec, partition, labels, bound: int,
                constancy: str = "full") -> CharacterTable:
    """Induce every supercharacter and assemble the exact table."""
    ctx = InductionContext(spec, bound)
    funcs = [induce(spec, l, partition, ctx, constancy=constancy) for l in labels]
    return CharacterTable(
        row_labels=list(labels),
        col_labels=[r.label for r in partition],
        sizes=[r.size for r in partition],
        values=[list(f.values) for f in funcs],
        group_order=group_order(spec),
        cyclo_order=spec.cyclo_order,
        constancy=constancy,
    )


# ---------------------------------------------------------------------------
# axiom checks
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    passed: bool
    details: str = ""


def axioms_report(spec: AlgebraSpec, table: CharacterTable, partition,
                  conj_classes=None) -> list[CheckResult]:
    """Pass/fail per supercharacter-theory axiom plus the standard consequences."""
    out = []
    nrows = len(table.row_labels)
    ncols = len(table.col_labels)
    out.append(CheckResult("S1", nrows == ncols, f"{nrows} characters, {ncols} classes"))

    out.append(CheckResult(
        "S2", table.constancy == "full",
        "constancy verified on every group element during induction"
        if table.constancy == "full" else f"constancy checked at level: {table.constancy}"))

    idx = identity_index(spec, partition)
    singleton = partition[idx].size == 1
    out.append(CheckResult("S3", singleton, f"identity class size {partition[idx].size}"))

    funcs = [ClassFunction(tuple(row), row[idx]) for row in table.values]
    disjoint = True
    bad = ""
    for i in range(nrows):
        for j in range(i + 1, nrows):
            ip = inner_product(partition, funcs[i], funcs[j], table.group_order)
            if not ip.is_zero():
                disjoint = False
                bad = f"<{i},{j}> = {ip.render()}"
                break
        if not disjoint:
            break
    out.append(CheckResult("disjoint", disjoint, bad or "all off-diagonal inner products 0"))

    if conj_classes is None:
        from .superclasses import conjugacy_classes
        conj_classes = conjugacy_classes(spec)
    member_to_class = {}
    for ci, rec in enumerate(partition):
        for g in rec.members:
            member_to_class[g] = ci
    refines = all(len({member_to_class[g] for g in cls}) == 1 for cls in conj_classes)
    out.append(CheckResult("conjugacy-refinement", refines,
                           f"{len(conj_classes)} conjugacy classes"))

    # regular character: rho = sum a_alpha chi_alpha with a_alpha > 0 rational
    m = table.cyclo_order
    ok = True
    details = []
    coeffs = []
    for f in funcs:
        norm = inner_product(partition, f, f, table.group_order)
        if not (norm.is_rational() and norm.rational_value() > 0 and f.degree.is_rational()):
            ok = False
            break
        a = f.degree.rational_value() / norm.rational_value()
        if a <= 0:
            ok = False
            break
        coeffs.append(a)
    if ok:
        for ci in range(ncols):
            total = CycloNumber.zero(m)
            for a, f in zip(coeffs, funcs):
                total = total + f.values[ci] * a
            want = Fraction(table.group_order) if ci == idx else Fraction(0)
            if total != CycloNumber.rational(m, want):
                ok = False
                details.append(f"reconstruction off at class {ci}")
                break
    out.append(CheckResult("regular-character", ok,
                           "; ".join(details) or f"coefficients {sorted(set(map(str, coeffs)))}"))
    return out


# ---------------------------------------------------------------------------
# restriction to N (weak decomposition check)
# ---------------------------------------------------------------------------

def nn_orbits(spec: AlgebraSpec):
    """N x N-orbits in J* (the triple-group action with trivial torus part)."""
    gens = []
    for r in spec.radical_basis:
        b = spec.basis_vec(r)
        for c in range(1, spec.field.q):
            a = spec.add(spec.unit, spec.smul(c, b))
            gens.append(make_triple(spec, spec.unit, a, spec.unit))
            gens.append(make_triple(spec, spec.unit, spec.unit, a))
    seen = set()
    orbits = []
    for v in spec.dual_vectors():
        if v in seen:
            continue
        orb = orbit(spec, v, "rho_dual", generators=gens, verify=False)
        seen |= orb.members
        orbits.append(orb)
    orbits.sort(key=lambda o: o.representative)
    return orbits


def n_supercharacter(spec: AlgebraSpec, mu, bound: int = 2 ** 17) -> dict:
    """The induced character ind(xi_mu, N_{mu,right}, N), as values on all of N."""
    F = spec.field
    nl = [spec.add(spec.unit, x) for x in spec.j_vectors()]
    if len(nl) > bound:
        raise GroupTooLarge(f"|N| = {len(nl)} exceeds bound {bound}")
    rad = list(spec.radical_basis)
    rows = [[spec.form_eval(mu, spec.mul(spec.basis_vec(c), spec.basis_vec(r))) for c in rad]
            for r in rad]
    right = set(linalg.span(F, linalg.kernel_basis(F, rows), dim=len(rad)))
    m = spec.cyclo_order
    conj = [sandwich_map(spec, spec.invert(s), s).apply for s in nl]
    out = {}
    for g in nl:
        counts: Counter = Counter()
        for f in conj:
            v = f(g)
            coords = spec.j_coords(spec.sub(v, spec.unit))
            if coords in right:
                counts[additive_char_exponent(F, spec.form_eval(mu, spec.j_embed(coords)), m)] += 1
        val = CycloNumber.zero(m)
        for e, cnt in counts.items():
            val = val + CycloNumber.root(m, e) * cnt
        out[g] = val / len(right)
    return out


def n_characters(spec: AlgebraSpec) -> list:
    """(N x N-orbit, its N-supercharacter) for every orbit of nn_orbits."""
    return [(orb, n_supercharacter(spec, orb.representative)) for orb in nn_orbits(spec)]


def restriction_check(spec: AlgebraSpec, label: SupercharLabel, cf: ClassFunction,
                      partition, n_chars=None):
    """Weak form of the restriction formula: Res_N(chi) decomposes over the
    N-supercharacters with nonnegative rational coefficients, supported on the
    torus conjugates of lambda.  Returns (passed, coefficient map).

    n_chars is n_characters(spec); pass it in to share it between labels."""
    nl = [spec.add(spec.unit, x) for x in spec.j_vectors()]
    member_to_idx = {}
    for ci, rec in enumerate(partition):
        for g in rec.members:
            member_to_idx[g] = ci
    res = {g: cf.values[member_to_idx[g]] for g in nl}

    if n_chars is None:
        n_chars = n_characters(spec)

    def nip(f1, f2):
        m = spec.cyclo_order
        out = CycloNumber.zero(m)
        for g in nl:
            out = out + f1[g] * f2[g].conj()
        return out / len(nl)

    lam = label.lambda_rep
    rad = list(spec.radical_basis)
    allowed = set()
    for t in h_elements(spec):
        t_inv = spec.invert(t)
        conj_lam = tuple(spec.form_eval(lam, spec.mul_many(t_inv, spec.basis_vec(r), t))
                         for r in rad)
        for oi, (orb, _) in enumerate(n_chars):
            if conj_lam in orb.members:
                allowed.add(oi)

    m = spec.cyclo_order
    coeffs = {}
    recon = {g: CycloNumber.zero(m) for g in nl}
    ok = True
    for oi, (orb, chi) in enumerate(n_chars):
        num = nip(res, chi)
        den = nip(chi, chi)
        if not (num.is_rational() and den.is_rational()):
            ok = False
            break
        c = num.rational_value() / den.rational_value()
        coeffs[orb.representative] = c
        if c < 0:
            ok = False
        if c != 0 and oi not in allowed:
            ok = False
        if c != 0:
            for g in nl:
                recon[g] = recon[g] + chi[g] * c
    if ok:
        ok = all(recon[g] == res[g] for g in nl)
    return ok, coeffs

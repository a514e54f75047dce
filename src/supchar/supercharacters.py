"""Stabilizers G_lambda, the linear character xi, literal induction, inner
products, and the supercharacter-theory axiom report."""
from __future__ import annotations

import csv
import io
from collections import Counter, defaultdict, namedtuple
from fractions import Fraction
from itertools import product
from math import lcm
from operator import mul

from . import linalg
from .algebra import (
    AlgebraSpec,
    LinearMap,
    OrbitRecord,
    block_component,
    certified_generators,
    form_support,
    group_order,
    h_elements,
    orbit,
    orbit_partition,
    orbit_support,
    rho_dual_map,
    sandwich_map,
)
from .cyclo import CycloNumber, cyclotomic_poly
from .errors import (
    GroupTooLarge,
    NotConstantOnSuperclass,
    NotInStabilizer,
    NotRegular,
    OrderMismatch,
    PartitionMismatch,
)
from .fields import additive_char_exponent
from .superclasses import identity_index, r_map, superclass_index


class SupercharLabel(namedtuple("SupercharLabel", [
        "e",            # blocks of the corner carrying the orbit
        "f",            # blocks where theta restricts nontrivially
        "theta",        # one exponent per block, 0 on blocks of e
        "lambda_rep"])):    # canonical form representative (radical coords)
    __slots__ = ()

    def sort_key(self):
        return (tuple(sorted(self.e)), tuple(sorted(self.f)), self.theta, self.lambda_rep)

    def render(self) -> str:
        e = ",".join(str(i + 1) for i in sorted(self.e))
        f = ",".join(str(i + 1) for i in sorted(self.f))
        return f"e={{{e}}};f={{{f}}};theta={list(self.theta)};l={list(self.lambda_rep)}"


class StabilizerData(namedtuple("StabilizerData", [
        "lam",
        "j_right",      # radical-coord tuples
        "g_lambda",     # h -> {h (1 + u): exponent of eps^{lam(h u)} as a power of zeta_m}
        "size"])):
    __slots__ = ()


class ClassFunction(namedtuple("ClassFunction", "values degree")):
    __slots__ = ()  # values: CycloNumbers aligned with the partition order


def stabilizer_data(spec: AlgebraSpec, lam, e: frozenset) -> StabilizerData:
    """J_{lam,right}, H_{e'}, and G_lam = H_{e'} (1 + J_{lam,right}), for a form
    lam regular in the corner of e (NotRegular otherwise)."""
    if form_support(spec, lam) != e or orbit_support(spec, orbit(spec, lam, "rho_dual"))[0] != e:
        raise NotRegular(f"form {lam} is not regular in the corner of {sorted(e)}")

    rad = list(spec.radical_basis)
    hs = [h for h in h_elements(spec)
          if all(block_component(spec, h, i) == spec.blocks[i].idempotent for i in e)]

    # cross-check: H_{e'} = H_{lam,right} /\ H_{lam,left}
    def fixes(h):
        right = tuple(spec.form_eval(lam, spec.mul(h, spec.basis_vec(r))) for r in rad)
        left = tuple(spec.form_eval(lam, spec.mul(spec.basis_vec(r), h)) for r in rad)
        return right == lam and left == lam
    both = [h for h in h_elements(spec) if fixes(h)]
    if sorted(both) != sorted(hs):
        raise NotInStabilizer(f"H_{{e'}} != H_right /\\ H_left for the regular form {lam}")
    return right_stabilizer(spec, lam, hs)


def right_stabilizer(spec: AlgebraSpec, lam, hs) -> StabilizerData:
    """hs (1 + J_{lam,right}) with J_{lam,right} = {u in J : lam(u J) = 0}: G_lam
    for hs = H_{e'}, and N_{lam,right} in N = 1 + J for hs = [1].

    Each element h (1 + u) = h + h u is recorded under h with the exponent of
    eps^{lam(h u)}, the additive part of xi there.  One check per h, that
    h J_{lam,right} = J_{lam,right}, puts every element in the domain of xi and
    shows that u -> h (1 + u) is one-to-one, so |G_lam| = |hs| |J_{lam,right}|."""
    F = spec.field
    rad = spec.radical_basis
    rows = [[spec.form_eval(lam, spec.mul(spec.basis_vec(c), spec.basis_vec(r))) for c in rad]
            for r in rad]
    j_right = set(linalg.span(F, linalg.kernel_basis(F, rows), dim=len(rad)))
    eps = [additive_char_exponent(F, c, spec.cyclo_order) for c in F.elements()]
    g_lam = {}
    for h in hs:
        # u -> h (1 + u) = h + h u on radical coordinates, compiled once per h != 1
        cols = [((r, 1),) for r in range(spec.dim)] if h == spec.unit else \
            sandwich_map(spec, h, spec.unit, rad).cols
        part = g_lam[h] = {g: eps[spec.form_eval(lam, g)]
                           for g in map(LinearMap(F, [cols[r] for r in rad], h).apply, j_right)}
        if {spec.j_coords(g) for g in part} != j_right:
            raise NotInStabilizer(f"{h} (1 + J_lambda,right) does not lie in G_lambda")
    return StabilizerData(tuple(lam), j_right, g_lam, len(hs) * len(j_right))


def theta_exponent(spec: AlgebraSpec, theta, h) -> int:
    """Exponent j with theta(h) = zeta_m^j, multiplying over the torus blocks."""
    m = spec.cyclo_order
    return sum(exp * spec.block_dlog[i][block_component(spec, h, i)] * (m // order)
               for i, (exp, order) in enumerate(zip(theta, spec.block_orders))
               if exp % order) % m


def xi(spec: AlgebraSpec, label: SupercharLabel, g,
       stab: StabilizerData | None = None) -> CycloNumber:
    """xi(g) = theta(h) eps^{lam(x)} for g = h + x with h in H_{e'} and x in
    J_{lam,right}, straight from the definition; NotInStabilizer otherwise."""
    if stab is None:
        stab = stabilizer_data(spec, label.lambda_rep, label.e)
    h, x = spec.s_part(g), spec.j_part(g)
    if h not in stab.g_lambda or spec.j_coords(x) not in stab.j_right:
        raise NotInStabilizer(f"{g} does not lie in G_lambda")
    m = spec.cyclo_order
    return CycloNumber.root(m, theta_exponent(spec, label.theta, h) + additive_char_exponent(
        spec.field, spec.form_eval(stab.lam, x), m))


class InductionContext:
    """The conjugacy classes of G, or with group="N" of N = 1 + J, shared by
    every induction of one run: the classes, the class index of each element,
    and the group order.

    Each class is the closure of an element under the conjugations
    g -> s^-1 g s by the distinct t-parts and a-parts of certified_generators
    (only the a-parts for N).  The certificate proves that the t-parts generate
    H and the a-parts generate N, so the parts generate G = H N (or N) and each
    closure is exactly one conjugacy class.  G = H + J and N = 1 + J are
    unions of translates of J, so the orbit kernel computes every closure
    (orbit_partition)."""

    def __init__(self, spec: AlgebraSpec, bound: int, group: str = "G"):
        self.order = group_order(spec) if group == "G" else \
            spec.field.q ** len(spec.radical_basis)
        if self.order > bound:
            raise GroupTooLarge(f"|{group}| = {self.order} exceeds bound {bound}")
        gens = certified_generators(spec)
        parts = {g.a for g in gens} | ({g.t for g in gens} if group == "G" else set())
        parts.discard(spec.unit)
        maps = [sandwich_map(spec, spec.invert(s), s) for s in sorted(parts)]
        translates = h_elements(spec) if group == "G" else [spec.unit]
        self.classes = orbit_partition(spec.field, translates, spec.radical_basis, maps)
        self.class_of = {g: ci for ci, cls in enumerate(self.classes) for g in cls}
        self._meets = (None, None)

    def meets(self, partition) -> list[set]:
        """The set of conjugacy classes each superclass of partition meets, in
        partition order: every element's class looked up once per partition."""
        if self._meets[0] is not partition:
            self._meets = partition, [{self.class_of[g] for g in rec.members}
                                      for rec in partition]
        return self._meets[1]


def class_counts(stab: StabilizerData, ctx: InductionContext) -> dict:
    """{h: [(ci, t, n)]}: n elements h (1 + u) of G_lambda lie in the
    conjugacy class ci and have eps^{lam(h u)} = zeta_m^t.  Built once per
    stabilizer; each label of its orbit only shifts t by theta(h)."""
    out = {}
    for h, part in stab.g_lambda.items():
        cells = Counter((ctx.class_of[y], t) for y, t in part.items())
        out[h] = [(ci, t, n) for (ci, t), n in cells.items()]
    return out


def induce(spec: AlgebraSpec, label: SupercharLabel, partition, ctx: InductionContext,
           stab: StabilizerData | None = None, counts: dict | None = None) -> ClassFunction:
    """ind(xi, G_lambda, G), evaluated once per conjugacy class by the averaging
    formula grouped by class, and checked constant on every superclass element:

        chi(g) = |G| / (|cl(g)| |G_lambda|) * sum of xi(y), y in cl(g) /\\ G_lambda.

    The exponent of xi(h (1 + u)) as a power of zeta_m is theta's exponent at
    h plus the one stab recorded for h (1 + u), counted per class by counts
    (class_counts of stab, built here if not given).  Each class's sum is
    counted per power of zeta_m and reduced mod Phi_m once."""
    if stab is None:
        stab = stabilizer_data(spec, label.lambda_rep, label.e)
    if counts is None:
        counts = class_counts(stab, ctx)
    m = spec.cyclo_order
    # the number of y in cl(g) /\ G_lambda with xi(y) = zeta_m^t, per class and t
    sums = defaultdict(lambda: [0] * m)
    for h, cells in counts.items():
        th = theta_exponent(spec, label.theta, h)
        for ci, t, n in cells:
            sums[ci][(th + t) % m] += n
    class_values: dict = {}

    def value_of(ci) -> CycloNumber:
        got = class_values.get(ci)
        if got is None:
            scale = Fraction(ctx.order, len(ctx.classes[ci]) * stab.size)
            got = class_values[ci] = CycloNumber.from_int_poly(
                m, [c * scale.numerator for c in sums.get(ci, [0])], scale.denominator)
        return got

    values = []
    for rec, classes in zip(partition, ctx.meets(partition)):
        first, *rest = classes
        val = value_of(first)
        if any(value_of(ci) != val for ci in rest):
            raise NotConstantOnSuperclass(f"induced character varies on {rec.representative}")
        values.append(val)

    idx = identity_index(spec, partition)
    degree = values[idx]
    expected = Fraction(ctx.order, stab.size)
    if degree != expected:
        raise NotInStabilizer(f"degree {degree.render()} != |G|/|G_lambda| = {expected}")
    return ClassFunction(tuple(values), degree)


def _integer_rows(values, weights):
    """(d, rows) with weights[K] * values[K] = sum of col[K] z^t / d over the
    pairs (t, col) of rows: one Python-int column per power z^t that is not
    all zero, over the common denominator d of every coefficient."""
    d = lcm(*(c.denominator for v in values for c in v.coeffs))
    cols = ((t, [v.coeffs[t].numerator * (d // v.coeffs[t].denominator) * w
                 for v, w in zip(values, weights)]) for t in range(len(values[0].coeffs)))
    return d, [(t, col) for t, col in cols if any(col)]


def inner_products(partition, phis, psis, order: int) -> list[list[CycloNumber]]:
    """[[<phi, psi> for psi in psis] for phi in phis], exactly, where
    <phi, psi> = (1/order) sum over the classes K of |K| phi(K) conj(psi(K)).

    Each phi becomes |K|-weighted integer rows and each psi, conjugated once
    per value, plain integer rows (_integer_rows).  A pair is then a sum of
    integer dot products per degree s + t, reduced mod Phi_m once."""
    sizes = [len(rec.members) for rec in partition]
    funcs = [*phis, *psis]
    if any(len(f.values) != len(sizes) for f in funcs):
        raise PartitionMismatch("class functions defined on different partitions")
    orders = {v.order for f in funcs for v in f.values}
    if len(orders) != 1:
        raise OrderMismatch(f"orders differ: {sorted(orders)}")
    m = orders.pop()
    width = 2 * len(cyclotomic_poly(m)) - 3
    left = [_integer_rows(f.values, sizes) for f in phis]
    right = [_integer_rows([v.conj() for v in f.values], [1] * len(sizes)) for f in psis]

    def pair(a, b):
        acc = [0] * width
        for s, x in a:
            for t, y in b:
                acc[s + t] += sum(map(mul, x, y))
        return acc
    return [[CycloNumber.from_int_poly(m, pair(a, b), da * db * order) for db, b in right]
            for da, a in left]


def inner_product(partition, phi: ClassFunction, psi: ClassFunction,
                  order: int) -> CycloNumber:
    """<phi, psi>: the one-pair call of inner_products."""
    return inner_products(partition, [phi], [psi], order)[0][0]


def enumerate_labels(spec: AlgebraSpec, dual_census) -> list[SupercharLabel]:
    """All quadruples (e, f, theta, orbit): one per regular corner orbit in J*
    and torus character associated with an orthogonal idempotent f."""
    nb = len(spec.blocks)
    labels = []
    for supp, lam_rep in zip(dual_census.supports, dual_census.corner_reps):
        rest = sorted(set(range(nb)) - supp)
        for fmask in range(2 ** len(rest)):
            fset = frozenset(rest[i] for i in range(len(rest)) if fmask >> i & 1)
            # a block of f with a trivial torus part has no nontrivial theta
            opts = [range(1, spec.block_orders[i]) if i in fset else [0] for i in range(nb)]
            labels.extend(SupercharLabel(supp, fset, t, lam_rep) for t in product(*opts))
    labels.sort(key=lambda l: l.sort_key())
    return labels


# ---------------------------------------------------------------------------
# the character table
# ---------------------------------------------------------------------------

class CharacterTable(namedtuple("CharacterTable", [
        "row_labels", "col_labels", "sizes",
        "values",       # values[r][c]: CycloNumber
        "group_order", "cyclo_order"])):
    __slots__ = ()

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["class"] + [l.render() for l in self.col_labels])
        w.writerow(["size"] + ["" if s is None else s for s in self.sizes])
        # tables share value objects (closed_table builds each value once), so
        # each distinct object is rendered once
        text = {id(v): v for row in self.values for v in row}
        text = {key: v.render() for key, v in text.items()}
        for lbl, row in zip(self.row_labels, self.values):
            w.writerow([lbl.render(), *map(text.__getitem__, map(id, row))])
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
                ctx: InductionContext | None = None) -> CharacterTable:
    """Induce every supercharacter and assemble the exact table; a given
    InductionContext of spec is used instead of being built again."""
    if ctx is None:
        ctx = InductionContext(spec, bound)
    # G_lambda depends on the orbit (lambda, e) only, not on (f, theta): each
    # is built once, induces every label of its orbit, and is dropped
    orbits = defaultdict(list)
    for r, l in enumerate(labels):
        orbits[l.lambda_rep, l.e].append(r)
    values = [None] * len(labels)
    for key, rows in orbits.items():
        stab = stabilizer_data(spec, *key)
        counts = class_counts(stab, ctx)
        for r in rows:
            values[r] = list(induce(spec, labels[r], partition, ctx, stab, counts).values)
    return CharacterTable(
        row_labels=list(labels),
        col_labels=[r.label for r in partition],
        sizes=[r.size for r in partition],
        values=values,
        group_order=ctx.order,
        cyclo_order=spec.cyclo_order,
    )


# ---------------------------------------------------------------------------
# axiom checks
# ---------------------------------------------------------------------------

class CheckResult(namedtuple("CheckResult", "name passed details", defaults=("",))):
    __slots__ = ()


def axioms_report(spec: AlgebraSpec, table: CharacterTable, partition,
                  conj_classes) -> list[CheckResult]:
    """Pass/fail per supercharacter-theory axiom plus the standard consequences;
    conj_classes are the conjugacy classes of G (InductionContext.classes)."""
    out = []
    nrows = len(table.row_labels)
    ncols = len(table.col_labels)
    out.append(CheckResult("S1", nrows == ncols, f"{nrows} characters, {ncols} classes"))

    out.append(CheckResult("S2", True,
                           "constancy verified on every group element during induction"))

    idx = identity_index(spec, partition)
    singleton = partition[idx].size == 1
    out.append(CheckResult("S3", singleton, f"identity class size {partition[idx].size}"))

    funcs = [ClassFunction(tuple(row), row[idx]) for row in table.values]
    gram = inner_products(partition, funcs, funcs, table.group_order)
    bad = next((f"<{i},{j}> = {gram[i][j].render()}" for i in range(nrows)
                for j in range(i + 1, nrows) if not gram[i][j].is_zero()), "")
    out.append(CheckResult("disjoint", not bad, bad or "all off-diagonal inner products 0"))

    member_to_class = superclass_index(partition)
    refines = all(len({member_to_class[g] for g in cls}) == 1 for cls in conj_classes)
    out.append(CheckResult("conjugacy-refinement", refines,
                           f"{len(conj_classes)} conjugacy classes"))

    # regular character: rho = sum a_alpha chi_alpha with a_alpha > 0 rational
    m = table.cyclo_order
    ok = True
    details = []
    coeffs = []
    for i, f in enumerate(funcs):
        norm = gram[i][i]
        if not (norm.is_rational() and norm.rational_value() > 0 and f.degree.is_rational()):
            ok = False
            break
        a = f.degree.rational_value() / norm.rational_value()
        if a <= 0:
            ok = False
            break
        coeffs.append(a)
    if ok:
        # L sum a chi = L |G| at the identity and 0 elsewhere, on integer rows
        rows = [_integer_rows(f.values, [1] * ncols) for f in funcs]
        weights = [a / d for a, (d, _) in zip(coeffs, rows)]
        big = lcm(*(w.denominator for w in weights))
        total = [[0] * ncols for _ in range(len(cyclotomic_poly(m)) - 1)]
        total[0][idx] = -big * table.group_order
        for w, (_, r) in zip(weights, rows):
            for t, col in r:
                total[t] = [x + w.numerator * (big // w.denominator) * y
                            for x, y in zip(total[t], col)]
        ci = next((ci for ci in range(ncols) if any(col[ci] for col in total)), None)
        if ci is not None:
            ok = False
            details.append(f"reconstruction off at class {ci}")
    out.append(CheckResult("regular-character", ok,
                           "; ".join(details) or f"coefficients {sorted(set(map(str, coeffs)))}"))
    return out


# ---------------------------------------------------------------------------
# restriction to N (weak decomposition check)
# ---------------------------------------------------------------------------

def nn_orbits(spec: AlgebraSpec):
    """N x N-orbits in J* (the triple-group action with trivial torus part).

    The certified generators of G~ with t = 1 generate 1 x (N x N): their
    a-parts and b-parts each generate N, which is what certified_generators proved."""
    maps = [rho_dual_map(spec, g) for g in certified_generators(spec) if g.t == spec.unit]
    nu = len(spec.radical_basis)
    return [OrbitRecord(m, min(m), "J*")
            for m in orbit_partition(spec.field, [(0,) * nu], range(nu), maps)]


def n_characters(spec: AlgebraSpec, bound: int):
    """(N-superclasses, characters): the N-superclasses 1 + N x N of N = 1 + J,
    and for every orbit of nn_orbits the triple (orbit, psi, <psi, psi>_N) with
    psi = ind(xi_mu, N_{mu,right}, N) on the N-superclasses; the norm depends
    only on the orbit, not on the label.

    The certified generators of G~ with t = 1 generate 1 x (N x N), so each
    closure under their R_tau is exactly one N-superclass."""
    ctx = InductionContext(spec, bound, group="N")
    maps = [r_map(spec, g) for g in certified_generators(spec) if g.t == spec.unit]
    n_part = [OrbitRecord(m, min(m), "N")
              for m in orbit_partition(spec.field, [spec.unit], spec.radical_basis, maps)]
    chars = []
    for orb in nn_orbits(spec):
        mu = orb.representative
        label = SupercharLabel(frozenset(), frozenset(), (0,) * len(spec.blocks), mu)
        psi = induce(spec, label, n_part, ctx, right_stabilizer(spec, mu, [spec.unit]))
        chars.append((orb, psi, inner_product(n_part, psi, psi, ctx.order)))
    return n_part, chars


def restriction_check(spec: AlgebraSpec, label: SupercharLabel, cf: ClassFunction,
                      class_index: dict, n_chars):
    """Weak form of the restriction formula: Res_N(chi) decomposes over the
    N-supercharacters with nonnegative rational coefficients, supported on the
    torus conjugates of lambda.  Returns (passed, coefficient map).

    class_index (superclass_index of cf's partition) and n_chars
    (n_characters(spec, bound)) are shared between labels.  Res_N(chi) is a
    class function on its N-superclasses, each inside one superclass of G."""
    n_part, chars = n_chars
    values = []
    for rec in n_part:
        first, *rest = {class_index.get(g) for g in rec.members}
        if rest or first is None:
            raise PartitionMismatch(f"the N-superclass of {rec.representative} "
                                    "does not lie in one superclass of G")
        values.append(cf.values[first])
    res = ClassFunction(tuple(values), cf.degree)

    lam = label.lambda_rep
    rad = list(spec.radical_basis)
    allowed = set()
    for t in h_elements(spec):
        t_inv = spec.invert(t)
        conj_lam = tuple(spec.form_eval(lam, spec.mul_many(t_inv, spec.basis_vec(r), t))
                         for r in rad)
        for oi, (orb, _, _) in enumerate(chars):
            if conj_lam in orb.members:
                allowed.add(oi)

    n_order = spec.field.q ** len(rad)
    coeffs = {}
    recon = [CycloNumber.zero(spec.cyclo_order)] * len(n_part)
    ok = True
    # <psi, res> = conj <res, psi> (equal when rational), so only res is conjugated
    nums = inner_products(n_part, [psi for _, psi, _ in chars], [res], n_order)
    for oi, ((orb, psi, den), (num,)) in enumerate(zip(chars, nums)):
        if not (num.is_rational() and den.is_rational()):
            return False, coeffs
        c = coeffs[orb.representative] = num.rational_value() / den.rational_value()
        ok = ok and c >= 0 and (c == 0 or oi in allowed)
        if c:
            recon = [r + v * c for r, v in zip(recon, psi.values)]
    return ok and tuple(recon) == res.values, coeffs

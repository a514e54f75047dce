"""Stabilizers G_lambda, the linear character xi, literal induction, inner
products, the supercharacter-theory axiom report, and the restriction to N."""
from __future__ import annotations

from collections import Counter, defaultdict, namedtuple
from itertools import product
from math import lcm
from operator import add, mul

from . import linalg
from .algebra import (
    AlgebraSpec,
    OrbitRecord,
    _Lanes,
    block_component,
    box,
    certified_generators,
    form_support,
    group_order,
    orbit,
    orbit_ids,
    orbit_partition,
    orbit_support,
    rho_dual_map,
    sandwich_map,
    sandwich_pairs,
    torus_conjugations,
)
from .cyclo import CycloNumber, cyclotomic_poly, ratio, ratio_text
from .errors import (
    GroupTooLarge,
    NotConstantOnSuperclass,
    NotInStabilizer,
    NotRegular,
    OrderMismatch,
    PartitionMismatch,
)
from .fields import additive_char_exponent
from .superclasses import r_map


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
        "h_part",       # H_{e'}, sorted
        "basis",        # a basis of J_{lam,right}, radical-coord tuples
        "size"])):      # |G_lam| = |H_{e'}| q^len(basis)
    __slots__ = ()


def stabilizer_data(spec: AlgebraSpec, lam, e: frozenset) -> StabilizerData:
    """H_{e'} and a basis of J_{lam,right} = {u in J : lam(u J) = 0}, for a
    form lam regular in the corner of e (NotRegular otherwise).  One table of
    lam(b_i b_j) (form_products) gives J_{lam,right} as a kernel and the
    cross-check H_{e'} = H_{lam,right} /\\ H_{lam,left}, by lam(h b_r) = sum of
    h_i lam(b_i b_r).  One product h b per h and basis vector b checks
    h J_{lam,right} = J_{lam,right} (u -> h u is one-to-one), so xi's domain
    is G_lam = H_{e'} (1 + J_{lam,right}) = H_{e'} + J_{lam,right}."""
    if form_support(spec, lam) != e or orbit_support(spec, orbit(spec, lam, "J*"))[0] != e:
        raise NotRegular(f"form {lam} is not regular in the corner of {sorted(e)}")
    F, rad, products = spec.field, spec.radical_basis, spec.form_products(lam)
    h_all = box(spec, "G").translates   # H, sorted
    hs = [h for h in h_all if all(block_component(spec, h, i) == spec.blocks[i].idempotent
                                  for i in e)]

    columns = [*zip(*products)]

    def fixes(h):   # lam(h b_r) = lam(b_r) = lam(b_r h) for every radical b_r
        return all(F.dot(zip(h, columns[r])) == lam_r == F.dot(zip(h, products[r]))
                   for r, lam_r in zip(rad, lam))
    if [h for h in h_all if fixes(h)] != hs:
        raise NotInStabilizer(f"H_{{e'}} != H_right /\\ H_left for the regular form {lam}")

    rows = [[products[c][r] for c in rad] for r in rad]     # u -> (lam(u b_r))_r
    basis = linalg.kernel_basis(F, rows)
    for h in hs:
        for b in basis:
            hb = spec.j_coords(spec.mul(h, spec.j_embed(b)))
            if any(F.dot(zip(row, hb)) for row in rows):
                raise NotInStabilizer(f"{h} (1 + J_lambda,right) does not lie in G_lambda")
    return StabilizerData(tuple(lam), tuple(hs), tuple(basis), len(hs) * F.q ** len(basis))


def _theta_weights(spec: AlgebraSpec, h) -> tuple:
    """(w_i): theta(h) = zeta_m^(sum of theta_i w_i) for every torus character
    theta, w_i = m / |H_i| times the discrete log of h on block i."""
    m = spec.cyclo_order
    return tuple(spec.block_dlog[i][block_component(spec, h, i)] * (m // order)
                 for i, order in enumerate(spec.block_orders))


def theta_exponent(spec: AlgebraSpec, theta, h) -> int:
    """Exponent j with theta(h) = zeta_m^j."""
    return sum(map(mul, theta, _theta_weights(spec, h))) % spec.cyclo_order


def xi(spec: AlgebraSpec, label: SupercharLabel, g,
       stab: StabilizerData | None = None) -> CycloNumber:
    """xi(g) = theta(h) eps^{lam(x)} for g = h + x with h in H_{e'} and x in
    J_{lam,right}, straight from the definition; NotInStabilizer otherwise."""
    if stab is None:
        stab = stabilizer_data(spec, label.lambda_rep, label.e)
    h, x = spec.s_part(g), spec.j_part(g)
    if h not in stab.h_part or any(spec.form_eval(stab.lam, spec.mul(x, spec.basis_vec(r)))
                                   for r in spec.radical_basis):   # x not in J_{lam,right}
        raise NotInStabilizer(f"{g} does not lie in G_lambda")
    m = spec.cyclo_order
    return CycloNumber.root(m, theta_exponent(spec, label.theta, h) + additive_char_exponent(
        spec.field, spec.form_eval(stab.lam, x), m))


class InductionContext:
    """The G-side facts of one run, shared by every induction and check: the
    superclass partition, the position of the identity's superclass in it,
    the conjugacy classes of G, the class index of each element, the set of
    classes each superclass meets (in partition order), the group order, the
    point number in box J of each code of J (_Lanes.numbers), and every
    induced value (one object per distinct value).

    A superclass never leaves its translate h + J, and the unit is the least
    point of its translate, so the identity's superclass is the one whose
    least member is the unit.  Each conjugacy class is the closure of an
    element under g -> s^-1 g s for the torus generators (torus_conjugations)
    and the parts of certified_generators, which generate H and N and so
    G = H N; both fix the S-part h of g = h + x (S is commutative, J an
    ideal), so orbit_partition computes every closure inside its translate
    h + J."""

    def __init__(self, spec: AlgebraSpec, partition, bound: int):
        self.order = group_order(spec)
        if self.order > bound:
            raise GroupTooLarge(f"|G| = {self.order} exceeds bound {bound}")
        G, self.partition = box(spec, "G"), partition
        unit = G.number(spec.unit)
        self.identity = next((i for i, r in enumerate(partition) if r.members[0] == unit), None)
        if self.identity is None:
            raise PartitionMismatch("no superclass contains the identity")
        _, parts = certified_generators(spec)
        maps = torus_conjugations(spec) + [sandwich_map(spec, spec.invert(a), a) for a in parts]
        self.classes = orbit_partition(G, maps)
        self.class_of = orbit_ids(self.classes, self.order)
        self.meets = [{self.class_of[g] for g in rec.members} for rec in partition]
        self.j_number = _Lanes(spec.field, box(spec, "J").coords).numbers()
        self.values: dict = {}


def class_counts(spec: AlgebraSpec, stab: StabilizerData, ctx: InductionContext) -> dict:
    """{w: [(ci, t, n)]}: n elements h + x of G_lambda (x in J_{lam,right}) lie
    in the conjugacy class ci and have eps^{lam(x)} = zeta_m^t, for the h of
    theta weights w.  As h fixes lam, xi(h + x) = theta(h) eps^{lam(x)}: one
    span (_Lanes.span) of the rows (lam(b), b) over the basis of J_{lam,right},
    lam in the most significant lane and b on box J's coordinates, codes every
    (lam(x), x).  One shift gives lam(x)'s digits and so t, one mask x's code
    in box J and so its number (ctx.j_number); both are shared by every h.
    Built once per stabilizer; a label shifts t by theta(h)."""
    F, m, class_of = spec.field, spec.cyclo_order, ctx.class_of
    lanes = _Lanes(F, ["lam", *box(spec, "J").coords])
    shift = lanes.shifts["lam"]
    eps = {lanes.digits[c]: additive_char_exponent(F, c, m) for c in F.elements()}
    rows = [[("lam", spec.form_eval(stab.lam, x)), *((i, c) for i, c in enumerate(x) if c)]
            for x in map(spec.j_embed, stab.basis)]
    codes, low = lanes.span(rows), (1 << shift) - 1
    xs = [ctx.j_number[c & low] for c in codes]
    ts = [eps[c >> shift] for c in codes]
    out = {}
    for h in stab.h_part:   # point h + x of G is number(h) plus the number of x in J
        base = box(spec, "G").number(h)
        cells = Counter(zip([class_of[base + x] for x in xs], ts))
        out[_theta_weights(spec, h)] = [(ci, t, n) for (ci, t), n in cells.items()]
    return out


def induce(spec: AlgebraSpec, label: SupercharLabel, ctx: InductionContext,
           stab: StabilizerData | None = None, counts: dict | None = None) -> tuple:
    """ind(xi, G_lambda, G) as its values on the superclasses of ctx, in
    partition order, evaluated once per conjugacy class by the averaging
    formula grouped by class, and checked constant on every superclass element:

        chi(g) = |G| / (|cl(g)| |G_lambda|) * sum of xi(y), y in cl(g) /\\ G_lambda.

    The exponent of xi(h + x) as a power of zeta_m is theta's exponent at h
    (one dot product with h's theta weights) plus that of eps^{lam(x)},
    counted per class by counts (class_counts, built here if not given).  Each
    class's sum is counted per power of zeta_m; a value depends only on the
    class size and those counts, so each distinct pair is reduced once."""
    if stab is None:
        stab = stabilizer_data(spec, label.lambda_rep, label.e)
    if counts is None:
        counts = class_counts(spec, stab, ctx)
    m = spec.cyclo_order
    # the number of y in cl(g) /\ G_lambda with xi(y) = zeta_m^t, per class and t
    sums = defaultdict(lambda: [0] * m)
    for w, cells in counts.items():
        th = sum(map(mul, label.theta, w))
        for ci, t, n in cells:
            sums[ci][(th + t) % m] += n
    key_values: dict = {}

    def value_of(ci) -> CycloNumber:
        key = len(ctx.classes[ci]), tuple(sums.get(ci, (0,)))
        got = key_values.get(key)
        if got is None:
            got = CycloNumber.from_int_poly(m, [c * ctx.order for c in key[1]],
                                            key[0] * stab.size)
            got = key_values[key] = ctx.values.setdefault(got, got)
        return got

    values = []
    for rec, classes in zip(ctx.partition, ctx.meets):
        first, *rest = classes
        val = value_of(first)
        if any(value_of(ci) is not val for ci in rest):
            raise NotConstantOnSuperclass(f"induced character varies on {rec.representative}")
        values.append(val)

    degree = values[ctx.identity]
    if not degree.is_rational() or degree.nums[0] * stab.size != ctx.order * degree.den:
        raise NotInStabilizer(f"degree {degree.render()} != |G|/|G_lambda| = "
                              f"{ratio_text(ctx.order, stab.size)}")
    return tuple(values)


def _integer_rows(values, weights):
    """(d, rows) with weights[K] * values[K] = sum of col[K] z^t / d over the
    pairs (t, col) of rows: one Python-int column per power z^t that is not
    all zero, over the common denominator d of every value."""
    d = lcm(*(v.den for v in values))
    cols = ((t, [v.nums[t] * (d // v.den) * w for v, w in zip(values, weights)])
            for t in range(len(values[0].nums)))
    return d, [(t, col) for t, col in cols if any(col)]


def inner_products(partition, phis, psis, order: int) -> list[list[CycloNumber]]:
    """[[<phi, psi> for psi in psis] for phi in phis], exactly, where
    <phi, psi> = (1/order) sum over the classes K of |K| phi(K) conj(psi(K));
    a class function is the row of its CycloNumber values in partition order.

    Each phi becomes |K|-weighted integer rows and each psi plain integer
    rows of its conjugate (_integer_rows), each distinct value conjugated
    once.  A pair is then a sum of integer dot products per degree s + t,
    and each distinct (polynomial, denominator) is reduced mod Phi_m once.
    When phis is psis (a Gram) only i <= j is summed: <psi_j, psi_i> is
    conj <psi_i, psi_j>, the same polynomial with z^k read as z^(-k mod m)."""
    sizes = [len(rec.members) for rec in partition]
    funcs = [*phis, *psis]
    if any(len(f) != len(sizes) for f in funcs):
        raise PartitionMismatch("class functions defined on different partitions")
    orders = {v.order for f in funcs for v in f}
    if len(orders) != 1:
        raise OrderMismatch(f"orders differ: {sorted(orders)}")
    m = orders.pop()
    width = 2 * len(cyclotomic_poly(m)) - 3
    conj = {v: v.conj() for v in {v for f in psis for v in f}}
    left = [_integer_rows(f, sizes) for f in phis]
    right = [_integer_rows([conj[v] for v in f], [1] * len(sizes)) for f in psis]
    reduced: dict = {}

    def value(poly, den) -> CycloNumber:
        if (key := (tuple(poly), den)) not in reduced:
            reduced[key] = CycloNumber.from_int_poly(m, poly, den)
        return reduced[key]

    def pair(a, b):
        acc = [0] * width
        for s, x in a:
            for t, y in b:
                acc[s + t] += sum(map(mul, x, y))
        return acc
    out = [[None] * len(right) for _ in left]
    for i, (da, a) in enumerate(left):
        for j, (db, b) in enumerate(right):
            if out[i][j] is None:
                out[i][j] = value(acc := pair(a, b), da * db * order)
                if phis is psis and j > i:
                    flipped = [0] * m
                    for k, c in enumerate(acc):
                        flipped[-k % m] += c
                    out[j][i] = value(flipped, da * db * order)
    return out


def _first_nonzero_class(terms, ncols: int):
    """The first class K where the sum of (a / b) * values(K) over the terms
    ((a, b), _integer_rows of values) is not 0, or None: exact, in Python
    ints over one common denominator."""
    dens = [b * d for (_, b), (d, _) in terms]
    big = lcm(*dens)
    total: dict = {}
    for ((a, _), (_, rows)), den in zip(terms, dens):
        k = a * (big // den)
        for t, col in rows:
            total[t] = [x + k * y for x, y in zip(total.get(t, [0] * ncols), col)]
    return next((ci for ci in range(ncols) if any(col[ci] for col in total.values())), None)


def enumerate_labels(spec: AlgebraSpec, dual_census) -> list[SupercharLabel]:
    """All quadruples (e, f, theta, orbit): one per regular corner orbit in J*
    and torus character theta trivial on the blocks of e, with f the blocks
    where theta is not: the f orthogonal to e, each with its nontrivial
    characters, are together every theta on the blocks off e."""
    labels = []
    for supp, lam_rep in zip(dual_census.supports, dual_census.corner_reps):
        opts = [[0] if i in supp else range(order) for i, order in enumerate(spec.block_orders)]
        labels.extend(SupercharLabel(supp, frozenset(i for i, t in enumerate(theta) if t),
                                     theta, lam_rep) for theta in product(*opts))
    labels.sort(key=lambda l: l.sort_key())
    return labels


# ---------------------------------------------------------------------------
# the character table
# ---------------------------------------------------------------------------

class CharacterTable(namedtuple("CharacterTable", [
        "row_labels", "col_labels", "sizes",
        "values",       # values[r][c]: CycloNumber; equal values may share one object
        "group_order", "cyclo_order"])):
    __slots__ = ()

    def to_csv(self) -> str:
        import csv
        import io
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


def build_table(spec: AlgebraSpec, labels, ctx: InductionContext) -> CharacterTable:
    """Induce every supercharacter on the superclasses of ctx and assemble
    the exact table."""
    # G_lambda depends on the orbit (lambda, e) only, not on (f, theta): each
    # is built once, induces every label of its orbit, and is dropped
    orbits = defaultdict(list)
    for r, l in enumerate(labels):
        orbits[l.lambda_rep, l.e].append(r)
    values = [None] * len(labels)
    for key, rows in orbits.items():
        stab = stabilizer_data(spec, *key)
        counts = class_counts(spec, stab, ctx)
        for r in rows:
            values[r] = list(induce(spec, labels[r], ctx, stab, counts))
    return CharacterTable(
        row_labels=list(labels),
        col_labels=[r.label for r in ctx.partition],
        sizes=[r.size for r in ctx.partition],
        values=values,
        group_order=ctx.order,
        cyclo_order=spec.cyclo_order,
    )


# ---------------------------------------------------------------------------
# axiom checks
# ---------------------------------------------------------------------------

class CheckResult(namedtuple("CheckResult", "name passed details", defaults=("",))):
    __slots__ = ()


def axioms_report(spec: AlgebraSpec, table: CharacterTable,
                  ctx: InductionContext) -> list[CheckResult]:
    """Pass/fail per supercharacter-theory axiom plus the standard consequences,
    for a table on the superclasses of ctx."""
    out = []
    nrows = len(table.row_labels)
    ncols = len(table.col_labels)
    out.append(CheckResult("S1", nrows == ncols, f"{nrows} characters, {ncols} classes"))

    out.append(CheckResult("S2", True,
                           "constancy verified on every group element during induction"))

    idx, rows = ctx.identity, table.values
    size = ctx.partition[idx].size
    out.append(CheckResult("S3", size == 1, f"identity class size {size}"))

    gram = inner_products(ctx.partition, rows, rows, table.group_order)
    bad = next((f"<{i},{j}> = {gram[i][j].render()}" for i in range(nrows)
                for j in range(i + 1, nrows) if not gram[i][j].is_zero()), "")
    out.append(CheckResult("disjoint", not bad, bad or "all off-diagonal inner products 0"))

    # the classes and the superclasses both partition G: each class meets one
    # superclass exactly when the superclasses meet len(classes) in all
    refines = sum(map(len, ctx.meets)) == len(ctx.classes)
    out.append(CheckResult("conjugacy-refinement", refines,
                           f"{len(ctx.classes)} conjugacy classes"))

    # regular character: rho = sum a_alpha chi_alpha with a_alpha > 0 rational,
    # a_alpha = chi(1) / <chi, chi> as (numerator, denominator) ints
    ok, coeffs, ci = True, [], None
    for i, row in enumerate(rows):
        norm, deg = gram[i][i], row[idx]
        ok = norm.is_rational() and norm.nums[0] > 0 and deg.is_rational() and deg.nums[0] > 0
        if not ok:
            break
        coeffs.append(ratio(deg.nums[0] * norm.den, deg.den * norm.nums[0]))
    if ok:
        # sum a chi = |G| at the identity and 0 elsewhere, on integer rows
        regular = (1, [(0, [int(k == idx) for k in range(ncols)])])
        terms = [(a, _integer_rows(row, [1] * ncols)) for a, row in zip(coeffs, rows)]
        ci = _first_nonzero_class(terms + [((-table.group_order, 1), regular)], ncols)
    detail = f"coefficients {sorted({ratio_text(*a) for a in coeffs})}" if ci is None else \
        f"reconstruction off at class {ci}"
    out.append(CheckResult("regular-character", ok and ci is None, detail))
    return out


# ---------------------------------------------------------------------------
# restriction to N (weak decomposition check)
# ---------------------------------------------------------------------------

def nn_orbits(spec: AlgebraSpec):
    """N x N-orbits in J* (the triple-group action with trivial torus part):
    the closures under rho_dual_map of the pairs (a, 1) and (1, a) of
    sandwich_pairs, which generate 1 x (N x N) as the certified parts
    generate N."""
    maps = [rho_dual_map(spec, u, w) for u, w in sandwich_pairs(spec, torus=False)]
    return [OrbitRecord(m, box(spec, "J*").point(m[0]), "J*")
            for m in orbit_partition(box(spec, "J*"), maps)]


def n_characters(spec: AlgebraSpec, bound: int):
    """(N-superclasses, characters): the N-superclasses 1 + N x N of N = 1 + J
    (closures under r_map of the pairs (a, 1), (1, a) of sandwich_pairs), and
    for every orbit O = N mu N of nn_orbits the triple (O, psi, <psi, psi>_N)
    of the orbit sum psi(1 + x) = (psi(1) / |O|) sum of eps^{nu(x)} over nu in
    O (Diaconis & Isaacs 2008), psi(1) = |mu N| = q^(rank of (r, c) ->
    mu(b_r b_c)), with norm psi(1)^2 / |O| by Parseval on J.  Tr nu(x) is
    additive in nu, so one table per representative 1 + x holds it for every
    nu in J* (by point number), and one count of the pairs (orbit of nu,
    Tr nu(x)) over J* gives every sum."""
    F, rad, m = spec.field, spec.radical_basis, spec.cyclo_order
    if F.q ** len(rad) > bound:
        raise GroupTooLarge(f"|N| = {F.q ** len(rad)} exceeds bound {bound}")
    maps = [r_map(spec, u, w) for u, w in sandwich_pairs(spec, torus=False)]
    n_part = [OrbitRecord(c, box(spec, "N").point(c[0]), "N")
              for c in orbit_partition(box(spec, "N"), maps)]
    orbits = nn_orbits(spec)
    degrees = [F.q ** linalg.rank(F, [[lam_b[r][c] for c in rad] for r in rad])
               for lam_b in (spec.form_products(orb.representative) for orb in orbits)]
    # one key per nu in J*: its orbit's position times width, plus Tr nu(x)
    # (a sum of len(rad) traces, each below p, so below width)
    width = (F.p - 1) * len(rad) + 1
    keys = [o * width for o in orbit_ids([orb.members for orb in orbits], box(spec, "J*").size)]
    values, reduced = [[] for _ in orbits], {}      # each distinct value reduced once
    for rec in n_part:
        traces = [0]    # Tr nu(x) for every nu on the coordinates done so far
        for x in reversed(spec.j_coords(rec.representative)):
            steps = [F.trace(F.mul(c, x)) for c in range(F.q)]
            traces = [s + t for s in steps for t in traces] if x else traces * F.q
        polys = [[0] * m for _ in orbits]
        for key, n in Counter(map(add, keys, traces)).items():
            o, t = divmod(key, width)
            polys[o][t % F.p * (m // F.p)] += n * degrees[o]
        for vals, orb, poly in zip(values, orbits, polys):
            if (key := (tuple(poly), len(orb.members))) not in reduced:
                reduced[key] = CycloNumber.from_int_poly(m, *key)
            vals.append(reduced[key])
    return n_part, [(orb, tuple(vals),
                     CycloNumber.from_int_poly(m, [degree ** 2], len(orb.members)))
                    for orb, vals, degree in zip(orbits, values, degrees)]


def restriction_report(spec: AlgebraSpec, labels, table: CharacterTable,
                       ctx: InductionContext, bound: int) -> CheckResult:
    """Weak form of the restriction formula, row by row (labels in row order),
    stopping at the first failure: Res_N(chi) = sum of c_mu psi_mu over the
    N-supercharacters (n_characters), every c_mu rational, >= 0, and nonzero
    only on N x N-orbits inside the G~-orbit of lambda: those of the torus
    conjugates lambda o c_t, c_t(y) = t^-1 y t, as (t, a, b) sends lambda to
    (lambda o c_t)(a'^-1 x b') with a' = t a t^-1, b' = t b t^-1 in N.  One Gram
    call gives every c_mu; the sum is rebuilt exactly on integer rows."""
    n_part, chars = n_characters(spec, bound)
    G = box(spec, "G")
    index, base = orbit_ids([r.members for r in ctx.partition], G.size), G.number(spec.unit)
    cols = []
    for rec in n_part:   # point n of N = 1 + J is point base + n of G
        first, *rest = {index[base + n] for n in rec.members}
        if rest or first < 0:
            raise PartitionMismatch(f"the N-superclass of {rec.representative} "
                                    "does not lie in one superclass of G")
        cols.append(first)
    restrictions = [tuple(row[c] for c in cols) for row in table.values]
    # <psi, res> = conj <res, psi> (equal when rational), so only res is conjugated
    nums = inner_products(n_part, [psi for _, psi, _ in chars], restrictions,
                          spec.field.q ** len(spec.radical_basis))
    ones = [1] * len(n_part)
    psi_rows = [_integer_rows(psi, ones) for _, psi, _ in chars]
    for r, (lbl, res) in enumerate(zip(labels, restrictions)):
        allowed = set(orbit(spec, lbl.lambda_rep, "J*").members)    # J* numbers
        terms = [((-1, 1), _integer_rows(res, ones))]
        for (orb, _, norm), row, rows in zip(chars, nums, psi_rows):
            if not row[r].is_rational():
                break
            # c_mu = <res, psi> / <psi, psi>, both rational; norm = psi(1)^2 / |O| > 0
            cn, cd = ratio(row[r].nums[0] * norm.den, row[r].den * norm.nums[0])
            if cn < 0 or (cn and orb.members[0] not in allowed):
                break
            if cn:
                terms.append(((cn, cd), rows))
        else:   # every c_mu passed: the row passes if sum c_mu psi_mu - res is 0
            if _first_nonzero_class(terms, len(n_part)) is None:
                continue
        return CheckResult("restriction", False, f"decomposition failed for {lbl.render()}")
    return CheckResult("restriction", True, f"{len(labels)} characters restricted to 1+J")

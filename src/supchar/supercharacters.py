"""Stabilizers G_lambda, the linear character xi, literal induction, inner
products, the supercharacter-theory axiom report, and the restriction to N."""
from __future__ import annotations

import csv
import io
from collections import Counter, defaultdict, namedtuple
from fractions import Fraction
from functools import reduce
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
    __slots__ = ()  # values: CycloNumbers in partition order (equal ones may be one object)


def stabilizer_data(spec: AlgebraSpec, lam, e: frozenset) -> StabilizerData:
    """J_{lam,right} = {u in J : lam(u J) = 0}, H_{e'}, and G_lam = H_{e'} (1 + J_{lam,right})
    for a form lam regular in the corner of e (NotRegular otherwise).  One table
    of lam(b_i b_j) (form_products) gives the rows of J_{lam,right} and the
    cross-check H_{e'} = H_{lam,right} /\\ H_{lam,left}, by lam(h b_r) = sum of
    h_i lam(b_i b_r).  Each h (1 + u) is recorded under h with the exponent of
    eps^{lam(h u)}, xi's additive part.  One check per h, h J_{lam,right} = J_{lam,right},
    puts each element in xi's domain and makes u -> h (1 + u) one-to-one."""
    if form_support(spec, lam) != e or orbit_support(spec, orbit(spec, lam, "rho_dual"))[0] != e:
        raise NotRegular(f"form {lam} is not regular in the corner of {sorted(e)}")
    F, rad, products = spec.field, spec.radical_basis, spec.form_products(lam)
    hs = [h for h in h_elements(spec)
          if all(block_component(spec, h, i) == spec.blocks[i].idempotent for i in e)]

    def fixes(h):   # lam(h b_r) = lam(b_r) = lam(b_r h) for every radical b_r
        coords = [(i, c) for i, c in enumerate(h) if c]
        return all(reduce(F.add, (F.mul(c, products[i][r]) for i, c in coords), 0) == lam_r ==
                   reduce(F.add, (F.mul(c, products[r][i]) for i, c in coords), 0)
                   for r, lam_r in zip(rad, lam))
    both = [h for h in h_elements(spec) if fixes(h)]
    if sorted(both) != sorted(hs):
        raise NotInStabilizer(f"H_{{e'}} != H_right /\\ H_left for the regular form {lam}")

    rows = [[products[c][r] for c in rad] for r in rad]
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
    """The conjugacy classes of G, shared by every induction of one run: the
    classes, the class index of each element, the group order, and every induced
    value (one object per distinct value).  Each class is the closure of an
    element under g -> s^-1 g s for the distinct t-parts and a-parts of
    certified_generators, which generate H and N and so G = H N; G = H + J is a
    union of translates of J, so orbit_partition computes every closure."""

    def __init__(self, spec: AlgebraSpec, bound: int):
        self.order = group_order(spec)
        if self.order > bound:
            raise GroupTooLarge(f"|G| = {self.order} exceeds bound {bound}")
        gens = certified_generators(spec)
        parts = {g.a for g in gens} | {g.t for g in gens}
        parts.discard(spec.unit)
        maps = [sandwich_map(spec, spec.invert(s), s) for s in sorted(parts)]
        self.classes = orbit_partition(spec.field, h_elements(spec), spec.radical_basis, maps)
        self.class_of = {g: ci for ci, cls in enumerate(self.classes) for g in cls}
        self.values: dict = {}
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
    counted per power of zeta_m; a value depends only on the class size and
    those counts, so each distinct pair is reduced mod Phi_m once."""
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
    for rec, classes in zip(partition, ctx.meets(partition)):
        first, *rest = classes
        val = value_of(first)
        if any(value_of(ci) is not val for ci in rest):
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
    all zero, over the common denominator d of every value."""
    d = lcm(*(v.den for v in values))
    cols = ((t, [v.nums[t] * (d // v.den) * w for v, w in zip(values, weights)])
            for t in range(len(values[0].nums)))
    return d, [(t, col) for t, col in cols if any(col)]


def inner_products(partition, phis, psis, order: int) -> list[list[CycloNumber]]:
    """[[<phi, psi> for psi in psis] for phi in phis], exactly, where
    <phi, psi> = (1/order) sum over the classes K of |K| phi(K) conj(psi(K)).

    Each phi becomes |K|-weighted integer rows and each psi plain integer
    rows of its conjugate (_integer_rows), each distinct value conjugated
    once.  A pair is then a sum of integer dot products per degree s + t,
    and each distinct (polynomial, denominator) is reduced mod Phi_m once.
    When phis is psis (a Gram) only i <= j is summed: <psi_j, psi_i> is
    conj <psi_i, psi_j>, the same polynomial with z^k read as z^(-k mod m)."""
    sizes = [len(rec.members) for rec in partition]
    funcs = [*phis, *psis]
    if any(len(f.values) != len(sizes) for f in funcs):
        raise PartitionMismatch("class functions defined on different partitions")
    orders = {v.order for f in funcs for v in f.values}
    if len(orders) != 1:
        raise OrderMismatch(f"orders differ: {sorted(orders)}")
    m = orders.pop()
    width = 2 * len(cyclotomic_poly(m)) - 3
    conj = {v: v.conj() for v in {v for f in psis for v in f.values}}
    left = [_integer_rows(f.values, sizes) for f in phis]
    right = [_integer_rows([conj[v] for v in f.values], [1] * len(sizes)) for f in psis]
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
    """The first class K where the sum of w * values(K) over the terms
    (w rational, _integer_rows of values) is not 0, or None: exact, in Python
    ints over one common denominator."""
    weights = [Fraction(w) / d for w, (d, _) in terms]
    big = lcm(*(w.denominator for w in weights))
    total: dict = {}
    for w, (_, (_, rows)) in zip(weights, terms):
        k = w.numerator * (big // w.denominator)
        for t, col in rows:
            total[t] = [x + k * y for x, y in zip(total.get(t, [0] * ncols), col)]
    return next((ci for ci in range(ncols) if any(col[ci] for col in total.values())), None)


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
        "values",       # values[r][c]: CycloNumber; equal values may share one object
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
    ok, coeffs, ci = True, [], None
    for i, f in enumerate(funcs):
        norm = gram[i][i]
        ok = norm.is_rational() and norm.rational_value() > 0 and f.degree.is_rational() \
            and f.degree.rational_value() > 0
        if not ok:
            break
        coeffs.append(f.degree.rational_value() / norm.rational_value())
    if ok:
        # sum a chi = |G| at the identity and 0 elsewhere, on integer rows
        regular = (1, [(0, [int(k == idx) for k in range(ncols)])])
        terms = [(a, _integer_rows(f.values, [1] * ncols)) for a, f in zip(coeffs, funcs)]
        ci = _first_nonzero_class(terms + [(-table.group_order, regular)], ncols)
    detail = f"coefficients {sorted(set(map(str, coeffs)))}" if ci is None else \
        f"reconstruction off at class {ci}"
    out.append(CheckResult("regular-character", ok and ci is None, detail))
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
    """(N-superclasses, characters): the N-superclasses 1 + N x N of N = 1 + J
    (closures under the certified triples with t = 1), and for every orbit
    O = N mu N of nn_orbits the triple (O, psi, <psi, psi>_N) of the orbit sum
    psi(1 + x) = (psi(1) / |O|) sum of eps^{nu(x)} over nu in O (Diaconis &
    Isaacs 2008), psi(1) = |mu N| = q^(rank of (r, c) -> mu(b_r b_c)), with norm
    psi(1)^2 / |O| by Parseval on J.  Tr nu(x) is additive in nu, so one table
    per representative 1 + x holds it for every nu in J* (lexicographic)."""
    F, rad, m = spec.field, spec.radical_basis, spec.cyclo_order
    if F.q ** len(rad) > bound:
        raise GroupTooLarge(f"|N| = {F.q ** len(rad)} exceeds bound {bound}")
    maps = [r_map(spec, g) for g in certified_generators(spec) if g.t == spec.unit]
    n_part = [OrbitRecord(c, min(c), "N") for c in orbit_partition(F, [spec.unit], rad, maps)]
    orbits = nn_orbits(spec)
    index = {v: i for i, v in enumerate(product(range(F.q), repeat=len(rad)))}
    members = [[index[v] for v in orb.members] for orb in orbits]
    degrees = [F.q ** linalg.rank(F, [[lam_b[r][c] for c in rad] for r in rad])
               for lam_b in (spec.form_products(orb.representative) for orb in orbits)]
    values, reduced = [[] for _ in orbits], {}      # each distinct value reduced once
    for rec in n_part:
        traces = [0]    # Tr nu(x) for every nu on the coordinates done so far
        for x in reversed(spec.j_coords(rec.representative)):
            steps = [F.trace(F.mul(c, x)) for c in range(F.q)]
            traces = [s + t for s in steps for t in traces] if x else traces * F.q
        for vals, mem, degree in zip(values, members, degrees):
            poly = [0] * m
            for t, n in Counter(map(traces.__getitem__, mem)).items():
                poly[t % F.p * (m // F.p)] += n * degree
            if (key := (tuple(poly), len(mem))) not in reduced:
                reduced[key] = CycloNumber.from_int_poly(m, *key)
            vals.append(reduced[key])
    return n_part, [(orb, ClassFunction(tuple(vals), CycloNumber.rational(m, degree)),
                     CycloNumber.rational(m, Fraction(degree ** 2, len(orb.members))))
                    for orb, vals, degree in zip(orbits, values, degrees)]


def restriction_report(spec: AlgebraSpec, labels, table: CharacterTable, partition,
                       bound: int) -> CheckResult:
    """Weak form of the restriction formula, row by row (labels in row order),
    stopping at the first failure: Res_N(chi) = sum of c_mu psi_mu over the
    N-supercharacters (n_characters), every c_mu rational, >= 0, and nonzero
    only on N x N-orbits inside the G~-orbit of lambda: those of the torus
    conjugates lambda o c_t, c_t(y) = t^-1 y t, as (t, a, b) sends lambda to
    (lambda o c_t)(a'^-1 x b') with a' = t a t^-1, b' = t b t^-1 in N.  One Gram
    call gives every c_mu; the sum is rebuilt exactly on integer rows."""
    n_part, chars = n_characters(spec, bound)
    index = superclass_index(partition)
    cols = []
    for rec in n_part:
        first, *rest = {index.get(g) for g in rec.members}
        if rest or first is None:
            raise PartitionMismatch(f"the N-superclass of {rec.representative} "
                                    "does not lie in one superclass of G")
        cols.append(first)
    restrictions = [ClassFunction(tuple(row[c] for c in cols), None) for row in table.values]
    # <psi, res> = conj <res, psi> (equal when rational), so only res is conjugated
    nums = inner_products(n_part, [psi for _, psi, _ in chars], restrictions,
                          spec.field.q ** len(spec.radical_basis))
    ones = [1] * len(n_part)
    psi_rows = [_integer_rows(psi.values, ones) for _, psi, _ in chars]
    for r, (lbl, res) in enumerate(zip(labels, restrictions)):
        allowed = orbit(spec, lbl.lambda_rep, "rho_dual").members
        terms = [(-1, _integer_rows(res.values, ones))]
        for (orb, _, den), row, rows in zip(chars, nums, psi_rows):
            if not row[r].is_rational():
                break
            c = row[r].rational_value() / den.rational_value()     # den = psi(1)^2 / |O|
            if c < 0 or (c and orb.representative not in allowed):
                break
            if c:
                terms.append((c, rows))
        else:   # every c_mu passed: the row passes if sum c_mu psi_mu - res is 0
            if _first_nonzero_class(terms, len(n_part)) is None:
                continue
        return CheckResult("restriction", False, f"decomposition failed for {lbl.render()}")
    return CheckResult("restriction", True, f"{len(labels)} characters restricted to 1+J")

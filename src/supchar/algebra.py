"""Validated reduced algebras A = S (+) J over GF(q), the triple group and its
actions on J and J*, orbit enumeration, and the singular/regular classification.

Algebra elements are coefficient tuples of length dim over the field encoding
of fields.py.  Linear forms on J are coefficient tuples indexed by the radical
basis order.  The basis indices of the blocks and of the radical partition
range(dim), so S and J are coordinate subspaces.
"""
from __future__ import annotations

import json
from array import array
from collections import Counter, namedtuple
from itertools import compress, islice, product
from math import lcm, prod

from . import linalg
from .errors import (
    AlgebraValidationError,
    BadIdempotents,
    BadUnit,
    NotAssociative,
    NotDirectSum,
    NotGenerating,
    NotInH,
    NotInRadical,
    NotInvertible,
    NotRegular,
    PointOutsideSet,
    RadicalNotNilpotent,
    SNotCommutative,
    SpaceTooLarge,
)
from .fields import FieldSpec, field_make

DEFAULT_SPACE_BOUND = 2 ** 20


class Block(namedtuple("Block", "idempotent degree basis")):
    __slots__ = ()


class TildeTriple(namedtuple("TildeTriple", "t a b t_inv a_inv b_inv")):
    """A triple (t, a, b) with cached inverses; t in H, a and b in N = 1 + J."""
    __slots__ = ()


class OrbitRecord(namedtuple("OrbitRecord", "members representative space_tag")):
    __slots__ = ()  # space_tag: "J", "J*" or "N"


class AlgebraSpec:
    """A finite-dimensional algebra given by structure constants.

    Construct raw, then call validate_algebra() before using anything beyond
    the plain linear/multiplicative helpers.
    """

    def __init__(self, field: FieldSpec, dim: int, mul_entries, unit, blocks, radical_basis):
        self.field = field
        self.dim = dim
        self.unit = tuple(unit)
        self.blocks = tuple(blocks)
        self.radical_basis = tuple(radical_basis)
        self.nilpotency_class = None
        # dense structure tensor from sparse entries [i, j, [(l, c), ...]]
        table = [[tuple([0] * dim) for _ in range(dim)] for _ in range(dim)]
        for i, j, terms in mul_entries:
            vec = [0] * dim
            for l, c in terms:
                vec[l] = c % field.p if field.k == 1 else c
            table[i][j] = tuple(vec)
        self.mul_table = tuple(tuple(row) for row in table)
        self._sparse = tuple(
            tuple(tuple((l, v) for l, v in enumerate(cell) if v) for cell in row)
            for row in self.mul_table
        )
        self._inv_cache: dict = {}
        self._tilde_gens = None         # certified tilde_generators
        self._orbits: dict = {}         # action -> the G~-orbits on all of J or J*
        self._orbit_of: dict = {}       # action -> {point: its orbit}
        self._supports: dict = {}       # is_form -> support functionals
        self._orbit_supports: dict = {}  # orbit -> orbit_support(orbit)
        self._torus_conj = None         # y -> t^-1 y t for each torus generator t
        self._radical_products = None   # y -> b_r y and y -> -(y b_r), radical b_r
        self._validated = False

    # -- linear helpers --------------------------------------------------

    def zero(self):
        return tuple([0] * self.dim)

    def basis_vec(self, i):
        return tuple(1 if j == i else 0 for j in range(self.dim))

    def add(self, x, y):
        F = self.field
        return tuple(F.add(a, b) for a, b in zip(x, y))

    def sub(self, x, y):
        F = self.field
        return tuple(F.sub(a, b) for a, b in zip(x, y))

    def smul(self, c, x):
        F = self.field
        return tuple(F.mul(c, a) for a in x)

    def mul(self, x, y):
        F = self.field
        out = [0] * self.dim
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            row = self._sparse[i]
            for j, yj in enumerate(y):
                if yj == 0:
                    continue
                c = F.mul(xi, yj)
                for l, v in row[j]:
                    out[l] = F.add(out[l], F.mul(c, v))
        return tuple(out)

    def mul_many(self, *xs):
        out = xs[0]
        for x in xs[1:]:
            out = self.mul(out, x)
        return out

    # -- S / J split -------------------------------------------------------

    @property
    def s_basis(self):
        return tuple(i for b in self.blocks for i in b.basis)

    def s_part(self, x):
        rad = set(self.radical_basis)
        return tuple(0 if i in rad else v for i, v in enumerate(x))

    def j_part(self, x):
        rad = set(self.radical_basis)
        return tuple(v if i in rad else 0 for i, v in enumerate(x))

    def in_radical(self, x):
        rad = set(self.radical_basis)
        return all(v == 0 for i, v in enumerate(x) if i not in rad)

    def j_coords(self, x):
        """Project onto the radical coordinates (a DualForm-shaped tuple)."""
        return tuple(x[i] for i in self.radical_basis)

    def j_embed(self, coords):
        vec = [0] * self.dim
        for i, c in zip(self.radical_basis, coords):
            vec[i] = c
        return tuple(vec)

    def j_vectors(self):
        """All elements of J as full-dimension vectors, lexicographic in the
        radical coordinates."""
        basis = [self.basis_vec(i) for i in self.radical_basis]
        return list(linalg.span(self.field, basis, self.dim))

    # -- inversion ---------------------------------------------------------

    def invert(self, g):
        """Inverse via a d x d linear solve; raises NotInvertible."""
        if g in self._inv_cache:
            return self._inv_cache[g]
        cols = [self.mul(g, self.basis_vec(j)) for j in range(self.dim)]
        rows = [[cols[j][l] for j in range(self.dim)] for l in range(self.dim)]
        y = linalg.solve(self.field, rows, list(self.unit))
        if y is None or self.mul(y, g) != self.unit:
            raise NotInvertible(f"element {g} is not invertible")
        self._inv_cache[g] = y
        return y

    # -- forms ---------------------------------------------------------------

    def form_eval(self, lam, x):
        """lambda(x); only the J-component of x contributes."""
        F = self.field
        out = 0
        for c, i in zip(lam, self.radical_basis):
            if c and x[i]:
                out = F.add(out, F.mul(c, x[i]))
        return out


def make_triple(spec: AlgebraSpec, t, a, b) -> TildeTriple:
    return TildeTriple(t, a, b, spec.invert(t), spec.invert(a), spec.invert(b))


# ---------------------------------------------------------------------------
# compiled maps: every action used here is x -> u x w, linear over the field
# ---------------------------------------------------------------------------

class LinearMap:
    """The affine map x -> M x + shift, with M stored as sparse integer columns.

    cols[i] lists the pairs (l, c) with (M e_i)_l = c != 0.  A map is compiled
    once per generator or group element; apply() then costs no AlgebraSpec.mul.
    """
    __slots__ = ("field", "cols", "shift")

    def __init__(self, field: FieldSpec, cols, shift):
        self.field = field
        self.cols = tuple(cols)
        self.shift = tuple(shift)

    def apply(self, x):
        F = self.field
        out = list(self.shift)
        if F.k == 1:
            # exact integer multiply-add, one reduction at the end
            for xi, col in zip(x, self.cols):
                if xi:
                    for l, c in col:
                        out[l] += xi * c
            p = F.p
            return tuple([v % p for v in out])
        for xi, col in zip(x, self.cols):
            if xi:
                for l, c in col:
                    out[l] = F.add(out[l], F.mul(xi, c))
        return tuple(out)


def sandwich_map(spec: AlgebraSpec, u, w, indices=None) -> LinearMap:
    """x -> u x w on full vectors, compiled from mul on the basis vectors in
    `indices` (default all); the columns of the other basis vectors are zero."""
    cols = [()] * spec.dim
    for i in range(spec.dim) if indices is None else indices:
        image = spec.mul(spec.mul(u, spec.basis_vec(i)), w)
        cols[i] = tuple((l, c) for l, c in enumerate(image) if c)
    return LinearMap(spec.field, cols, spec.zero())


# ---------------------------------------------------------------------------
# the orbit kernel: points as packed integers, compiled maps as image tables
# ---------------------------------------------------------------------------

class _Lanes:
    """Vectors over F_q coded as packed ints: one lane of `width` bits per F_p
    digit of each coordinate in `active`, digit j of the coordinate active[a]
    in lane (len(active) - 1 - a) k + j.

    fields.py codes an element of GF(p^k) by its base-p digits, so addition in
    F_q is digit-wise mod p for every q.  A lane holds a digit below p, so the
    sum of two lanes is at most 2p - 2 < 2^width, and adding 2^(width-1) - p
    to that sum sets the lane's top bit exactly when the sum reaches p: sums()
    adds lane-wise mod p in a few int operations, with no carry between lanes.
    The first active coordinate and, within a coordinate, digit k - 1 hold the
    most significant lanes, so codes order like the tuples they code.
    """
    __slots__ = ("p", "shifts", "digits", "ones", "bias", "top")

    def __init__(self, field: FieldSpec, active):
        p, k = field.p, field.k
        width = (p - 1).bit_length() + 1
        self.p = p
        self.shifts = {i: width * k * (len(active) - 1 - a) for a, i in enumerate(active)}
        self.digits = [sum((c // p ** j % p) << (width * j) for j in range(k))
                       for c in range(field.q)]
        self.ones = sum(1 << (width * lane) for lane in range(len(active) * k))
        self.bias = ((1 << (width - 1)) - p) * self.ones
        self.top = width - 1

    def pack(self, pairs) -> int:
        """The code of the vector with entry c at the active coordinate l for
        each pair (l, c)."""
        return sum(self.digits[c] << self.shifts[l] for l, c in pairs)

    def sums(self, xs, ys) -> list[int]:
        """[x + y for x in xs for y in ys], added lane-wise mod p."""
        p, bias, top, ones = self.p, self.bias, self.top, self.ones
        return [(s := x + y) - p * (((s + bias) >> top) & ones) for x in xs for y in ys]


def _points(field: FieldSpec, translates, coords):
    """The points h + sum of c_i e_i (i in coords), translate by translate and
    lexicographic in the c_i: the numbering of orbit_partition."""
    free = set(coords)
    values = range(field.q)
    for h in translates:
        yield from product(*[values if i in free else (x,) for i, x in enumerate(h)])


def orbit_partition(field: FieldSpec, translates, coords, maps) -> list[frozenset]:
    """The orbits on P = union of the translates h + V, V = span(e_i : i in
    coords), of the group the affine maps (LinearMap) generate, as frozensets
    of tuples in order of their least member.

    Every translate is zero on coords, and every map must permute P: a map
    that sends a point out of P raises PointOutsideSet.  A finite group is
    generated by any generating set as a semigroup, so the closures under the
    maps, applied without inverses, are exactly the orbits.

    Points are packed ints (_Lanes) over the active coordinates, those of V
    and those where the translates differ; every point agrees with the first
    translate h0 off them.  A map's image table comes from linearity:
    x -> M x + shift sends h + sum c_i e_i to (M h + shift) + sum M (c_i e_i).
    Off the active coordinates M h + shift must equal h0 and each M e_i must
    vanish (else the image of h, or of h0 + e_i, leaves P).  From the q codes
    of M (c e_i) per coordinate the table is then built coordinate by
    coordinate, at about one packed add per point.  The closures are a BFS
    over these int tables.
    """
    coords = sorted(coords)
    h0 = translates[0]
    lanes = _Lanes(field, sorted({*coords, *(i for h in translates
                                             for i, x in enumerate(h) if x != h0[i])}))
    fixed = [(i, x) for i, x in enumerate(h0) if i not in lanes.shifts]
    values = range(field.q)

    def pack(vec, x):
        """The code of the image vec of the point x, which must agree with h0
        off the active coordinates."""
        if any(vec[i] != c for i, c in fixed):
            raise PointOutsideSet(f"a map sends {x} outside its point set")
        return lanes.pack((i, vec[i]) for i in lanes.shifts)

    codes = [0]
    for i in coords:
        step = [lanes.pack([(i, c)]) for c in values]
        codes = [a + b for a in codes for b in step]
    codes = [base + v for h in translates for base in [pack(h, h)] for v in codes]
    index = dict(zip(codes, range(len(codes))))
    tables = []
    for m in maps:
        bases = [pack(m.apply(h), h) for h in translates]
        steps = []
        for i in coords:
            if any(l not in lanes.shifts for l, _ in m.cols[i]):
                x = tuple(1 if j == i else c for j, c in enumerate(h0))
                raise PointOutsideSet(f"a map sends {x} outside its point set")
            steps.append([lanes.pack((l, field.mul(c, v)) for l, v in m.cols[i])
                          for c in values])
        *head_steps, last = steps or [[0]]
        head = [0]
        for step in head_steps:
            head = lanes.sums(head, step)
        images = []
        for base in bases:
            images += lanes.sums(head, lanes.sums([base], last))
        try:
            tables.append(array("I", map(index.__getitem__, images)))
        except KeyError:
            n = next(n for n, c in enumerate(images) if c not in index)
            x = next(islice(_points(field, translates, coords), n, None))
            raise PointOutsideSet(f"a map sends {x} outside its point set") from None
    seen = bytearray(len(codes))
    orbits = []
    for start in range(len(codes)):
        if not seen[start]:
            seen[start] = 1
            members = [start]
            for v in members:
                for table in tables:
                    w = table[v]
                    if not seen[w]:
                        seen[w] = 1
                        members.append(w)
            orbits.append(members)
    orbits.sort(key=lambda o: min(map(codes.__getitem__, o)))
    del tables, index, codes        # freed before the point tuples are built
    points = list(_points(field, translates, coords))
    return [frozenset(map(points.__getitem__, o)) for o in orbits]


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate_algebra(spec: AlgebraSpec) -> AlgebraSpec:
    """Check every standing hypothesis on the input algebra; errors cite paths.

    Every product is read off the sparse structure constants, with vectors
    as dicts {index: nonzero coefficient}: integer multiply-adds and one
    reduction mod p for k = 1, the field's add and mul for k > 1."""
    F = spec.field
    d = spec.dim
    sp = spec._sparse

    def combo(pairs) -> dict:
        """The sum of c v over the pairs (c, v), v a sparse cell of sp."""
        out: dict = {}
        if F.k == 1:
            for c, cell in pairs:
                for l, x in cell:
                    out[l] = out.get(l, 0) + c * x
            return {l: v % F.p for l, v in out.items() if v % F.p}
        for c, cell in pairs:
            for l, x in cell:
                out[l] = F.add(out.get(l, 0), F.mul(c, x))
        return {l: v for l, v in out.items() if v}

    def times(x: dict, y: dict) -> dict:
        return combo([(F.mul(a, b), sp[i][j]) for i, a in x.items() for j, b in y.items()])

    def vec(x) -> dict:
        return {i: v for i, v in enumerate(x) if v}

    block_idx = [i for b in spec.blocks for i in b.basis]
    if sorted(block_idx + list(spec.radical_basis)) != list(range(d)):
        raise NotDirectSum(
            "blocks[*].basis and radical_basis must partition the basis indices 0..dim-1"
        )

    # (b_i b_j) b_l = b_i (b_j b_l), skipping the l with b_i b_j = b_j b_l = 0
    nonzero = [[l for l in range(d) if sp[j][l]] for j in range(d)]
    for i in range(d):
        for j in range(d):
            ij = sp[i][j]
            for l in range(d) if ij else nonzero[j]:
                if combo([(c, sp[m][l]) for m, c in ij]) != \
                        combo([(c, sp[i][m]) for m, c in sp[j][l]]):
                    raise NotAssociative(f"mul: (b{i}*b{j})*b{l} != b{i}*(b{j}*b{l})")

    unit = vec(spec.unit)
    for i in range(d):
        if times(unit, {i: 1}) != {i: 1} or times({i: 1}, unit) != {i: 1}:
            raise BadUnit(f"unit: not a two-sided identity on basis index {i}")

    idems = [vec(b.idempotent) for b in spec.blocks]
    total = spec.zero()
    for bi, e in enumerate(idems):
        total = spec.add(total, spec.blocks[bi].idempotent)
        for bj, f in enumerate(idems):
            if times(e, f) != (e if bi == bj else {}):
                raise BadIdempotents(f"blocks[{bi}].idempotent * blocks[{bj}].idempotent wrong")
    if total != spec.unit:
        raise BadIdempotents("blocks[*].idempotent do not sum to the unit")

    s_idx = spec.s_basis
    for i in s_idx:
        for j in s_idx:
            if sp[i][j] != sp[j][i]:
                raise SNotCommutative(f"blocks: basis {i} and {j} do not commute")

    rad = set(spec.radical_basis)
    for bi, blk in enumerate(spec.blocks):
        sub = list(blk.basis)
        # closure of the block span under multiplication
        for i in sub:
            for j in sub:
                if any(l not in sub for l, _ in sp[i][j]):
                    raise BadIdempotents(f"blocks[{bi}]: span not closed under multiplication")
        for i in sub:
            if times(idems[bi], {i: 1}) != {i: 1} or times({i: 1}, idems[bi]) != {i: 1}:
                raise BadIdempotents(f"blocks[{bi}]: idempotent is not a unit of the block")
        # every nonzero block element must be invertible inside the block
        for z in linalg.span(F, [spec.basis_vec(i) for i in sub], d):
            if z == spec.zero():
                continue
            cols = [times(vec(z), {j: 1}) for j in sub]
            rows = [[col.get(l, 0) for col in cols] for l in sub]
            rhs = [blk.idempotent[l] for l in sub]
            if linalg.solve(F, rows, rhs) is None:
                raise BadIdempotents(f"blocks[{bi}]: span is not a field (no inverse for {z})")

    # SJ, JS, JJ land in J
    for i in range(d):
        for j in spec.radical_basis:
            for cell, path in ((sp[i][j], f"b{i}*b{j}"), (sp[j][i], f"b{j}*b{i}")):
                if any(l not in rad for l, _ in cell):
                    raise RadicalNotNilpotent(f"radical_basis: {path} leaves J")

    # nilpotency class by iterating spans of J^k
    power = [spec.basis_vec(i) for i in spec.radical_basis]
    k = 1
    while power:
        if k > d + 1:
            raise RadicalNotNilpotent("radical_basis: J is not nilpotent")
        nxt = []
        for x in power:
            for r in spec.radical_basis:
                v = combo([(c, sp[m][r]) for m, c in enumerate(x) if c])
                if v:
                    nxt.append([v.get(l, 0) for l in range(d)])
        if nxt:
            mat, pivots = linalg.rref(F, nxt)
            nxt = [tuple(mat[r]) for r in range(len(pivots))]
        power = nxt
        k += 1
    spec.nilpotency_class = k

    _build_block_data(spec)
    spec._validated = True
    return spec


def _build_block_data(spec: AlgebraSpec):
    """Per-block unit sets, multiplicative generators and discrete logs."""
    F = spec.field
    spec.block_units = []
    spec.block_gen = []
    spec.block_dlog = []
    for blk in spec.blocks:
        elems = linalg.span(F, [spec.basis_vec(i) for i in blk.basis], spec.dim)
        units = sorted(z for z in elems if z != spec.zero())
        order = F.q ** blk.degree - 1
        gen = None
        dlog = None
        for cand in units:
            seen = {}
            cur = blk.idempotent
            ok = True
            for e in range(order):
                if cur in seen:
                    ok = False
                    break
                seen[cur] = e
                cur = spec.mul(cur, cand)
            if ok and cur == blk.idempotent and len(seen) == order:
                gen, dlog = cand, seen
                break
        if gen is None:
            raise BadIdempotents("block span has no multiplicative generator")
        spec.block_units.append(tuple(units))
        spec.block_gen.append(gen)
        spec.block_dlog.append(dlog)
    spec.block_orders = tuple(F.q ** b.degree - 1 for b in spec.blocks)
    spec.cyclo_order = lcm(F.p, *[max(o, 1) for o in spec.block_orders])


# ---------------------------------------------------------------------------
# group pieces: H, N, G
# ---------------------------------------------------------------------------

def h_elements(spec: AlgebraSpec):
    """All elements of H = S*, deterministic order."""
    combos = [spec.zero()]
    for units in spec.block_units:
        combos = [spec.add(v, u) for v in combos for u in units]
    return sorted(combos)


def group_order(spec: AlgebraSpec) -> int:
    return prod(spec.block_orders) * spec.field.q ** len(spec.radical_basis)


def block_component(spec: AlgebraSpec, s, i: int):
    """e_i s e_i for s in S: the coordinates of s on block i's basis, zero
    elsewhere, with no mul.  S is the direct sum of the block spans, and e_i
    is the unit of block i and kills every other block.  Raises NotInH if s
    has a nonzero radical part."""
    if any(s[r] for r in spec.radical_basis):
        raise NotInH(f"{s} has a nonzero radical component")
    basis = spec.blocks[i].basis
    return tuple(v if j in basis else 0 for j, v in enumerate(s))


def associated_support(spec: AlgebraSpec, s) -> frozenset:
    """Blocks on which the S-element s has a nonzero component."""
    return frozenset(
        i for i in range(len(spec.blocks)) if block_component(spec, s, i) != spec.zero()
    )


def idempotent_of(spec: AlgebraSpec, blocks: frozenset):
    e = spec.zero()
    for i in sorted(blocks):
        e = spec.add(e, spec.blocks[i].idempotent)
    return e


# ---------------------------------------------------------------------------
# the triple-group actions
# ---------------------------------------------------------------------------

def rho(spec: AlgebraSpec, tau: TildeTriple, x):
    """rho(tau)(x) = t a x b^{-1} t^{-1} on the radical."""
    if not spec.in_radical(x):
        raise NotInRadical(f"{x} has a nonzero S-component")
    return spec.mul_many(tau.t, tau.a, x, tau.b_inv, tau.t_inv)


def rho_dual(spec: AlgebraSpec, tau: TildeTriple, lam):
    """The dual action: (rho* lam)(x) = lam(a^{-1} t^{-1} x t b)."""
    u = spec.mul(tau.a_inv, tau.t_inv)
    v = spec.mul(tau.t, tau.b)
    out = []
    for i in spec.radical_basis:
        w = spec.mul_many(u, spec.basis_vec(i), v)
        out.append(spec.form_eval(lam, w))
    return tuple(out)


def rho_map(spec: AlgebraSpec, tau: TildeTriple) -> LinearMap:
    """rho(tau) compiled, on full vectors of J (J is an ideal, so J maps to J)."""
    return sandwich_map(spec, spec.mul(tau.t, tau.a), spec.mul(tau.b_inv, tau.t_inv),
                        spec.radical_basis)


def rho_dual_map(spec: AlgebraSpec, tau: TildeTriple) -> LinearMap:
    """rho*(tau) compiled, on radical coordinates: the transpose of the
    sandwich x -> a^{-1} t^{-1} x t b restricted to J."""
    rad = spec.radical_basis
    pos = {i: s for s, i in enumerate(rad)}
    m = sandwich_map(spec, spec.mul(tau.a_inv, tau.t_inv), spec.mul(tau.t, tau.b), rad)
    cols = [[] for _ in rad]
    for r, i in enumerate(rad):
        for l, c in m.cols[i]:
            cols[pos[l]].append((r, c))
    return LinearMap(spec.field, cols, [0] * len(rad))


def torus_generators(spec: AlgebraSpec) -> list:
    """One torus generator per block of order > 1: the block's multiplicative
    generator, and 1 on every other block."""
    return [spec.add(spec.block_gen[i], spec.sub(spec.unit, blk.idempotent))
            for i, blk in enumerate(spec.blocks) if spec.block_orders[i] > 1]


def _generated_order(spec: AlgebraSpec, ts) -> int:
    """The order of the subgroup of H that the elements ts generate: the BFS
    closure of the unit under right multiplication by them."""
    return len(closure(spec.unit, [sandwich_map(spec, spec.unit, t).apply for t in ts]))


def torus_conjugations(spec: AlgebraSpec) -> list:
    """The compiled apply functions of y -> t^-1 y t for the torus generators
    t (torus_generators), once the closure of the generators is proved to
    have |H| elements; raises NotGenerating otherwise.  The closure of y
    under these maps is then its orbit under conjugation by H.  Built and
    proved once per spec."""
    if spec._torus_conj is None:
        gens = torus_generators(spec)
        size, order = _generated_order(spec, gens), prod(spec.block_orders)
        if size != order:
            raise NotGenerating(f"the torus generators generate a subgroup of order "
                                f"{size} of H, which has order {order}")
        spec._torus_conj = [sandwich_map(spec, spec.invert(t), t).apply for t in gens]
    return spec._torus_conj


# ---------------------------------------------------------------------------
# generators of the triple group G~, and its orbits
# ---------------------------------------------------------------------------

def tilde_generators(spec: AlgebraSpec):
    """Generator triples of G~: one torus generator per block, and (1, a, 1),
    (1, 1, a) with a = 1 + c b_r for every radical basis vector b_r and c != 0."""
    gens = [make_triple(spec, t, spec.unit, spec.unit) for t in torus_generators(spec)]
    for r in spec.radical_basis:
        for c in range(1, spec.field.q):
            a = spec.add(spec.unit, spec.smul(c, spec.basis_vec(r)))
            gens.append(make_triple(spec, spec.unit, a, spec.unit))
            gens.append(make_triple(spec, spec.unit, spec.unit, a))
    return gens


def closure(start, maps) -> set:
    """BFS closure of start under the maps (applied without inverses)."""
    members = {start}
    frontier = [start]
    while frontier:
        new = []
        for v in frontier:
            for f in maps:
                w = f(v)
                if w not in members:
                    members.add(w)
                    new.append(w)
        frontier = new
    return members


def certify_generators(spec: AlgebraSpec, gens) -> None:
    """Prove that the triples gens generate G~ = H x| (N x N); raise
    NotGenerating otherwise.

    Each triple must move one of t, a, b only, with t in H and a, b in
    N = 1 + J.  As (t, a, b) = (t, 1, 1)(1, a, 1)(1, 1, b), gens then generate
    G~ exactly when their t-parts generate H and their a-parts and b-parts each
    generate N.  Each of these is the closure of the unit under right
    multiplication, which lies in H (or N) and so equals it exactly when it
    has |H| (or |N| = q^{dim J}) elements.  The t-parts close by a BFS over
    tuples.  Each a- or b-part lies in N, so right multiplication by it
    permutes the box 1 + J, and the parts' closure of the unit is its orbit
    in the kernel's partition of that box (orbit_partition).  The b-parts need
    no closure of their own when they equal the a-parts.
    """
    unit = spec.unit
    h_set = set(h_elements(spec))
    parts = {"t": set(), "a": set(), "b": set()}
    for g in gens:
        moved = [(k, x) for k, x in (("t", g.t), ("a", g.a), ("b", g.b)) if x != unit]
        if len(moved) > 1:
            raise NotGenerating(f"triple {g.t, g.a, g.b} moves more than one part")
        for k, x in moved:
            if not (x in h_set if k == "t" else spec.in_radical(spec.sub(x, unit))):
                raise NotGenerating(f"{k}-part {x} lies outside {'H' if k == 't' else 'N'}")
            parts[k].add(x)
    n_order = spec.field.q ** len(spec.radical_basis)
    checks = [("t", "H", len(h_set)), ("a", "N", n_order)]
    if parts["b"] != parts["a"]:
        checks.append(("b", "N", n_order))
    for k, name, order in checks:
        if k == "t":
            size = _generated_order(spec, sorted(parts[k]))
        else:
            maps = [sandwich_map(spec, unit, x) for x in sorted(parts[k])]
            box = orbit_partition(spec.field, [unit], spec.radical_basis, maps)
            size = len(next(o for o in box if unit in o))
        if size != order:
            raise NotGenerating(f"the {k}-parts generate a subgroup of order {size} "
                                f"of {name}, which has order {order}")


def certified_generators(spec: AlgebraSpec) -> list:
    """tilde_generators(spec), once certify_generators has proved that they
    generate G~.  The proof runs once per spec."""
    if spec._tilde_gens is None:
        gens = tilde_generators(spec)
        certify_generators(spec, gens)
        spec._tilde_gens = gens
    return spec._tilde_gens


def space_orbits(spec: AlgebraSpec, action: str) -> list[OrbitRecord]:
    """The G~-orbits on all of J (action "rho", full vectors) or of J*
    ("rho_dual", radical coordinates), in order of their least member: the
    kernel's closures (orbit_partition) under the certified generators,
    compiled and partitioned once per action and spec."""
    if action not in spec._orbits:
        gens = certified_generators(spec)
        nu = len(spec.radical_basis)
        if action == "rho":
            parts = orbit_partition(spec.field, [spec.zero()], spec.radical_basis,
                                    [rho_map(spec, g) for g in gens])
        else:
            parts = orbit_partition(spec.field, [(0,) * nu], range(nu),
                                    [rho_dual_map(spec, g) for g in gens])
        tag = "J" if action == "rho" else "J*"
        spec._orbits[action] = [OrbitRecord(m, min(m), tag) for m in parts]
    return spec._orbits[action]


def orbit(spec: AlgebraSpec, start, action: str) -> OrbitRecord:
    """The G~-orbit of `start` in J (action "rho") or J* (action "rho_dual"),
    read off the partition of the whole space (space_orbits).

    The orbit of y in a corner J_e = e J e under the corner group
    G~_e = H_e x| (N_e x N_e) is G~ y /\\ J_e: if t a y b^-1 t^-1 lies in J_e,
    multiplying by e on both sides gives t_e a_e y b_e^-1 t_e^-1 with
    t_e = t e + (1 - e), a_e = 1 + e (a - 1) e, b_e^-1 = 1 + e (b^-1 - 1) e, and
    likewise on J*.  The members of G~ y of least support T lie in J_T, inside
    J_e, so the corner orbit and the G~-orbit share their support and
    canonical representative (orbit_support).
    """
    start = tuple(start)
    if action == "rho" and not spec.in_radical(start):
        raise NotInRadical(f"{start} has a nonzero S-component")
    if action not in spec._orbit_of:
        spec._orbit_of[action] = {v: rec for rec in space_orbits(spec, action)
                                  for v in rec.members}
    return spec._orbit_of[action][start]


# ---------------------------------------------------------------------------
# supports and regularity
# ---------------------------------------------------------------------------

def _support_functionals(spec: AlgebraSpec, is_form: bool):
    """(m, blocks): the LinearMap m stacks, block by block, the rref'd rows of
    the maps that vanish exactly off block i's support: x -> e_i x and
    x -> x e_i on J (full vectors), or lam -> lam(e_i b_r) and lam(b_r e_i) on
    J* (radical coordinates); blocks[r] is the block of row r.  Built once
    per spec and cached on it, so a support costs one apply and no mul."""
    if is_form not in spec._supports:
        F = spec.field
        rad = spec.radical_basis
        basis = [spec.basis_vec(r) for r in rad]
        cols = [[] for _ in range(len(rad) if is_form else spec.dim)]
        blocks = []
        for i, blk in enumerate(spec.blocks):
            left = [spec.j_coords(spec.mul(blk.idempotent, b)) for b in basis]
            right = [spec.j_coords(spec.mul(b, blk.idempotent)) for b in basis]
            # lam -> lam(e_i b_r) is the row j_coords(e_i b_r); x -> e_i x has
            # those vectors as its columns
            rows = left + right if is_form else [*zip(*left), *zip(*right)]
            mat, pivots = linalg.rref(F, rows)
            for row in mat[:len(pivots)]:
                for s, c in enumerate(row):
                    if c:
                        cols[s if is_form else rad[s]].append((len(blocks), c))
                blocks.append(i)
        spec._supports[is_form] = (LinearMap(F, cols, [0] * len(blocks)), blocks)
    return spec._supports[is_form]


def element_support(spec: AlgebraSpec, x) -> frozenset:
    """Minimal block set T with x in J_{e_T} (for x in J): the blocks i with
    e_i x != 0 or x e_i != 0."""
    m, blocks = _support_functionals(spec, False)
    return frozenset(compress(blocks, m.apply(x)))


def form_support(spec: AlgebraSpec, lam) -> frozenset:
    """Minimal block set T with lam in J_{e_T}* (vanishing off e_T J e_T): the
    blocks i with lam(e_i b_r) != 0 or lam(b_r e_i) != 0 for some r."""
    m, blocks = _support_functionals(spec, True)
    return frozenset(compress(blocks, m.apply(lam)))


def orbit_support(spec: AlgebraSpec, orb: OrbitRecord) -> tuple[frozenset, tuple]:
    """(T, w): the unique minimal support T over the orbit (the Peirce corner
    the orbit meets) and the least member w with support T, the canonical
    representative of the orbit's corner part.  Proved once per orbit and
    spec: the census, classify and stabilizer_data share the result."""
    if orb not in spec._orbit_supports:
        supp = element_support if orb.space_tag == "J" else form_support
        least: dict = {}
        for v in orb.members:
            t = supp(spec, v)
            if t not in least or v < least[t]:
                least[t] = v
        minimal = [t for t in least if not any(u < t for u in least)]
        if len(minimal) != 1:
            raise NotRegular(f"orbit support is not unique: {sorted(map(sorted, minimal))}")
        spec._orbit_supports[orb] = minimal[0], least[minimal[0]]
    return spec._orbit_supports[orb]


def is_singular(spec: AlgebraSpec, v, is_form: bool = False) -> bool:
    """Annihilator criterion: singular iff some c in A \\ J kills v on both sides."""
    F = spec.field
    d = spec.dim
    if not is_form:
        # column j holds c_j v, then v c_j: one product each per basis vector
        left = [spec.mul(spec.basis_vec(j), v) for j in range(d)]
        right = [spec.mul(v, spec.basis_vec(j)) for j in range(d)]
        rows = [*zip(*left), *zip(*right)]
    else:
        # b_r c_j and c_j b_r are structure constants, with no product to take
        table = spec.mul_table
        rows = []
        for r in spec.radical_basis:
            rows.append([spec.form_eval(v, table[r][j]) for j in range(d)])
            rows.append([spec.form_eval(v, table[j][r]) for j in range(d)])
    # kernel dimensions as columns minus rank: with J = 0 a form has no
    # rows, and its kernel is all of A
    rad = list(spec.radical_basis)
    full_dim = d - linalg.rank(F, rows)
    rad_dim = len(rad) - linalg.rank(F, [[row[j] for j in rad] for row in rows])
    return full_dim > rad_dim


# ---------------------------------------------------------------------------
# censuses
# ---------------------------------------------------------------------------

class OrbitCensus(namedtuple("OrbitCensus",
                             "space orbits supports corner_reps n n_e n_sub residual")):
    """supports: frozenset per orbit, aligned with orbits; corner_reps: least
    member with that support, per orbit; n_sub: frozenset T -> n(J_{e_T})."""
    __slots__ = ()


def orbit_census(spec: AlgebraSpec, space: str = "J",
                 bound: int = DEFAULT_SPACE_BOUND) -> OrbitCensus:
    """Partition J (or J*) into triple-group orbits and classify by support."""
    F = spec.field
    size = F.q ** len(spec.radical_basis)
    if size > bound:
        raise SpaceTooLarge(f"|{space}| = {size} exceeds bound {bound}")
    orbits = space_orbits(spec, "rho" if space == "J" else "rho_dual")
    supports, corner_reps = map(list, zip(*(orbit_support(spec, o) for o in orbits)))

    nb = len(spec.blocks)
    all_blocks = frozenset(range(nb))
    n_sub = {}
    for mask in range(2 ** nb):
        T = frozenset(i for i in range(nb) if mask >> i & 1)
        n_sub[T] = sum(1 for s in supports if s <= T)
    n_e = sum(1 for s in supports if s == all_blocks)
    # inclusion-exclusion over the singular strata J_{prod e'_i}
    signed = 0
    for mask in range(2 ** nb):
        T = frozenset(i for i in range(nb) if mask >> i & 1)
        signed += (-1) ** len(T) * n_sub[all_blocks - T]
    residual = n_e - signed
    return OrbitCensus(space, orbits, supports, corner_reps, len(orbits), n_e, n_sub, residual)


def regular_orbit_counts(census: OrbitCensus) -> dict:
    """n_E(J_{e_T}) for every T: orbits whose minimal support is exactly T."""
    return dict(Counter(census.supports))


# ---------------------------------------------------------------------------
# JSON input
# ---------------------------------------------------------------------------

def _coeff(field: FieldSpec, raw, path: str) -> int:
    if isinstance(raw, int):
        if field.k == 1:
            return raw % field.p
        return raw % field.q
    if isinstance(raw, list):
        return field.encode(raw)
    raise AlgebraValidationError(f"{path}: bad coefficient {raw!r}")


def _fail(path: str, what: str):
    raise AlgebraValidationError(f"{path}: {what}")


def _list(raw, path: str, length: int | None = None) -> list:
    if not isinstance(raw, list):
        _fail(path, f"expected a list, got {raw!r}")
    if length is not None and len(raw) != length:
        _fail(path, f"expected {length} entries, got {len(raw)}")
    return raw


def _int(raw, path: str, lo: int, hi: int | None = None) -> int:
    """An integer in [lo, hi) (hi None: no upper limit)."""
    if not isinstance(raw, int) or isinstance(raw, bool) or raw < lo or \
            (hi is not None and raw >= hi):
        rng = f"at least {lo}" if hi is None else f"in {lo}..{hi - 1}"
        _fail(path, f"expected an integer {rng}, got {raw!r}")
    return raw


def _check_schema(data) -> None:
    """Types, lengths and index ranges of a spec file, before anything is
    built from it; each fault names its JSON field.  Keys not read here are
    ignored."""
    if not isinstance(data, dict):
        _fail("spec", f"top level must be a JSON object, got {type(data).__name__}")
    for key in ("p", "dim", "unit", "mul", "blocks", "radical_basis"):
        if key not in data:
            _fail(key, "missing required field")
    _int(data["p"], "p", 2)
    _int(data.get("k", 1), "k", 1)
    dim = _int(data["dim"], "dim", 1)
    _list(data["unit"], "unit", dim)
    for idx, ent in enumerate(_list(data["mul"], "mul")):
        i, j, terms = _list(ent, f"mul[{idx}]", 3)
        _int(i, f"mul[{idx}][0]", 0, dim)
        _int(j, f"mul[{idx}][1]", 0, dim)
        for t, term in enumerate(_list(terms, f"mul[{idx}][2]")):
            _int(_list(term, f"mul[{idx}][2][{t}]", 2)[0], f"mul[{idx}][2][{t}][0]", 0, dim)
    for bi, blk in enumerate(_list(data["blocks"], "blocks")):
        if not isinstance(blk, dict):
            _fail(f"blocks[{bi}]", f"expected an object, got {blk!r}")
        for key in ("idempotent", "degree", "basis"):
            if key not in blk:
                _fail(f"blocks[{bi}].{key}", "missing required field")
        _list(blk["idempotent"], f"blocks[{bi}].idempotent", dim)
        _int(blk["degree"], f"blocks[{bi}].degree", 1)
        for t, i in enumerate(_list(blk["basis"], f"blocks[{bi}].basis")):
            _int(i, f"blocks[{bi}].basis[{t}]", 0, dim)
    for t, i in enumerate(_list(data["radical_basis"], "radical_basis")):
        _int(i, f"radical_basis[{t}]", 0, dim)


def load_algebra(data: dict) -> AlgebraSpec:
    """Build and validate an AlgebraSpec from the JSON schema."""
    _check_schema(data)
    field = field_make(data["p"], data.get("k", 1))
    dim = data["dim"]
    unit = [_coeff(field, c, f"unit[{i}]") for i, c in enumerate(data["unit"])]
    entries = []
    for idx, ent in enumerate(data["mul"]):
        i, j, terms = ent
        entries.append((i, j, [(l, _coeff(field, c, f"mul[{idx}]")) for l, c in terms]))
    blocks = []
    for bi, blk in enumerate(data["blocks"]):
        idem = tuple(_coeff(field, c, f"blocks[{bi}].idempotent[{i}]")
                     for i, c in enumerate(blk["idempotent"]))
        blocks.append(Block(idem, blk["degree"], tuple(blk["basis"])))
    spec = AlgebraSpec(field, dim, entries, unit, blocks, data["radical_basis"])
    return validate_algebra(spec)


def load_algebra_file(path: str) -> AlgebraSpec:
    with open(path) as fh:
        return load_algebra(json.load(fh))

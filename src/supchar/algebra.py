"""Validated reduced algebras A = S (+) J over GF(q), the triple group and its
actions on J and J*, orbit enumeration, and the singular/regular classification.

Algebra elements are coefficient tuples of length dim over the field encoding
of fields.py.  Linear forms on J are coefficient tuples indexed by the radical
basis order.  The basis indices of the blocks and of the radical partition
range(dim), so S and J are coordinate subspaces.
"""
from __future__ import annotations

from array import array
from collections import Counter, namedtuple
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
from .fields import FieldSpec, check_size, field_make

DEFAULT_GROUP_BOUND = 2 ** 17     # on |G|
DEFAULT_SPACE_BOUND = 2 ** 20     # on |J| and |J*|


class Block(namedtuple("Block", "idempotent degree basis")):
    __slots__ = ()


class OrbitRecord(namedtuple("OrbitRecord", "members representative space_tag")):
    __slots__ = ()  # space_tag: "J" or "J*"


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
        # _sparse[i][j]: the pairs (l, c), c != 0, of b_i b_j (entries [i, j, [(l, c)...]])
        sparse = [[()] * dim for _ in range(dim)]
        for i, j, terms in mul_entries:
            cell = {l: c % field.p if field.k == 1 else c for l, c in terms}
            sparse[i][j] = tuple(sorted((l, c) for l, c in cell.items() if c))
        self._sparse = tuple(map(tuple, sparse))
        self._tilde_gens = None         # certified tilde_generators: (torus, parts)
        self._n_closure = None          # the last _unit_closure: xs, members, flags, tables
        self._boxes: dict = {}          # tag -> its point set (box)
        self._orbits: dict = {}         # (space, torus) -> the orbits on all of it (space_orbits)
        self._orbit_of: dict = {}       # (space, torus) -> the orbit id of each point (orbit_ids)
        self._supports: dict = {}       # space -> support_table
        self._orbit_supports: dict = {}  # (space, least point) -> orbit_support
        self._torus_pairs = None        # (t, t^-1) for each torus generator t
        self._torus_conj = None         # y -> t^-1 y t for each torus generator t
        self._radical_products = None   # y -> b_r y and y -> -(y b_r), radical b_r

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

    # -- inversion ---------------------------------------------------------

    def invert(self, g):
        """g^-1 for g = h + x, h in S and x in J; raises NotInvertible.  A/J = S
        is a product of fields, so g is a unit exactly when h is nonzero on
        every block.  h^-1 is read off each block's discrete logs, and with
        y = h^-1 x, g^-1 = (1 + y)^-1 h^-1 = (sum of (-y)^i) h^-1, a finite sum
        as J is nilpotent."""
        h = self.s_part(g)
        h_inv = self.zero()
        for i in range(len(self.blocks)):
            if (c := block_component(self, h, i)) == self.zero():
                raise NotInvertible(f"element {g} is not invertible")
            logs = self.block_dlog[i]
            h_inv = self.add(h_inv, list(logs)[-logs[c]])    # logs lists the powers in order
        neg_y = self.mul(h_inv, self.sub(h, g))
        term = total = self.unit
        while any(term := self.mul(term, neg_y)):
            total = self.add(total, term)
        out = self.mul(total, h_inv)
        if self.mul(out, g) != self.unit:
            raise NotInvertible(f"element {g} is not invertible")
        return out

    # -- forms ---------------------------------------------------------------

    def form_eval(self, lam, x):
        """lambda(x); only the J-component of x contributes."""
        return self.field.dot(zip(lam, (x[i] for i in self.radical_basis)))

    def form_products(self, lam):
        """[[lam(b_i b_j) for j] for i] over every basis index, read off the
        sparse structure constants with no mul."""
        F, full = self.field, self.j_embed(lam)
        return [[F.dot((full[l], v) for l, v in cell) if cell else 0 for cell in row]
                for row in self._sparse]


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
    most significant lanes, so codes order like the tuples they code; the
    bits of one coordinate are `mask` shifted by its entry of `shifts`.
    """
    __slots__ = ("field", "shifts", "digits", "ones", "bias", "top", "mask")

    def __init__(self, field: FieldSpec, active):
        p, k = field.p, field.k
        width = (p - 1).bit_length() + 1
        self.field = field
        self.shifts = {i: width * k * (len(active) - 1 - a) for a, i in enumerate(active)}
        self.digits = [sum((c // p ** j % p) << (width * j) for j in range(k))
                       for c in range(field.q)]
        self.ones = sum(1 << (width * lane) for lane in range(len(active) * k))
        self.bias = ((1 << (width - 1)) - p) * self.ones
        self.top = width - 1
        self.mask = (1 << width * k) - 1

    def pack(self, pairs) -> int:
        """The code of the vector with entry c at the active coordinate l for
        each pair (l, c)."""
        return sum(self.digits[c] << self.shifts[l] for l, c in pairs)

    def sums(self, xs, ys) -> list[int]:
        """[x + y for x in xs for y in ys], added lane-wise mod p."""
        p, bias, top, ones = self.field.p, self.bias, self.top, self.ones
        return [(s := x + y) - p * (((s + bias) >> top) & ones) for x in xs for y in ys]

    def span(self, vectors) -> list[int]:
        """The codes of sum c_j v_j over every coefficient tuple (c_j) in F_q,
        the last coefficient varying fastest; each v_j is given by its pairs
        (l, c) (pack).  No vectors span [0]."""
        F, codes = self.field, [0]
        for v in vectors:
            codes = self.sums(codes, [self.pack((l, F.mul(c, x)) for l, x in v)
                                      for c in range(F.q)])
        return codes

    def numbers(self) -> dict:
        """{code: n} for every vector on the active coordinates, n its number:
        its base-q digits, the first active coordinate most significant."""
        return {c: n for n, c in enumerate(self.span([[(i, 1)] for i in self.shifts]))}


class Box:
    """The points h + sum of c_i e_i (h in translates, each zero on coords; c_i
    in F_q), numbered as orbit_partition numbers them: point n is translate
    n // q^len(coords) plus the base-q digits of the rest, first coordinate
    most significant; the digits' value is the point's dot product with weights."""
    __slots__ = ("field", "translates", "coords", "size", "weights", "_at")

    def __init__(self, field: FieldSpec, translates, coords):
        self.field, self.translates, self.coords = field, tuple(translates), tuple(sorted(coords))
        width = field.q ** len(self.coords)
        self.size = len(self.translates) * width
        self.weights = tuple(width // field.q ** (self.coords.index(i) + 1) if i in self.coords
                             else 0 for i in range(len(self.translates[0])))
        self._at = {h: t * width for t, h in enumerate(self.translates)}

    def number(self, x) -> int:
        """The number of the point x; PointOutsideSet if x is no point."""
        h = tuple(0 if w else c for c, w in zip(x, self.weights))
        if h not in self._at or len(x) != len(h):
            raise PointOutsideSet(f"{tuple(x)} is not a point of the set")
        return self._at[h] + sum(c * w for c, w in zip(x, self.weights))

    def point(self, n: int) -> tuple:
        t, n = divmod(n, self.field.q ** len(self.coords))
        x = list(self.translates[t])
        for i in reversed(self.coords):
            n, x[i] = divmod(n, self.field.q)
        return tuple(x)


def _image_tables(box: Box, maps):
    """The function h -> [the table of each affine map (LinearMap) on the
    translate h + V of box], V spanned by the e_i, i in coords: entry n of a
    table is the image of the translate's point n, both numbered within the
    translate (Box numbers translate t from t q^len(coords)).  Raises
    PointOutsideSet for a map that does not send h + V onto itself.

    The points of a translate are coded as packed ints (_Lanes) over the
    coords, and one index of q^len(coords) codes numbers them.  By linearity
    x -> M x + shift sends h + sum c_i e_i to (M h + shift) + sum c_i M e_i,
    so M h + shift must agree with h off V and each M e_i lie in V; a map's
    table on h + V then adds the q multiples of each column M e_i, coded once
    per map, to the image of h: about one packed add per point."""
    field, coords = box.field, box.coords
    lanes = _Lanes(field, coords)
    index = lanes.numbers()
    lines = []
    for m in maps:
        for i in coords:
            if any(l not in lanes.shifts for l, _ in m.cols[i]):    # h0 + e_i is weights[i]
                raise PointOutsideSet(f"a map sends {box.point(box.weights[i])} outside its point set")
        lines.append([lanes.span([m.cols[i]]) for i in coords])

    def tables(h) -> list[array]:
        out = []
        for m, columns in zip(maps, lines):
            image = m.apply(h)
            if any(image[i] != c for i, c in enumerate(h) if i not in lanes.shifts):
                raise PointOutsideSet(f"a map sends {h} outside its point set")
            codes = [lanes.pack((i, image[i]) for i in coords)]
            for line in columns:
                codes = lanes.sums(codes, line)
            out.append(array("I", map(index.__getitem__, codes)))
        return out
    return tables


def orbit_partition(box: Box, maps) -> list[array]:
    """The orbits on the points of box of the group the affine maps
    (LinearMap) generate, each an array('I') of point numbers (Box) with its
    least point first, in order of their least point.

    Every map must send each translate h + V (V spanned by the e_i, i in
    coords) onto itself, else PointOutsideSet: the orbits are found one
    translate at a time.  A finite group is generated by any generating set
    as a semigroup, so the closures under the maps, applied without inverses,
    are exactly the orbits.  They are a BFS over the maps' image tables on
    each translate (_image_tables); in a translate, number order is point
    order, so each BFS starts at the least point of its orbit.
    """
    tables_on, width = _image_tables(box, maps), box.field.q ** len(box.coords)
    orbits = []
    for t, h in enumerate(box.translates):
        tables = tables_on(h)
        seen, offset = bytearray(width), t * width
        for start in range(width):
            if not seen[start]:
                seen[start] = 1
                members = array("I", [start])
                for v in members:
                    for table in tables:
                        w = table[v]
                        if not seen[w]:
                            seen[w] = 1
                            members.append(w)
                orbits.append(array("I", map(offset.__add__, members)) if offset else members)
    orbits.sort(key=lambda o: box.point(o[0]))
    return orbits


def orbit_ids(orbits, size: int) -> array:
    """The position in orbits of the orbit of every point number below size,
    -1 for a point in none: the one reverse index of a partition."""
    ids = array("i", [-1]) * size
    for i, o in enumerate(orbits):
        for n in o:
            ids[n] = i
    return ids


def box(spec: AlgebraSpec, tag: str) -> Box:
    """The point set tag of spec, built once: "G" = H + J and "J" as full
    vectors, "J*" in radical coordinates.  N = 1 + J is numbered as J."""
    if tag not in spec._boxes:
        hs, nu = h_elements(spec) if tag == "G" else None, len(spec.radical_basis)
        spec._boxes[tag] = Box(spec.field, *{
            "G": (hs, spec.radical_basis), "J": ([spec.zero()], spec.radical_basis),
            "J*": ([(0,) * nu], range(nu))}[tag])
    return spec._boxes[tag]


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
        if blk.degree != len(sub):
            raise BadIdempotents(f"blocks[{bi}].degree is {blk.degree}, not "
                                 f"len(blocks[{bi}].basis) = {len(sub)}")
        # closure of the block span under multiplication
        for i in sub:
            for j in sub:
                if any(l not in sub for l, _ in sp[i][j]):
                    raise BadIdempotents(f"blocks[{bi}]: span not closed under multiplication")
        for i in sub:
            if times(idems[bi], {i: 1}) != {i: 1} or times({i: 1}, idems[bi]) != {i: 1}:
                raise BadIdempotents(f"blocks[{bi}]: idempotent is not a unit of the block")

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
    return spec


def _build_block_data(spec: AlgebraSpec):
    """Per-block unit sets, multiplicative generators, discrete logs and
    orders |H_i|.  A block's span is a field (else BadIdempotents) exactly when
    the powers of one element pass every nonzero element and return to its
    unit.  A span is listed only within field_make's bound (check_size)."""
    spec.block_units, spec.block_gen, spec.block_dlog = [], [], []
    for bi, blk in enumerate(spec.blocks):
        check_size(spec.field.p, spec.field.k * blk.degree, f"blocks[{bi}].degree")
        points = Box(spec.field, [spec.zero()], blk.basis)
        units = list(map(points.point, range(1, points.size)))     # every point but 0
        for gen in units:
            dlog, cur = {}, blk.idempotent
            while cur not in dlog:
                dlog[cur] = len(dlog)
                cur = spec.mul(cur, gen)
            if cur == blk.idempotent and len(dlog) == len(units):
                break
        else:
            raise BadIdempotents(f"blocks[{bi}]: span is not a field")
        spec.block_units.append(tuple(units))
        spec.block_gen.append(gen)
        spec.block_dlog.append(dlog)
    spec.block_orders = tuple(map(len, spec.block_units))
    spec.cyclo_order = lcm(spec.field.p, *[max(o, 1) for o in spec.block_orders])


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


# ---------------------------------------------------------------------------
# the triple-group actions
# ---------------------------------------------------------------------------

def rho(spec: AlgebraSpec, tau, x):
    """rho(tau)(x) = t a x b^{-1} t^{-1} on the radical, tau = (t, a, b)."""
    if not spec.in_radical(x):
        raise NotInRadical(f"{x} has a nonzero S-component")
    t, a, b = tau
    return spec.mul_many(t, a, x, spec.invert(b), spec.invert(t))


def rho_dual(spec: AlgebraSpec, tau, lam):
    """The dual action: (rho* lam)(x) = lam(a^{-1} t^{-1} x t b), tau = (t, a, b)."""
    t, a, b = tau
    u = spec.mul(spec.invert(a), spec.invert(t))
    v = spec.mul(t, b)
    out = []
    for i in spec.radical_basis:
        w = spec.mul_many(u, spec.basis_vec(i), v)
        out.append(spec.form_eval(lam, w))
    return tuple(out)


def rho_dual_map(spec: AlgebraSpec, u, w) -> LinearMap:
    """lam -> (x -> lam(u x w)) compiled, on radical coordinates: the
    transpose of the sandwich x -> u x w restricted to J.  For the pair
    (t a, b^-1 t^-1) of a triple tau = (t, a, b) this is rho*(tau)^-1, not
    rho*(tau); a set of maps and their inverses generate the same group, so
    the maps of sandwich_pairs have the orbits of rho* with no part inverted."""
    rad = spec.radical_basis
    pos = {i: s for s, i in enumerate(rad)}
    m = sandwich_map(spec, u, w, rad)
    cols = [[] for _ in rad]
    for r, i in enumerate(rad):
        for l, c in m.cols[i]:
            cols[pos[l]].append((r, c))
    return LinearMap(spec.field, cols, [0] * len(rad))


def torus_pairs(spec: AlgebraSpec) -> list:
    """(t, t^-1) for one torus generator t per block of order > 1: the block's
    multiplicative generator, and 1 on every other block; inverted once per spec."""
    if spec._torus_pairs is None:
        spec._torus_pairs = [(t, spec.invert(t)) for t in (
            spec.add(spec.block_gen[i], spec.sub(spec.unit, blk.idempotent))
            for i, blk in enumerate(spec.blocks) if spec.block_orders[i] > 1)]
    return spec._torus_pairs


def _h_order(spec: AlgebraSpec, xs) -> int:
    """The order of the subgroup of H that the xs generate.  H is the
    product of the cyclic H_i, and each block's discrete log is a bijection
    onto Z/|H_i| (_build_block_data), so it is the closure of the zero vector
    under adding each x's vector of block logs mod |H_i|."""
    orders = spec.block_orders
    steps = [[spec.block_dlog[i][block_component(spec, x, i)] for i in range(len(orders))]
             for x in xs]
    return len(closure((0,) * len(orders), [
        lambda v, s=s: tuple((a + b) % n for a, b, n in zip(v, s, orders)) for s in steps]))


def _unit_closure(spec: AlgebraSpec, xs) -> tuple[array, bytearray]:
    """The subgroup of N that xs generate, 1 + y numbered as y in box J: its
    point numbers in BFS order, the unit (0) first, and a flag per point set
    on exactly those.  It is the orbit of the unit under right
    multiplication by the xs, 1 + y -> (1 + y) x, the affine map
    y -> y x + (x - 1) of J: one BFS from 0 over the maps' image tables.  The
    last closure is kept with its tables; when xs extends the xs it was
    built for, only the new maps are compiled, applied to the old members,
    and the BFS goes on from the members they add.  So the top-ups of
    tilde_generators compile each part once, and the certificate reads the
    closure they ended on."""
    points, xs, rad = box(spec, "J"), tuple(xs), spec.radical_basis
    if spec._n_closure is None or xs[:len(spec._n_closure[0])] != spec._n_closure[0]:
        seen = bytearray(points.size)
        seen[0] = 1
        spec._n_closure = (), array("I", [0]), seen, []
    done, members, seen, tables = spec._n_closure
    new = _image_tables(points, [
        LinearMap(spec.field, sandwich_map(spec, spec.unit, x, rad).cols, spec.sub(x, spec.unit))
        for x in xs[len(done):]])(spec.zero())
    old = len(members)
    tables += new
    for n, v in enumerate(members):     # the old members under the new maps only
        for table in new if n < old else tables:
            if not seen[w := table[v]]:
                seen[w] = 1
                members.append(w)
    spec._n_closure = xs, members, seen, tables
    return members, seen


def torus_conjugations(spec: AlgebraSpec) -> list[LinearMap]:
    """The compiled maps y -> t^-1 y t for the torus generators
    t (torus_pairs), once the closure of the generators is proved to
    have |H| elements; raises NotGenerating otherwise.  The closure of y
    under these maps is then its orbit under conjugation by H.  Built and
    proved once per spec."""
    if spec._torus_conj is None:
        pairs = torus_pairs(spec)
        size, order = _h_order(spec, [t for t, _ in pairs]), prod(spec.block_orders)
        if size != order:
            raise NotGenerating(f"the torus generators generate a subgroup of order "
                                f"{size} of H, which has order {order}")
        spec._torus_conj = [sandwich_map(spec, t_inv, t) for t, t_inv in pairs]
    return spec._torus_conj


# ---------------------------------------------------------------------------
# generators of the triple group G~, and its orbits
# ---------------------------------------------------------------------------

def tilde_generators(spec: AlgebraSpec) -> tuple[list, list]:
    """(torus, parts): generators of G~, few of them, as their parts: one
    torus generator per block of order > 1, and parts that generate N
    (sandwich_pairs makes the triples (t, 1, 1), (1, a, 1), (1, 1, a^-1)).

    The parts start as 1 + c b_r for the radical basis vectors b_r outside
    J^2 plus the span of those kept before them (a basis of J/J^2: the simple
    roots of T(n, q), the cover relations of an incidence algebra) and c in
    the F_p-basis 1, x, ..., x^(k-1) of F_q (codes p^j).  As
    (1 + x)(1 + y) = 1 + x + y mod J^2, these generate N modulo 1 + J^2, so
    they generate N when 1 + J^2 lies in N's Frattini subgroup, as for T(n, q).
    Otherwise (for a group algebra F_p[P] the lifts 1 + (g - 1) generate only
    P) they are topped up by 1 + c m for the monomials m = b_r1 ... b_rl of
    the radical basis, by length l and in index order within a length, and
    c != 0: each one outside the group generated so far (_unit_closure) is
    added, until that group is N.  This ends at N, as the monomials of length
    i span J^i modulo J^(i+1); the candidates of length 1 are every 1 + c b_r,
    so the top-up stops within them whenever those generate N.
    certified_generators proves them."""
    F, rad, unit = spec.field, spec.radical_basis, spec.unit
    # b_r raises the rank of J^2 + <kept b_s, s < r> exactly when no vector
    # of J^2 has its last nonzero J coordinate at r: the non-pivot columns
    # of the rref of J^2 with its J coordinates in reverse order
    at = {i: len(rad) - 1 - s for s, i in enumerate(rad)}
    rows = []
    for i in rad:
        for j in rad:
            if cell := spec._sparse[i][j]:
                rows.append([0] * len(rad))
                for l, c in cell:
                    rows[-1][at[l]] = c
    pivots = set(linalg.rref(F, rows)[1])
    parts = [spec.add(unit, spec.smul(F.p ** j, spec.basis_vec(r)))
             for r in rad if at[r] not in pivots for j in range(F.k)]

    def monomials():    # by length, in index order within a length; zero ones dropped
        level = [spec.basis_vec(r) for r in rad]
        while level:
            yield from level
            level = [y for m in level for r in rad if any(y := spec.mul(m, spec.basis_vec(r)))]

    points, (members, inside) = box(spec, "J"), _unit_closure(spec, parts)
    for m in monomials() if len(members) < points.size else ():
        for c in range(1, F.q):
            if not inside[points.number(y := spec.smul(c, m))]:     # 1 + y is point y
                parts.append(spec.add(unit, y))
                members, inside = _unit_closure(spec, parts)
        if len(members) == points.size:
            break
    return [t for t, _ in torus_pairs(spec)], parts


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


def certify_generators(spec: AlgebraSpec, torus, parts) -> None:
    """Prove that the torus generators and the parts generate
    G~ = H x| (N x N) as the triples (t, 1, 1), (1, a, 1) and (1, 1, a);
    raise NotGenerating otherwise.

    Each t must lie in H and each a in N = 1 + J.  As
    (t, a, b) = (t, 1, 1)(1, a, 1)(1, 1, b), the triples then generate G~
    exactly when the torus generates H and the parts generate N.  Each is
    the closure of the unit under right multiplication, which lies in H (or
    N) and so equals it exactly when it has |H| (or |N| = q^{dim J})
    elements: on H a closure of block discrete logs (_h_order), on N a BFS
    from the unit over the box 1 + J, numbered as J (_unit_closure, which
    reads the closure tilde_generators ended on).
    """
    h_set = set(box(spec, "G").translates)
    for t in torus:
        if t not in h_set:
            raise NotGenerating(f"t-part {t} lies outside H")
    for a in parts:
        if not spec.in_radical(spec.sub(a, spec.unit)):
            raise NotGenerating(f"a-part {a} lies outside N")
    for k, name, size, order in (
            ("t", "H", _h_order(spec, torus), prod(spec.block_orders)),
            ("a", "N", len(_unit_closure(spec, parts)[0]), box(spec, "J").size)):
        if size != order:
            raise NotGenerating(f"the {k}-parts generate a subgroup of order {size} "
                                f"of {name}, which has order {order}")


def certified_generators(spec: AlgebraSpec) -> tuple[list, list]:
    """tilde_generators(spec), (torus, parts), once certify_generators has
    proved that they generate G~.  The proof runs once per spec."""
    if spec._tilde_gens is None:
        torus, parts = tilde_generators(spec)
        certify_generators(spec, torus, parts)
        spec._tilde_gens, spec._n_closure = (torus, parts), None    # no closure is needed again
    return spec._tilde_gens


def sandwich_pairs(spec: AlgebraSpec, torus: bool = True) -> list:
    """The pairs (u, w) whose sandwiches x -> u x w compile every action of
    G~ (on J, J* and G): torus_pairs' (t, t^-1) for each certified torus
    generator t, then (a, 1) and (1, a) for each part a.  The pair of a
    triple (t, a, b) is (t a, b^-1 t^-1), so these are the triples (t, 1, 1),
    (1, a, 1) and (1, 1, a^-1), which generate G~ exactly as the parts
    generate N.  With torus False, (a, 1) and (1, a) generate 1 x (N x N)."""
    _, parts = certified_generators(spec)
    unit = spec.unit
    pairs = torus_pairs(spec) if torus else []
    return pairs + [pair for a in parts for pair in ((a, unit), (unit, a))]


def space_orbits(spec: AlgebraSpec, space: str, torus: bool = True) -> list[OrbitRecord]:
    """The G~-orbits on all of J (space "J", full vectors) or of J* ("J*",
    radical coordinates), in order of their least member: the kernel's
    closures (orbit_partition) under the maps of sandwich_pairs, x -> u x w
    on J and lam -> lam(u x w) on J* (rho_dual_map); with torus False those
    of 1 x (N x N): the N mu N on J*, and on J the O with 1 + O an
    N-superclass.  Built once per (space, torus) and spec, with orbit_ids."""
    if (key := (space, torus)) not in spec._orbits:
        pairs, rad = sandwich_pairs(spec, torus), spec.radical_basis
        maps = [sandwich_map(spec, u, w, rad) for u, w in pairs] if space == "J" \
            else [rho_dual_map(spec, u, w) for u, w in pairs]
        points = box(spec, space)
        parts = orbit_partition(points, maps)
        spec._orbits[key] = [OrbitRecord(m, points.point(m[0]), space) for m in parts]
        spec._orbit_of[key] = orbit_ids(parts, points.size)
    return spec._orbits[key]


def orbit(spec: AlgebraSpec, start, space: str) -> OrbitRecord:
    """The G~-orbit of `start` in J (space "J") or J* (space "J*"), read off
    the partition of the whole space (space_orbits).

    The orbit of y in a corner J_e = e J e under the corner group
    G~_e = H_e x| (N_e x N_e) is G~ y /\\ J_e: if t a y b^-1 t^-1 lies in J_e,
    multiplying by e on both sides gives t_e a_e y b_e^-1 t_e^-1 with
    t_e = t e + (1 - e), a_e = 1 + e (a - 1) e, b_e^-1 = 1 + e (b^-1 - 1) e, and
    likewise on J*.  The members of G~ y of least support T lie in J_T, inside
    J_e, so the corner orbit and the G~-orbit share their support and
    canonical representative (orbit_support).
    """
    return space_orbits(spec, space)[spec._orbit_of[space, True][box(spec, space).number(start)]]


# ---------------------------------------------------------------------------
# supports and regularity
# ---------------------------------------------------------------------------

def support_table(spec: AlgebraSpec, space: str) -> list[frozenset]:
    """The minimal block set T with x in J_{e_T} (space "J") or x in J_{e_T}*
    ("J*", vanishing off e_T J e_T), for every point x of box(spec, space) by
    number: the blocks i with e_i x != 0 or x e_i != 0 on J, and with
    x(e_i b_r) != 0 or x(b_r e_i) != 0 for some radical b_r on J*.

    Block i's maps x -> e_i x and x -> x e_i (full vectors), or
    lam -> lam(e_i b_r) and lam(b_r e_i) (radical coordinates), give its
    rref'd rows; the rows of every block are the lanes of one _Lanes, and one
    span of their columns, in box order, codes every point's images.  Equal
    supports are one frozenset.  Built once per spec and space."""
    if space not in spec._supports:
        F, rad = spec.field, spec.radical_basis
        rows, lane_sets = [], []
        for blk in spec.blocks:
            left = [spec.j_coords(spec.mul(blk.idempotent, spec.basis_vec(r))) for r in rad]
            right = [spec.j_coords(spec.mul(spec.basis_vec(r), blk.idempotent)) for r in rad]
            # lam -> lam(e_i b_r) is the row j_coords(e_i b_r); x -> e_i x has
            # those vectors as its columns
            mat, pivots = linalg.rref(F, left + right if space == "J*" else
                                      [*zip(*left), *zip(*right)])
            lane_sets.append(range(len(rows), len(rows) + len(pivots)))
            rows += mat[:len(pivots)]
        lanes = _Lanes(F, range(len(rows)))
        masks = [sum(lanes.mask << lanes.shifts[r] for r in rs) for rs in lane_sets]
        # a row's entry s is at radical coordinate s; box J lists J's
        # coordinates by basis index, box J* in radical order
        order = sorted(range(len(rad)), key=rad.__getitem__) if space == "J" else range(len(rad))
        codes = lanes.span([[(r, row[s]) for r, row in enumerate(rows) if row[s]]
                            for s in order])
        keys = [sum(1 << i for i, m in enumerate(masks) if c & m) for c in codes]
        shared = {key: frozenset(i for i in range(len(masks)) if key >> i & 1)
                  for key in set(keys)}
        spec._supports[space] = list(map(shared.__getitem__, keys))
    return spec._supports[space]


def form_support(spec: AlgebraSpec, lam) -> frozenset:
    """Minimal block set T with lam in J_{e_T}* (support_table)."""
    return support_table(spec, "J*")[box(spec, "J*").number(lam)]


def orbit_support(spec: AlgebraSpec, orb: OrbitRecord) -> tuple[frozenset, tuple]:
    """(T, w): the unique minimal support T over the orbit (the Peirce corner
    the orbit meets) and the least member w with support T, the canonical
    representative of the orbit's corner part.  Proved once per orbit and
    spec, from support_table: the census, classify and stabilizer_data share
    the result, and only w is decoded."""
    if (key := (orb.space_tag, orb.members[0])) not in spec._orbit_supports:
        table, least = support_table(spec, orb.space_tag), {}
        for n in sorted(orb.members):   # on J and J*, number order is point order
            least.setdefault(table[n], n)
        minimal = [t for t in least if not any(u < t for u in least)]
        if len(minimal) != 1:
            raise NotRegular(f"orbit support is not unique: {sorted(map(sorted, minimal))}")
        spec._orbit_supports[key] = minimal[0], box(spec, orb.space_tag).point(least[minimal[0]])
    return spec._orbit_supports[key]


def is_singular(spec: AlgebraSpec, v, is_form: bool = False) -> bool:
    """Annihilator criterion: singular iff some c in A \\ J kills v on both sides."""
    F = spec.field
    d = spec.dim
    if not is_form:
        # column j holds b_j v, then v b_j, read off the structure constants:
        # the sum of v_i times the cells b_j b_i (row j), or b_i b_j (column j)
        def image(cells):
            return LinearMap(F, cells, spec.zero()).apply(v)
        rows = [*zip(*map(image, spec._sparse)), *zip(*map(image, zip(*spec._sparse)))]
    else:
        # v(b_r c_j) and v(c_j b_r), read off the table of v's products
        products = spec.form_products(v)
        rows = [row for r in spec.radical_basis
                for row in (products[r], [products[j][r] for j in range(d)])]
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
    orbits = space_orbits(spec, space)
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
    if isinstance(raw, int) and not isinstance(raw, bool):
        if field.k == 1:
            return raw % field.p
        # for k > 1 an integer is an element code: its base-p digits as a number
        if not 0 <= raw < field.q:
            _fail(path, f"integer coefficient {raw} is not an element code "
                        f"0..{field.q - 1} of GF({field.p}^{field.k})")
        return raw
    if isinstance(raw, list) and len(raw) <= field.k and all(
            isinstance(d, int) and not isinstance(d, bool) for d in raw):
        return field.encode(raw)
    _fail(path, f"bad coefficient {raw!r}: expected an integer or at most "
                f"{field.k} base-{field.p} digits")


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
    seen: dict = {}     # (i, j) -> the mul entry that gives b_i b_j
    for idx, ent in enumerate(_list(data["mul"], "mul")):
        i, j, terms = _list(ent, f"mul[{idx}]", 3)
        ij = _int(i, f"mul[{idx}][0]", 0, dim), _int(j, f"mul[{idx}][1]", 0, dim)
        if ij in seen:
            _fail(f"mul[{idx}]", f"repeats b{i}*b{j}, given by mul[{seen[ij]}]: "
                                  "each (i, j) at most once")
        seen[ij], ls = idx, {}
        for t, term in enumerate(_list(terms, f"mul[{idx}][2]")):
            l = _int(_list(term, f"mul[{idx}][2][{t}]", 2)[0], f"mul[{idx}][2][{t}][0]", 0, dim)
            if l in ls:
                _fail(f"mul[{idx}][2][{t}]", f"repeats the b{l} term of mul[{idx}][2][{ls[l]}]: "
                                              "each l at most once per entry")
            ls[l] = t
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
        entries.append((i, j, [(l, _coeff(field, c, f"mul[{idx}][2][{t}][1]"))
                               for t, (l, c) in enumerate(terms)]))
    blocks = []
    for bi, blk in enumerate(data["blocks"]):
        idem = tuple(_coeff(field, c, f"blocks[{bi}].idempotent[{i}]")
                     for i, c in enumerate(blk["idempotent"]))
        blocks.append(Block(idem, blk["degree"], tuple(blk["basis"])))
    spec = AlgebraSpec(field, dim, entries, unit, blocks, data["radical_basis"])
    return validate_algebra(spec)


def load_algebra_file(path: str) -> AlgebraSpec:
    """Build and validate an AlgebraSpec from a UTF-8 JSON spec file.  A file
    that cannot be read as UTF-8 raises AlgebraValidationError naming --spec
    and the path, and one that is not JSON raises it with json's text; a
    missing file raises FileNotFoundError."""
    import json
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise AlgebraValidationError(f"--spec {path!r}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise AlgebraValidationError(f"--spec {path!r}: not UTF-8 text "
                                     f"(byte {exc.start}: {exc.reason})") from None
    except json.JSONDecodeError as exc:
        raise AlgebraValidationError(str(exc)) from None
    return load_algebra(data)

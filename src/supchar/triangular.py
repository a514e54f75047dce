"""The triangular group T(n, F_q): closed-form supercharacter table and the
brute-force construction it is checked against."""
from __future__ import annotations

from collections import namedtuple
from math import lcm
from operator import mul

from . import linalg
from .algebra import AlgebraSpec, Block, group_order, orbit_census, validate_algebra
from .cyclo import CycloNumber
from .errors import BadSize, PartitionMismatch
from .fields import FieldSpec
from .superclasses import (
    DEFAULT_GROUP_BOUND,
    superclass_index,
    superclass_partition,
    transporter_count,
)
from .supercharacters import (
    CharacterTable,
    SupercharLabel,
    build_table,
    enumerate_labels,
)


class Root(namedtuple("Root", "row col")):    # 1-based
    __slots__ = ()

    def __new__(cls, row, col):
        if not 1 <= row < col:
            raise BadSize(f"root ({row},{col}) needs 1 <= row < col")
        return super().__new__(cls, row, col)

    def render(self):
        return f"({self.row},{self.col})"


class BasicSubset(namedtuple("BasicSubset", "roots")):
    __slots__ = ()

    def __new__(cls, roots):
        rows = [r.row for r in roots]
        cols = [r.col for r in roots]
        if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
            raise BadSize("basic subset has two roots in one row or column")
        return super().__new__(cls, tuple(sorted(roots)))

    def rowcol(self) -> frozenset:
        return frozenset(r.row for r in self.roots) | frozenset(r.col for r in self.roots)

    def sort_key(self):
        return (len(self.roots), tuple((r.row, r.col) for r in self.roots))

    def render(self):
        return "{" + ",".join(r.render() for r in self.roots) + "}"


class TriSuperclassLabel(namedtuple("TriSuperclassLabel", "h dprime")):
    __slots__ = ()  # h: diagonal entries, field encodings

    def sort_key(self):
        return (self.dprime.sort_key(), self.h)

    def render(self):
        return f"h={list(self.h)};D'={self.dprime.render()}"


class TriSupercharLabel(namedtuple("TriSupercharLabel", "c d")):
    __slots__ = ()  # c: torus character exponents mod q-1

    def sort_key(self):
        return (self.d.sort_key(), self.c)

    def render(self):
        return f"c={list(self.c)};D={self.d.render()}"


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def positive_roots(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def make_triangular(n: int, field: FieldSpec) -> AlgebraSpec:
    """The algebra of upper triangular n x n matrices over GF(q), validated."""
    if n < 2:
        raise BadSize(f"triangular algebra needs n >= 2, got {n}")
    roots = positive_roots(n)
    # basis: E_11..E_nn then E_ij by lex root order
    pairs = [(i, i) for i in range(1, n + 1)] + roots
    index = {p: i for i, p in enumerate(pairs)}
    dim = len(pairs)
    entries = []
    for (a, b), i in index.items():
        for (c, d), j in index.items():
            if b == c:
                entries.append((i, j, [(index[(a, d)], 1)]))
    unit = [1 if i < n else 0 for i in range(dim)]
    blocks = [
        Block(tuple(1 if t == i else 0 for t in range(dim)), 1, (i,))
        for i in range(n)
    ]
    radical = tuple(range(n, dim))
    return validate_algebra(AlgebraSpec(field, dim, entries, unit, blocks, radical))


def basic_subsets(n: int) -> list[BasicSubset]:
    """All non-attacking root placements, ordered by size then root list."""
    roots = [Root(i, j) for i, j in positive_roots(n)]
    out = []

    def extend(combo, rows, cols, start):
        """Record combo, then extend it by each later root off its rows and
        columns."""
        out.append(BasicSubset(combo))
        for k in range(start, len(roots)):
            r = roots[k]
            if r.row not in rows and r.col not in cols:
                extend(combo + (r,), rows | {r.row}, cols | {r.col}, k + 1)

    extend((), frozenset(), frozenset(), 0)
    out.sort(key=lambda d: d.sort_key())
    return out


def is_regular_D(d: BasicSubset, n: int) -> bool:
    return d.rowcol() == frozenset(range(1, n + 1))


def x_D(spec: AlgebraSpec, n: int, d: BasicSubset):
    """x_D in make_triangular's basis: zero on E_11..E_nn, lambda_D's
    coordinates on the roots."""
    return (0,) * n + lambda_D(n, d)


def lambda_D(n: int, d: BasicSubset) -> tuple:
    roots = {(r.row, r.col) for r in d.roots}
    return tuple(int(g in roots) for g in positive_roots(n))


def labels(n: int, field: FieldSpec):
    """All (h, D') superclass labels and (c, D) supercharacter labels."""
    q = field.q
    units = sorted(field.units())
    subsets = basic_subsets(n)
    class_labels = []
    char_labels = []
    for d in subsets:
        rc = d.rowcol()
        free = [i for i in range(1, n + 1) if i not in rc]
        hs = [()]
        cs = [()]
        for i in range(1, n + 1):
            if i in rc:
                hs = [h + (1,) for h in hs]
                cs = [c + (0,) for c in cs]
            else:
                hs = [h + (u,) for h in hs for u in units]
                cs = [c + (e,) for c in cs for e in range(max(q - 1, 1))]
        class_labels.extend(TriSuperclassLabel(h, d) for h in sorted(hs))
        char_labels.extend(TriSupercharLabel(c, d) for c in sorted(cs))
    return class_labels, char_labels


# ---------------------------------------------------------------------------
# the closed-form value
# ---------------------------------------------------------------------------

def delta_factors(d: BasicSubset, h: tuple, dprime: BasicSubset):
    """(delta', delta'', delta_0) of the value formula."""
    d1 = 1
    d2 = 1
    dp = {(r.row, r.col) for r in dprime.roots}
    for g in d.roots:
        for k in range(g.row + 1, g.col):
            if (g.row, k) in dp:
                d1 = 0
            if (k, g.col) in dp:
                d2 = 0
    d0 = 1 if all(h[i - 1] == 1 for i in d.rowcol()) else 0
    return d1, d2, d0


def _window_matrix(field: FieldSpec, g: Root, h: tuple, dprime: BasicSubset):
    """Submatrix of g_{h,D'} - 1 with rows and columns in (row(g), col(g))."""
    lo, hi = g.row + 1, g.col - 1
    idx = list(range(lo, hi + 1))
    dp = {(r.row, r.col) for r in dprime.roots}
    mat = []
    for r in idx:
        row = []
        for c in idx:
            if r == c:
                row.append(field.sub(h[r - 1], 1))
            elif (r, c) in dp:
                row.append(1)
            else:
                row.append(0)
        mat.append(row)
    return mat


def m_and_s(d: BasicSubset, h: tuple, dprime: BasicSubset, field: FieldSpec):
    """(m, s): total window corank and the (q-1)-exponent of the value."""
    m = 0
    for g in d.roots:
        mat = _window_matrix(field, g, h, dprime)
        zero_rows = sum(1 for row in mat if all(v == 0 for v in row))
        corank = len(mat) - linalg.rank(field, mat) if mat else 0
        # the window has at most one nonzero entry per row/column for valid
        # labels, so corank must agree with the zero-row count
        assert corank == zero_rows, f"window of {g.render()} is not a partial permutation"
        m += corank
    # s counts the free torus coordinates of the coset space: one per index
    # touched by D, minus one per root shared with D'.  When no two roots of D
    # chain (share an index) this equals |D| + |D \ D'|, but chained roots
    # share a torus coordinate, and the value at the identity must stay equal
    # to the index |G|/|G_lambda| of the stabilizer.
    s = len(d.rowcol()) - len(set(d.roots) & set(dprime.roots))
    return m, s


def cyclo_order_for(field: FieldSpec) -> int:
    return lcm(field.p, max(field.q - 1, 1))


def value_terms(char: TriSupercharLabel, cls: TriSuperclassLabel, field: FieldSpec,
                order: int) -> tuple[int, int]:
    """(exp, scalar) with closed-form value scalar * zeta_order^exp; scalar is 0
    when the value is 0."""
    d1, d2, d0 = delta_factors(char.d, cls.h, cls.dprime)
    if d1 * d2 * d0 == 0:
        return 0, 0
    m, s = m_and_s(char.d, cls.h, cls.dprime, field)
    inter = len(set(char.d.roots) & set(cls.dprime.roots))
    scalar = (-1) ** inter * field.q ** m * (field.q - 1) ** s
    exp = 0
    if field.q > 2:
        step = order // (field.q - 1)
        for ci, hi in zip(char.c, cls.h):
            exp = (exp + ci * field.dlog(hi) * step) % order
    return exp, scalar


def _from_terms(order: int, exp: int, scalar: int) -> CycloNumber:
    if scalar == 0:
        return CycloNumber.zero(order)
    return CycloNumber.root(order, exp) * scalar


def value(char: TriSupercharLabel, cls: TriSuperclassLabel, field: FieldSpec,
          order: int | None = None) -> CycloNumber:
    """Closed-form supercharacter value on a superclass: the reference that
    closed_table's per-label counting is tested against."""
    if order is None:
        order = cyclo_order_for(field)
    return _from_terms(order, *value_terms(char, cls, field, order))


# ---------------------------------------------------------------------------
# per-label shapes: the closed form by counting
# ---------------------------------------------------------------------------

def class_shape(lbl: TriSuperclassLabel) -> tuple:
    """The nonzero positions (i, j), 1-based, of g_{h,D'} - 1: (i, i) for each
    h_i != 1 and (i, j) for each root of D'.  Raises BadSize unless they form
    a partial permutation, at most one per row and one per column: the shape
    the window coranks and the rank profile are counted from."""
    cells = [(i, i) for i, hi in enumerate(lbl.h, 1) if hi != 1]
    cells += [(r.row, r.col) for r in lbl.dprime.roots]
    if len({i for i, _ in cells}) < len(cells) or len({j for _, j in cells}) < len(cells):
        raise BadSize(f"g - 1 of {lbl.render()} has two nonzero entries in one row "
                      "or column")
    return tuple(cells)


def root_factors(n: int, q: int, cells) -> list[int]:
    """Per positive root g = (r, c), in positive_roots order, the factor of g
    in value_terms' scalar on a class of shape `cells` (class_shape).

    The factor is 0 when delta' or delta'' fails at g, or h_r or h_c differs
    from 1: delta_0 is the product of that test over the roots of D.  Else it
    is -q^m_g if g lies in D' and (q - 1) q^m_g if not, with m_g the corank
    of the window rows and columns r+1..c-1.  A submatrix of a partial
    permutation is one, so its rank is its count of nonzero entries: m_g is
    the window size minus the cells inside the window.  For a basic subset D
    with s = |rowcol(D)| - |D /\\ D'| as in m_and_s, the scalar is then
    (q - 1)^(|rowcol(D)| - |D|) times the product of the factors of D's roots.
    """
    diag = {i for i, j in cells if i == j}
    dprime = {(i, j) for i, j in cells if i != j}
    out = []
    for r, c in positive_roots(n):
        if r in diag or c in diag or any(i == r and j < c or j == c and i > r
                                         for i, j in dprime):
            out.append(0)
            continue
        corank = c - r - 1 - sum(1 for i, j in cells if r < i and j < c)
        out.append(-q ** corank if (r, c) in dprime else (q - 1) * q ** corank)
    return out


def rank_profile(n: int, cells) -> tuple:
    """(r_ij for 1 <= i <= j <= n): the rank of rows i..n x columns 1..j of a
    partial permutation with nonzero `cells`, which is the count of its cells
    in that block.  The blocks with i > j lie below the diagonal, and an
    upper triangular matrix is zero there."""
    return tuple(sum(1 for a, b in cells if a >= i and b <= j)
                 for i in range(1, n + 1) for j in range(i, n + 1))


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def diag_embed(spec: AlgebraSpec, n: int, h: tuple):
    vec = [0] * spec.dim
    for i in range(n):
        vec[i] = h[i]
    return tuple(vec)


def class_rep(spec: AlgebraSpec, n: int, lbl: TriSuperclassLabel):
    """The representative g_{h,D'} = diag(h) + x_{D'} of a superclass label."""
    return spec.add(diag_embed(spec, n, lbl.h), x_D(spec, n, lbl.dprime))


def class_record_map(spec: AlgebraSpec, n: int, class_labels, partition):
    """Bijection from (h, D') labels to superclass records via g_{h,D'};
    PartitionMismatch unless each g_{h,D'} lies in a superclass (-1 marks one
    that does not) and they meet every superclass once."""
    member_to_idx = superclass_index(partition)
    mapping = [member_to_idx.get(class_rep(spec, n, lbl), -1) for lbl in class_labels]
    if sorted(mapping) != list(range(len(partition))):
        raise PartitionMismatch("triangular labels do not biject onto the superclass partition")
    return mapping


def superclass_sizes(spec: AlgebraSpec, n: int, class_labels, shapes) -> list[int]:
    """|superclass of g_{h,D'}| = |G~| / |Stab(g_{h,D'})| per label, by
    orbit-stabilizer (transporter_count), with no enumeration of G.

    Also proves that the labels biject onto the superclasses, and raises
    PartitionMismatch otherwise: every stabilizer order divides |G~|, the
    sizes sum to |G|, and no two labels with equal S-part, equal size and
    equal rank profile share a superclass (transporter_count on every such
    pair).  These three are superclass invariants, so the labels lie in
    distinct superclasses, and distinct superclasses whose sizes sum to |G|
    are all of them.  R_tau fixes the S-part, as S is commutative.  The rank
    profile (rank_profile) of x = g - 1 holds the ranks r_ij of its blocks
    x[I, K] with rows I = i..n and columns K = 1..j.  R_tau sends x to U x V
    with U = t a and V = b^-1 t^-1 upper triangular and invertible.  Rows I
    of U vanish off the columns I, and columns K of V vanish off the rows K,
    so (U x V)[I, K] = U[I, I] x[I, K] V[K, K], with both outer factors
    triangular with a nonzero diagonal, so invertible: r_ij is unchanged
    (Andre, J. Algebra 175 (1995); Yan, thesis, 2001).  The profile is
    counted on each label's proved partial-permutation shape (`shapes`).
    """
    order = group_order(spec)
    tilde = order * spec.field.q ** len(spec.radical_basis)
    xs = [spec.sub(class_rep(spec, n, lbl), spec.unit) for lbl in class_labels]
    sizes = []
    for lbl, x in zip(class_labels, xs):
        stab = transporter_count(spec, x, x)
        if not stab or tilde % stab:
            raise PartitionMismatch(f"|Stab| = {stab} of {lbl.render()} does not divide "
                                    f"|G~| = {tilde}")
        sizes.append(tilde // stab)
    if sum(sizes) != order:
        raise PartitionMismatch(f"superclass sizes sum to {sum(sizes)}, not |G| = {order}")
    groups: dict = {}
    for i, (x, size, shape) in enumerate(zip(xs, sizes, shapes)):
        groups.setdefault((spec.s_part(x), size, rank_profile(n, shape)), []).append(i)
    for idx in groups.values():
        for a, i in enumerate(idx):
            for j in idx[a + 1:]:
                if transporter_count(spec, xs[i], xs[j]):
                    raise PartitionMismatch(f"{class_labels[i].render()} and "
                                            f"{class_labels[j].render()} label one superclass")
    return sizes


def to_general_label(spec: AlgebraSpec, n: int, lbl: TriSupercharLabel) -> SupercharLabel:
    e = frozenset(i - 1 for i in lbl.d.rowcol())
    f = frozenset(i for i, c in enumerate(lbl.c) if c % max(spec.field.q - 1, 1) != 0)
    return SupercharLabel(e, f, lbl.c, lambda_D(n, lbl.d))


def closed_table(n: int, field: FieldSpec, class_labels, char_labels, shapes,
                 sizes) -> CharacterTable:
    """The closed-form table on labels(n, field), with the class labels'
    class_shape in `shapes` and the size row `sizes` (None: empty), value_terms
    by counting.  The scalars of each D are (q - 1)^(|rowcol(D)| - |D|) times
    the product of the root_factors of D's roots, over the classes; the
    exponent of zeta is step times sum c_i dlog(h_i) mod q - 1, once per h."""
    order = cyclo_order_for(field)
    q = field.q
    step = order // (q - 1)
    index = {root: k for k, root in enumerate(positive_roots(n))}
    # per positive root, its factor on every class
    factors = list(zip(*(root_factors(n, q, shape) for shape in shapes)))
    h_index: dict = {}
    hid = [h_index.setdefault(cl.h, len(h_index)) for cl in class_labels]
    dlogs = [[field.dlog(hi) for hi in h] for h in h_index]
    # few distinct (exp, scalar) pairs recur across the table: build each once
    zero = _from_terms(order, 0, 0)
    built = {(t * step, 0): zero for t in range(q - 1)}
    scalars: dict = {}
    values = []
    for ch in char_labels:
        if ch.d not in scalars:
            row = [(q - 1) ** (len(ch.d.rowcol()) - len(ch.d.roots))] * len(class_labels)
            for r in ch.d.roots:
                row = list(map(mul, row, factors[index[r.row, r.col]]))
            scalars[ch.d] = row
            for s in set(row):
                if (0, s) not in built:
                    for t in range(q - 1):
                        built[t * step, s] = _from_terms(order, t * step, s)
        exps = [sum(map(mul, ch.c, dl)) % (q - 1) * step for dl in dlogs]
        values.append([built[exps[k], s] for k, s in zip(hid, scalars[ch.d])])
    return CharacterTable(char_labels, class_labels, sizes or [None] * len(class_labels),
                          values, group_order_tri(n, field), order)


def brute_table(spec: AlgebraSpec, n: int, partition, base: CharacterTable) -> CharacterTable:
    """Re-index `base`, the table build_table induced on `partition` from the
    census labels, into the closed form's (c, D) x (h, D') order.

    Columns go through class_record_map.  Rows go through to_general_label,
    which must send the (c, D) labels one-to-one onto base's census labels:
    this proves that each lambda_D is its orbit's canonical representative,
    and PartitionMismatch names the first (c, D) label without a match."""
    class_labels, char_labels = labels(n, spec.field)
    cols = class_record_map(spec, n, class_labels, partition)
    row_of = {lbl: r for r, lbl in enumerate(base.row_labels)}
    rows = []
    for ch in char_labels:
        r = row_of.pop(to_general_label(spec, n, ch), None)
        if r is None:
            raise PartitionMismatch(f"closed-form label {ch.render()} matches no census label")
        rows.append(r)
    if row_of:
        raise PartitionMismatch(f"{len(row_of)} census labels match no closed-form label")
    values = [[base.values[r][c] for c in cols] for r in rows]
    return CharacterTable(char_labels, class_labels, [base.sizes[c] for c in cols], values,
                          base.group_order, base.cyclo_order)


def table(n: int, field: FieldSpec, mode: str = "closed",
          bound: int = DEFAULT_GROUP_BOUND, spec: AlgebraSpec | None = None) -> CharacterTable:
    """The closed-form (mode "closed") or brute-force (mode "brute") table; a
    given spec of T(n, field) is used instead of being built again.  The
    closed form's size row is left empty when |G| exceeds bound.  The
    brute-force table is the one build_table induces from the census labels,
    re-indexed by brute_table; |J*| <= |G|, so bound also bounds the census."""
    if mode == "closed":
        class_labels, char_labels = labels(n, field)
        shapes = [class_shape(lbl) for lbl in class_labels]
        sizes = None
        if group_order_tri(n, field) <= bound:
            if spec is None:
                spec = make_triangular(n, field)
            sizes = superclass_sizes(spec, n, class_labels, shapes)
        return closed_table(n, field, class_labels, char_labels, shapes, sizes)
    if mode == "brute":
        if spec is None:
            spec = make_triangular(n, field)
        partition = superclass_partition(spec, bound)
        census = enumerate_labels(spec, orbit_census(spec, "J*", bound))
        return brute_table(spec, n, partition, build_table(spec, partition, census, bound))
    raise ValueError(f"unknown table mode {mode!r}")


def group_order_tri(n: int, field: FieldSpec) -> int:
    return (field.q - 1) ** n * field.q ** (n * (n - 1) // 2)


def compare_tables(t1: CharacterTable, t2: CharacterTable) -> list[str]:
    """Diff of the size rows and of the entries of two tables sharing label
    sets; empty means identical."""
    diffs = []
    if [l.render() for l in t1.row_labels] != [l.render() for l in t2.row_labels]:
        diffs.append("row label sets differ")
    if [l.render() for l in t1.col_labels] != [l.render() for l in t2.col_labels]:
        diffs.append("column label sets differ")
    if diffs:
        return diffs
    for c, (a, b) in enumerate(zip(t1.sizes, t2.sizes)):
        if a != b:
            diffs.append(f"[size @ {t1.col_labels[c].render()}] {a} != {b}")
    for r, (row1, row2) in enumerate(zip(t1.values, t2.values)):
        for c, (a, b) in enumerate(zip(row1, row2)):
            if a != b:
                diffs.append(
                    f"[{t1.row_labels[r].render()} @ {t1.col_labels[c].render()}] "
                    f"{a.render()} != {b.render()}")
    return diffs

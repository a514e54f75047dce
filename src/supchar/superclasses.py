"""The triple-group action on G, the superclass partition, and quadruple labels."""
from __future__ import annotations

from collections import namedtuple
from math import prod

from . import linalg
from .algebra import (
    AlgebraSpec,
    LinearMap,
    TildeTriple,
    associated_support,
    block_component,
    certified_generators,
    closure,
    group_order,
    h_elements,
    idempotent_of,
    orbit,
    orbit_partition,
    orbit_support,
    regular_orbit_counts,
    sandwich_map,
    torus_conjugations,
)
from .errors import GroupTooLarge, NotInH, PartitionMismatch, ReductionFailed

DEFAULT_GROUP_BOUND = 2 ** 17


class SuperclassLabel(namedtuple("SuperclassLabel", [
        "e",            # block indices of the regular-orbit corner
        "f",            # blocks where the H-part differs from 1
        "h",            # the common S-component of the class
        "omega_rep"])):     # canonical representative of the corner orbit
    __slots__ = ()

    def sort_key(self):
        return (tuple(sorted(self.e)), tuple(sorted(self.f)), self.h, self.omega_rep)

    def render(self) -> str:
        e = ",".join(str(i + 1) for i in sorted(self.e))
        f = ",".join(str(i + 1) for i in sorted(self.f))
        return f"e={{{e}}};f={{{f}}};h={list(self.h)};w={list(self.omega_rep)}"


class SuperclassRecord(namedtuple("SuperclassRecord", "label members representative")):
    __slots__ = ()

    @property
    def size(self) -> int:
        return len(self.members)


def r_act(spec: AlgebraSpec, tau: TildeTriple, g):
    """R_tau(g) = 1 + t a (g - 1) b^{-1} t^{-1}."""
    core = spec.mul_many(tau.t, tau.a, spec.sub(g, spec.unit), tau.b_inv, tau.t_inv)
    return spec.add(spec.unit, core)


def r_map(spec: AlgebraSpec, tau: TildeTriple) -> LinearMap:
    """R_tau compiled: g -> M g + (1 - M 1) with M the sandwich by t a and b^{-1} t^{-1}."""
    m = sandwich_map(spec, spec.mul(tau.t, tau.a), spec.mul(tau.b_inv, tau.t_inv))
    return LinearMap(spec.field, m.cols, spec.sub(spec.unit, m.apply(spec.unit)))


def _product_maps(spec: AlgebraSpec) -> tuple[LinearMap, LinearMap]:
    """The linear maps y -> b_r y and y -> -(y b_r) for the radical basis
    vectors b_r, stacked: entry l nu + r of an image is radical coordinate l
    of the r-th product, so a slice of nu entries is row l of the u- or
    v-columns of transporter_count's system.  Read off the structure
    constants once per spec, with no mul."""
    if spec._radical_products is None:
        F = spec.field
        rad = spec.radical_basis
        nu = len(rad)
        table = spec.mul_table
        left = [[] for _ in range(spec.dim)]
        right = [[] for _ in range(spec.dim)]
        for i in range(spec.dim):
            for l, bl in enumerate(rad):
                for r, br in enumerate(rad):
                    if table[br][i][bl]:
                        left[i].append((l * nu + r, table[br][i][bl]))
                    if table[i][br][bl]:
                        right[i].append((l * nu + r, F.neg(table[i][br][bl])))
        spec._radical_products = (LinearMap(F, left, [0] * nu * nu),
                                  LinearMap(F, right, [0] * nu * nu))
    return spec._radical_products


def transporter_count(spec: AlgebraSpec, x, y) -> int:
    """#{(t, a, b) in H x N x N : t a x b^-1 t^-1 = y} for x, y in A, with no
    enumeration of N or of H.  With x = g - 1 and y = g' - 1 this counts the
    triples with R_tau(g) = g'; it is nonzero exactly when g' lies in the
    superclass of g, and for y = x it is |Stab(g)| in G~.

    For each t in H, with y_t = t^-1 y t, a = 1 + u and b = 1 + v, the
    equation reads u x - y_t v = y_t - x with (u, v) in J x J.  Both products
    lie in J, so y_t - x must have a zero S-part; the affine system then has
    q^{dim ker} solutions if it is consistent and none otherwise, which one
    rref decides.  The y_t form the orbit O of y under conjugation by H, the
    closure of y under the certified torus generators (torus_conjugations),
    and each y' in O is y_t for |H| / |O| elements t (orbit-stabilizer), so
    the count is (|H| / |O|) times the sum over O of the count for y'.
    """
    F = spec.field
    nu = len(spec.radical_basis)
    left_map, right_map = _product_maps(spec)
    u_cols = left_map.apply(x)
    conjugates = closure(y, torus_conjugations(spec))
    total = 0
    for yt in conjugates:
        rhs = spec.sub(yt, x)
        if not spec.in_radical(rhs):
            continue
        v_cols = right_map.apply(yt)
        # row l: the u-coordinates, then the v-coordinates, then rhs_l
        aug = [u_cols[l * nu:(l + 1) * nu] + v_cols[l * nu:(l + 1) * nu] + (c,)
               for l, c in enumerate(spec.j_coords(rhs))]
        _, pivots = linalg.rref(F, aug)
        if not pivots or pivots[-1] < 2 * nu:
            total += F.q ** (2 * nu - len(pivots))
    return prod(spec.block_orders) // len(conjugates) * total


def associated_idempotent(spec: AlgebraSpec, h) -> frozenset:
    """Blocks on which h - 1 is nonzero; requires h in H (NotInH otherwise,
    from block_component on a nonzero radical part)."""
    for i in range(len(spec.blocks)):
        if block_component(spec, h, i) == spec.zero():
            raise NotInH(f"{h} is not invertible on block {i}")
    return associated_support(spec, spec.sub(h, spec.unit))


def classify(spec: AlgebraSpec, members) -> SuperclassLabel:
    """Quadruple label of a superclass, via the constructive two-step reduction."""
    g = min(members)
    h = spec.s_part(g)
    x = spec.j_part(g)
    fset = associated_idempotent(spec, h)
    f = idempotent_of(spec, fset)

    if x == spec.zero():
        y = spec.zero()
    else:
        # unit u of S with h - 1 = u f; conjugate the f-reduction through it
        s = spec.sub(h, spec.unit)
        u = spec.add(spec.mul(f, spec.mul(s, f)), spec.sub(spec.unit, f))
        x1 = spec.mul(spec.invert(u), x)
        a = spec.invert(spec.add(spec.unit, x1))
        u2 = spec.sub(spec.mul(a, spec.add(f, x1)), f)
        if spec.mul(u2, f) != spec.zero():
            raise ReductionFailed("left reduction did not kill the f-column")
        y1 = spec.mul(spec.sub(spec.unit, f), u2)
        y = spec.mul(u, y1)
        if spec.mul(f, y) != spec.zero() or spec.mul(y, f) != spec.zero():
            raise ReductionFailed("reduced part is not in the f' corner")
        if spec.add(h, y) not in members:
            raise ReductionFailed("reduced element left the superclass")

    T, omega_rep = orbit_support(spec, orbit(spec, y, "rho"))
    if spec.add(h, omega_rep) not in members:
        raise ReductionFailed("canonical corner representative left the superclass")
    return SuperclassLabel(T, fset, h, omega_rep)


def superclass_partition(spec: AlgebraSpec, bound: int = DEFAULT_GROUP_BOUND):
    """All superclasses, labeled and sorted by representative.

    Each superclass is the closure of an element of G = H + J under the
    certified generators of G~ (certified_generators), so it is exactly one
    G~-orbit; R_tau is affine, so the orbit kernel computes every closure
    (orbit_partition)."""
    size = group_order(spec)
    if size > bound:
        raise GroupTooLarge(f"|G| = {size} exceeds bound {bound}")
    maps = [r_map(spec, tau) for tau in certified_generators(spec)]
    records = [SuperclassRecord(classify(spec, m), m, min(m)) for m in
               orbit_partition(spec.field, h_elements(spec), spec.radical_basis, maps)]
    if len({r.label for r in records}) != len(records):
        raise PartitionMismatch("distinct superclasses share a label")
    return records


def superclass_index(partition) -> dict:
    """{g: i} for every element g of the superclass partition[i]."""
    return {g: ci for ci, rec in enumerate(partition) for g in rec.members}


def identity_index(spec: AlgebraSpec, partition) -> int:
    for i, rec in enumerate(partition):
        if spec.unit in rec.members:
            return i
    raise PartitionMismatch("no superclass contains the identity")


def m_factor(spec: AlgebraSpec, fset: frozenset) -> int:
    """Number of H-parts (or torus characters) associated with f: prod (|H_i| - 1)."""
    return prod(spec.block_orders[i] - 1 for i in fset)


def predicted_count(spec: AlgebraSpec, census) -> int:
    """Superclass count from the orbit census: sum over e _|_ f of n_E(J_e) m(f)."""
    n_e = regular_orbit_counts(census)
    nb = len(spec.blocks)
    total = 0
    for emask in range(2 ** nb):
        T = frozenset(i for i in range(nb) if emask >> i & 1)
        if T not in n_e:
            continue
        rest = [i for i in range(nb) if i not in T]
        for fmask in range(2 ** len(rest)):
            U = frozenset(rest[i] for i in range(len(rest)) if fmask >> i & 1)
            total += n_e[T] * m_factor(spec, U)
    return total

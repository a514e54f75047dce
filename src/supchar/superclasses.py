"""The triple-group action on G, the superclass partition, and quadruple labels."""
from __future__ import annotations

from collections import namedtuple
from math import prod

from . import linalg
from .algebra import (
    DEFAULT_GROUP_BOUND,
    AlgebraSpec,
    LinearMap,
    associated_support,
    block_component,
    box,
    closure,
    group_order,
    orbit_partition,
    orbit_support,
    regular_orbit_counts,
    sandwich_map,
    sandwich_pairs,
    space_orbits,
    support_table,
    torus_conjugations,
)
from .errors import GroupTooLarge, NotInH, PartitionMismatch, ReductionFailed


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


def r_act(spec: AlgebraSpec, tau, g):
    """R_tau(g) = 1 + t a (g - 1) b^{-1} t^{-1}, tau = (t, a, b)."""
    t, a, b = tau
    core = spec.mul_many(t, a, spec.sub(g, spec.unit), spec.invert(b), spec.invert(t))
    return spec.add(spec.unit, core)


def r_map(spec: AlgebraSpec, u, w) -> LinearMap:
    """g -> 1 + u (g - 1) w compiled: g -> M g + (1 - M 1) with M the
    sandwich by u and w; R_tau for the pair (t a, b^-1 t^-1) of tau = (t, a, b)."""
    m = sandwich_map(spec, u, w)
    return LinearMap(spec.field, m.cols, spec.sub(spec.unit, m.apply(spec.unit)))


def _product_maps(spec: AlgebraSpec) -> tuple[LinearMap, LinearMap]:
    """The linear maps y -> b_r y and y -> -(y b_r) for the radical basis
    vectors b_r, stacked: entry l nu + r of an image is radical coordinate l
    of the r-th product, so a slice of nu entries is row l of the u- or
    v-columns of transporter_count's system.  Read off the structure
    constants once per spec, with no mul."""
    if spec._radical_products is None:
        F, sp = spec.field, spec._sparse
        rad, nu = spec.radical_basis, len(spec.radical_basis)
        pos = {b: l for l, b in enumerate(rad)}     # J is an ideal: b_r y, y b_r lie in J
        left = [[] for _ in range(spec.dim)]
        right = [[] for _ in range(spec.dim)]
        for i in range(spec.dim):
            for r, br in enumerate(rad):
                left[i] += [(pos[l] * nu + r, c) for l, c in sp[br][i]]
                right[i] += [(pos[l] * nu + r, F.neg(c)) for l, c in sp[i][br]]
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
    conjugates = closure(y, [m.apply for m in torus_conjugations(spec)])
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
    """Quadruple label (e, f, h, omega) of a superclass; members are the
    class's point numbers in box G, least first.

    Every member is h + x with one h (R_tau fixes the S-part), and f is
    associated_idempotent(h).  The members in the corner h + J_f' are those
    whose J-point x, number n - G.number(h) in box J, has a support
    (support_table) disjoint from f; their J-orbit ids (space_orbits) must be
    exactly one id, else ReductionFailed.  (e, omega) is orbit_support of that
    orbit, and h + omega must be a member."""
    G, orbits = box(spec, "G"), space_orbits(spec, "J")
    support, ids = support_table(spec, "J"), spec._orbit_of["J", True]
    h = spec.s_part(G.point(members[0]))
    fset, base = associated_idempotent(spec, h), G.number(h)
    corner = {ids[n - base] for n in members if fset.isdisjoint(support[n - base])}
    if len(corner) != 1:
        raise ReductionFailed(f"the class meets the f' corner in {len(corner)} J-orbits, not one")
    T, omega_rep = orbit_support(spec, orbits[corner.pop()])
    if G.number(spec.add(h, omega_rep)) not in members:
        raise ReductionFailed("canonical corner representative left the superclass")
    return SuperclassLabel(T, fset, h, omega_rep)


def superclass_partition(spec: AlgebraSpec, bound: int = DEFAULT_GROUP_BOUND):
    """All superclasses, labeled and sorted by representative.

    Each superclass is the closure of an element of G = H + J under R_tau
    for the pairs of sandwich_pairs (r_map), so it is exactly one G~-orbit;
    R_tau is affine and fixes the S-part of each element, so orbit_partition
    computes every closure inside its translate h + J."""
    size = group_order(spec)
    if size > bound:
        raise GroupTooLarge(f"|G| = {size} exceeds bound {bound}")
    maps, G = [r_map(spec, u, w) for u, w in sandwich_pairs(spec)], box(spec, "G")
    records = [SuperclassRecord(classify(spec, m), m, G.point(m[0]))
               for m in orbit_partition(G, maps)]
    if len({r.label for r in records}) != len(records):
        raise PartitionMismatch("distinct superclasses share a label")
    return records


def predicted_count(spec: AlgebraSpec, census) -> int:
    """Superclass count from the orbit census: sum over e of n_E(J_e) times
    prod of |H_i| over the blocks i off e, since the f _|_ e with their
    prod of (|H_i| - 1) over i in f sum to that product."""
    return sum(n * prod(order for i, order in enumerate(spec.block_orders) if i not in e)
               for e, n in regular_orbit_counts(census).items())

"""The triple-group action on G, the superclass partition, and quadruple labels."""
from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .algebra import (
    AlgebraSpec,
    LinearMap,
    TildeTriple,
    associated_support,
    block_component,
    certified_generators,
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
from .errors import GroupTooLarge, NotInH, ReductionFailed

DEFAULT_GROUP_BOUND = 2 ** 17


@dataclass(frozen=True)
class SuperclassLabel:
    e: frozenset            # block indices of the regular-orbit corner
    f: frozenset            # blocks where the H-part differs from 1
    h: tuple                # the common S-component of the class
    omega_rep: tuple        # canonical representative of the corner orbit

    def sort_key(self):
        return (tuple(sorted(self.e)), tuple(sorted(self.f)), self.h, self.omega_rep)

    def render(self) -> str:
        e = ",".join(str(i + 1) for i in sorted(self.e))
        f = ",".join(str(i + 1) for i in sorted(self.f))
        return f"e={{{e}}};f={{{f}}};h={list(self.h)};w={list(self.omega_rep)}"


@dataclass(frozen=True)
class SuperclassRecord:
    label: SuperclassLabel
    members: frozenset
    representative: tuple

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


def transporter_count(spec: AlgebraSpec, x, y) -> int:
    """#{(t, a, b) in H x N x N : t a x b^-1 t^-1 = y} for x, y in A, with no
    enumeration of N.  With x = g - 1 and y = g' - 1 this counts the triples
    with R_tau(g) = g'; it is nonzero exactly when g' lies in the superclass
    of g, and for y = x it is |Stab(g)| in G~.

    For each t in H, with y_t = t^-1 y t, a = 1 + u and b = 1 + v, the
    equation reads u x - y_t v = y_t - x with (u, v) in J x J.  Both products
    lie in J, so y_t - x must have a zero S-part; the affine system then has
    q^{dim ker} solutions if it is consistent and none otherwise.
    """
    F = spec.field
    nu = len(spec.radical_basis)
    basis = [spec.basis_vec(r) for r in spec.radical_basis]
    left = [spec.j_coords(spec.mul(b, x)) for b in basis]   # u -> u x
    counts: dict = {}
    total = 0
    for conj in torus_conjugations(spec):
        yt = conj(y)
        if yt not in counts:
            rhs = spec.sub(yt, x)
            if not spec.in_radical(rhs):
                counts[yt] = 0
            else:
                # columns: u-coordinates, then v-coordinates (v -> -y_t v)
                cols = left + [tuple(F.neg(c) for c in spec.j_coords(spec.mul(yt, b)))
                               for b in basis]
                aug = [list(row) + [c] for row, c in zip(zip(*cols), spec.j_coords(rhs))]
                _, pivots = linalg.rref(F, aug)
                consistent = not pivots or pivots[-1] < 2 * nu
                counts[yt] = F.q ** (2 * nu - len(pivots)) if consistent else 0
        total += counts[yt]
    return total


def associated_idempotent(spec: AlgebraSpec, h) -> frozenset:
    """Blocks on which h - 1 is nonzero; requires h in H."""
    if not all(v == 0 for v in spec.j_part(h)) or spec.s_part(h) != h:
        raise NotInH(f"{h} has a nonzero radical component")
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
    labels = {r.label for r in records}
    assert len(labels) == len(records), "distinct superclasses share a label"
    return records


def superclass_index(partition) -> dict:
    """{g: i} for every element g of the superclass partition[i]."""
    return {g: ci for ci, rec in enumerate(partition) for g in rec.members}


def identity_index(spec: AlgebraSpec, partition) -> int:
    for i, rec in enumerate(partition):
        if spec.unit in rec.members:
            return i
    raise AssertionError("no superclass contains the identity")


def m_factor(spec: AlgebraSpec, fset: frozenset) -> int:
    """Number of H-parts (or torus characters) associated with f: prod (|H_i| - 1)."""
    out = 1
    for i in fset:
        out *= spec.block_orders[i] - 1
    return out


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

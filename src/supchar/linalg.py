"""Small dense linear algebra over GF(p^k) (Gaussian elimination)."""
from __future__ import annotations

from operator import add, mul

from .fields import FieldSpec


def rref(spec: FieldSpec, rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    mat = [list(r) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = spec.inv(mat[r][c])
        mat[r] = [spec.mul(inv, v) for v in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [spec.sub(a, spec.mul(f, b)) for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat, pivots


def rank(spec: FieldSpec, rows: list[list[int]]) -> int:
    return len(rref(spec, rows)[1]) if rows else 0


def kernel_basis(spec: FieldSpec, rows: list[list[int]]) -> list[tuple[int, ...]]:
    """Basis of {v : M v = 0} for the matrix with the given rows."""
    if not rows:
        return []
    ncols = len(rows[0])
    mat, pivots = rref(spec, rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = spec.neg(mat[r][fc])
        basis.append(tuple(v))
    return basis


def solve(spec: FieldSpec, rows: list[list[int]], rhs: list[int]):
    """One solution of M v = rhs, or None if inconsistent."""
    if not rows:
        return None if any(b != 0 for b in rhs) else ()
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    mat, pivots = rref(spec, aug)
    for r in range(len(mat)):
        if all(v == 0 for v in mat[r][:ncols]) and mat[r][ncols] != 0:
            return None
    v = [0] * ncols
    for r, pc in enumerate(pivots):
        if pc == ncols:
            return None
        v[pc] = mat[r][ncols]
    return tuple(v)


def span(spec: FieldSpec, basis: list[tuple[int, ...]], dim: int | None = None):
    """All vectors in the span of a basis (exhaustive; sizes are desk-scale),
    the coefficient of the last basis vector varying fastest.  Over a prime
    field the sums are integer multiply-adds with one % p per coordinate."""
    if not basis:
        yield tuple([0] * (dim or 0))
        return
    p, times, plus = (spec.p, mul, add) if spec.k == 1 else (None, spec.mul, spec.add)
    vecs = [(0,) * len(basis[0])]
    for b in basis:
        scaled = [[times(c, x) for x in b] for c in range(spec.q)]
        vecs = [list(map(plus, v, s)) for v in vecs for s in scaled]
    yield from (tuple([x % p for x in v] if p else v) for v in vecs)

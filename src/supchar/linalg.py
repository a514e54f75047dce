"""Small dense linear algebra over GF(p^k) (Gaussian elimination)."""
from __future__ import annotations

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


"""Exact linear algebra: Bareiss elimination, det, scaled integer rows."""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

Vec = tuple[Fraction, ...]
Mat = list[list[Fraction]]


def rref(rows: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form; returns (rref_rows, pivot_columns)."""
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rank(rows: Mat) -> int:
    return len(rref(rows)[0])


def nullspace(rows: Mat, ncols: int) -> list[Vec]:
    """Basis of {x : rows @ x = 0} in Q^ncols."""
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        x = [Fraction(0)] * ncols
        x[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            x[pc] = -red[ri][fc]
        basis.append(tuple(x))
    return basis


def solve(rows: Mat, rhs) -> Vec | None:
    """One solution of rows @ x = rhs, or None if inconsistent."""
    if not rows:
        return tuple()
    ncols = len(rows[0])
    aug = [list(map(Fraction, r)) + [Fraction(b)] for r, b in zip(rows, rhs, strict=True)]
    red, pivots = rref(aug)
    for row in red:
        if all(x == 0 for x in row[:-1]) and row[-1] != 0:
            return None
    x = [Fraction(0)] * ncols
    for ri, pc in enumerate(pivots):
        if pc == ncols:
            return None
        x[pc] = red[ri][-1]
    return tuple(x)


def bareiss_step(rows, pr, c: int, prev: int, start: int = 0) -> None:
    """The fraction-free row update (Edmonds 1967; Bareiss 1968), in place:
    with p = pr[c], every row in rows becomes (p row - row[c] pr) / prev at
    the columns from start on.  In a fraction-free elimination of an
    integer matrix, prev the pivot of the step before (1 at the first), the
    new entries are minors of the matrix, so the division is exact."""
    p = pr[c]
    js = range(start, len(pr))
    for row in rows:
        f = row[c]
        for j in js:
            row[j] = (row[j] * p - f * pr[j]) // prev


def bareiss(m: list[list[int]], k: int, jordan: bool = False) -> int:
    """Fraction-free (Bareiss) elimination of the first k columns of the
    integer matrix m, in place; returns the determinant of its leading
    k x k block, 0 when that is singular.

    A row swap negates one of the rows, so the determinant and the solution
    of the system are both kept.  Without jordan only the rows below each
    pivot are eliminated.  With jordan the rows above are too, the result
    is |det|, and for a nonsingular block every column j >= k ends as
    |det| * x, where x solves m[:k][:k] x = the original column j: a
    negative determinant negates those columns.  Entries left of each pivot
    column are not updated.
    """
    prev = 1
    for c in range(k):
        pr = m[c]
        if pr[c] == 0:
            i = next((i for i in range(c + 1, len(m)) if m[i][c]), None)
            if i is None:
                return 0
            m[c], m[i] = m[i], [-x for x in pr]
            pr = m[c]
        bareiss_step(m[:c] + m[c + 1:] if jordan else m[c + 1:], pr, c, prev,
                     c + 1)
        prev = pr[c]
    if jordan and prev < 0:
        for row in m:
            row[k:] = [-x for x in row[k:]]
        prev = -prev
    return prev


def scaled(v) -> tuple[tuple[int, ...], int]:
    """(q v as an int tuple, q): q > 0 is the lcm of the denominators of the
    rational (int or Fraction) entries of v."""
    q = lcm(*(x.denominator for x in v))
    return tuple(x.numerator * (q // x.denominator) for x in v), q


def det(rows: Mat) -> Fraction:
    """Exact determinant by fraction-free (Bareiss) elimination.

    Each row is scaled to integers by the lcm of its denominators, the
    integer matrix is eliminated with exact divisions, and the scales are
    divided back out.  Entries may be int or Fraction.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("det of non-square matrix")
    m = [scaled(r) for r in rows]
    return Fraction(bareiss([list(r) for r, _ in m], n), prod(q for _, q in m))


def primitive(v: Vec) -> Vec:
    """Scale a rational vector to a primitive integer vector (gcd 1).

    Sign convention: first nonzero entry positive is NOT enforced here;
    callers wanting an oriented normal keep the sign.
    """
    ints, _ = scaled(v)
    g = gcd(*ints) or 1
    return tuple(Fraction(i, g) for i in ints)

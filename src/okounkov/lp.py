"""Exact rational linear programming (two-phase simplex, Bland's rule).

Everything runs over Fraction; no floating point.  Only the small wrappers
the geometry needs are exposed: feasibility of {A x = b, x >= 0} and
maximization of c.x over {A x <= b}.
"""
from __future__ import annotations

from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _simplex(tableau: list[list[Fraction]], basis: list[int], ncols: int):
    """Run simplex with Bland's rule on a tableau in canonical form.

    tableau rows: constraint rows then objective row (to be maximized,
    stored as z-row with reduced costs; entry [-1] is -current value).
    Mutates in place; returns when optimal (all reduced costs <= 0).
    """
    nrows = len(tableau) - 1
    while True:
        # Bland: entering = lowest index with positive reduced cost.
        obj = tableau[-1]
        enter = next((j for j in range(ncols) if obj[j] > 0), None)
        if enter is None:
            return
        # Ratio test, Bland tie-break on basis index.
        best = None
        for i in range(nrows):
            a = tableau[i][enter]
            if a > 0:
                ratio = tableau[i][-1] / a
                if best is None or ratio < best[0] or (
                    ratio == best[0] and basis[i] < basis[best[1]]
                ):
                    best = (ratio, i)
        if best is None:
            raise ValueError("unbounded linear program")
        _pivot(tableau, basis, best[1], enter)


def _pivot(tableau, basis, leave: int, enter: int) -> None:
    """Pivot on row leave, column enter: enter replaces basis[leave]."""
    piv = tableau[leave][enter]
    tableau[leave] = prow = [x / piv for x in tableau[leave]]
    for i, row in enumerate(tableau):
        if i != leave and row[enter] != 0:
            f = row[enter]
            tableau[i] = [x - f * y for x, y in zip(row, prow)]
    basis[leave] = enter


def _phase_one(rows, b):
    """Phase-one simplex on {rows x = b, x >= 0}: the optimal tableau (one
    artificial column per row, before the right-hand side) and its basis,
    or None when the system is infeasible."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    tableau = []
    for i in range(m):
        sg = -1 if b[i] < 0 else 1
        tableau.append([sg * Fraction(x) for x in rows[i]]
                       + [_ONE if k == i else _ZERO for k in range(m)]
                       + [sg * Fraction(b[i])])
    basis = list(range(n, n + m))
    # Phase-one objective: maximize -(sum of artificials).
    obj = [sum(col, _ZERO) for col in zip(*tableau)] or [_ZERO]
    obj[n:n + m] = [_ZERO] * m
    tableau.append(obj)
    _simplex(tableau, basis, n + m)
    if tableau[-1][-1] != 0:
        return None
    return tableau, basis


def feasible_nonneg(A: list[list[Fraction]], b: list[Fraction]) -> list[Fraction] | None:
    """A solution x >= 0 of A x = b, or None.  Phase-one simplex."""
    done = _phase_one(A, b)
    if done is None:
        return None
    tableau, basis = done
    x = [_ZERO] * (len(A[0]) if A else 0)
    for i, bj in enumerate(basis):
        if bj < len(x):
            x[bj] = tableau[i][-1]
    return x


def in_cone(generators: list[list[Fraction]], target: list[Fraction]) -> bool:
    """Is target a nonnegative combination of the generator vectors?"""
    if all(t == 0 for t in target):
        return True
    if not generators:
        return False
    dim = len(target)
    A = [[Fraction(g[k]) for g in generators] for k in range(dim)]
    return feasible_nonneg(A, [Fraction(t) for t in target]) is not None


def in_convex_hull(points: list[list[Fraction]], target: list[Fraction]) -> bool:
    """Is target a convex combination of the points?"""
    if not points:
        return False
    dim = len(target)
    A = [[Fraction(p[k]) for p in points] for k in range(dim)]
    A.append([_ONE] * len(points))
    b = [Fraction(t) for t in target] + [_ONE]
    return feasible_nonneg(A, b) is not None


def maximize(c: list[Fraction], A: list[list[Fraction]], b: list[Fraction]) -> tuple[Fraction, list[Fraction]]:
    """max c.x subject to A x <= b (x free).  Returns (value, argmax).

    Free variables are split x = x+ - x-; raises ValueError if unbounded
    or infeasible.
    """
    m = len(A)
    n = len(c)
    # Split free vars and add slacks: columns = 2n + m (+ artificials in phase 1).
    rows = [[sg * Fraction(A[i][j]) for j in range(n) for sg in (1, -1)]
            + [_ONE if k == i else _ZERO for k in range(m)] for i in range(m)]
    ncols = 2 * n + m
    done = _phase_one(rows, b)
    if done is None:
        raise ValueError("infeasible linear program")
    tableau, basis = done
    # Drive any artificial still in the basis out or drop its row.
    keep = []
    for i in range(len(basis)):
        if basis[i] >= ncols:
            enter = next((j for j in range(ncols) if tableau[i][j] != 0), None)
            if enter is None:
                continue  # redundant row
            _pivot(tableau, basis, i, enter)
        keep.append(i)
    tableau = [
        [tableau[i][j] for j in range(ncols)] + [tableau[i][-1]]
        for i in keep
    ] + [[_ZERO] * (ncols + 1)]
    basis = [basis[i] for i in keep]
    # Phase two objective: c on split variables, reduced against the basis.
    obj = tableau[-1]
    for j in range(n):
        obj[2 * j] = Fraction(c[j])
        obj[2 * j + 1] = -Fraction(c[j])
    for i, bj in enumerate(basis):
        if obj[bj] != 0:
            f = obj[bj]
            tableau[-1] = [x - f * y for x, y in zip(tableau[-1], tableau[i])]
            obj = tableau[-1]
    _simplex(tableau, basis, ncols)
    xsplit = [_ZERO] * ncols
    for i, bj in enumerate(basis):
        xsplit[bj] = tableau[i][-1]
    x = [xsplit[2 * j] - xsplit[2 * j + 1] for j in range(n)]
    value = sum((Fraction(c[j]) * x[j] for j in range(n)), _ZERO)
    return value, x

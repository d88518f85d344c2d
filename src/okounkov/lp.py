"""Exact rational linear programming (two-phase simplex, Bland's rule).

Each input row is scaled to integers by its own denominators, and the simplex
runs on an integer tableau M over one denominator den > 0, the last pivot:
M / den is the rational tableau.  Each pivot is linalg's fraction-free row
update, whose divisions are exact, so there is no floating point and no
Fraction arithmetic until the returned values are built.  Only the small
wrappers the geometry needs are exposed: feasibility of {A x = b, x >= 0}
and maximization of c.x over {A x <= b}.
"""
from __future__ import annotations

from fractions import Fraction

from . import linalg

# Largest cone test in_cone sets up, in generator entries (generators x
# dimension): the built-in curves at s = 8 as a user list have 2,241.
MAX_CONE_CELLS = 100_000


def _simplex(tableau: list[list[int]], basis: list[int], ncols: int,
             den: int) -> int:
    """Simplex with Bland's rule, in place, on an integer tableau in
    canonical form over den > 0: constraint rows, then the objective row to
    be maximized (reduced costs; entry [-1] is -current value), all times
    den.  Returns the final den once every reduced cost is <= 0."""
    while True:
        # Bland: entering = lowest index with positive reduced cost.
        obj = tableau[-1]
        enter = next((j for j in range(ncols) if obj[j] > 0), None)
        if enter is None:
            return den
        # Ratio test by cross-multiplication (den cancels), Bland tie-break
        # on basis index.
        best = None
        for i, row in enumerate(tableau[:-1]):
            if row[enter] > 0:
                if best is not None:
                    top = tableau[best]
                    d = row[-1] * top[enter] - top[-1] * row[enter]
                if best is None or d < 0 or d == 0 and basis[i] < basis[best]:
                    best = i
        if best is None:
            raise ValueError("unbounded linear program")
        den = _pivot(tableau, basis, best, enter, den)


def _pivot(tableau, basis, leave: int, enter: int, den: int) -> int:
    """Pivot on row leave, column enter: enter replaces basis[leave].  The
    pivot row stays and the pivot is the new den; a negative one (only a
    drive-out pivot can be) negates the whole tableau, so den stays > 0."""
    prow = tableau[leave]
    linalg.bareiss_step(tableau[:leave] + tableau[leave + 1:], prow, enter,
                        den)
    basis[leave] = enter
    if prow[enter] < 0:
        tableau[:] = [[-x for x in row] for row in tableau]
    return tableau[leave][enter]


def _phase_one(A, b):
    """Phase-one simplex on {A x = b, x >= 0}, each row of [A | b] scaled to
    integers (a positive row scale keeps the set): the optimal tableau (one
    artificial column per row, before the right-hand side), its basis and
    den, or None when infeasible."""
    rows = [linalg.scaled((*r, bi))[0] for r, bi in zip(A, b, strict=True)]
    m = len(rows)
    n = len(rows[0]) - 1 if m else 0
    tableau = [[-x if row[-1] < 0 else x for x in row[:-1]]
               + [int(k == i) for k in range(m)] + [abs(row[-1])]
               for i, row in enumerate(rows)]
    basis = list(range(n, n + m))
    # Phase-one objective: maximize -(sum of artificials).
    obj = [sum(col) for col in zip(*tableau)] or [0]
    obj[n:n + m] = [0] * m
    tableau.append(obj)
    den = _simplex(tableau, basis, n + m, 1)
    return None if tableau[-1][-1] else (tableau, basis, den)


def feasible_nonneg(A: list[list[Fraction]], b: list[Fraction]) -> list[Fraction] | None:
    """A solution x >= 0 of A x = b, or None.  Phase-one simplex."""
    done = _phase_one(A, b)
    if done is None:
        return None
    tableau, basis, den = done
    at = {bj: row[-1] for row, bj in zip(tableau, basis)}
    return [Fraction(at.get(j, 0), den) for j in range(len(A[0]) if A else 0)]


def in_cone(generators: list[list[Fraction]], target: list[Fraction]) -> bool:
    """Is target a nonnegative combination of the generator vectors?  A
    generator of another length than target, or past MAX_CONE_CELLS
    generator entries, is refused before any pivot."""
    if any(len(g) != len(target) for g in generators):
        raise ValueError(f"cone generators must have the target's length "
                         f"{len(target)}")
    if (size := len(generators) * len(target)) > MAX_CONE_CELLS:
        raise ValueError(f"cone test of {size} generator entries exceeds "
                         f"MAX_CONE_CELLS = {MAX_CONE_CELLS}")
    if all(t == 0 for t in target):
        return True
    if not generators:
        return False
    A = [[g[k] for g in generators] for k in range(len(target))]
    return feasible_nonneg(A, target) is not None


def in_convex_hull(points: list[list[Fraction]], target: list[Fraction]) -> bool:
    """Is target a convex combination of the points?"""
    if not points:
        return False
    A = [[p[k] for p in points] for k in range(len(target))]
    return feasible_nonneg(A + [[1] * len(points)], [*target, 1]) is not None


def maximize(c: list[Fraction], A: list[list[Fraction]], b: list[Fraction]) -> tuple[Fraction, list[Fraction]]:
    """max c.x subject to A x <= b (x free).  Returns (value, argmax).

    Free variables are split x = x+ - x-; raises ValueError if unbounded
    or infeasible.
    """
    m, n = len(A), len(c)
    # Split free vars and add slacks: columns = 2n + m (+ artificials in
    # phase 1).
    rows = [[sg * Fraction(x) for x in r for sg in (1, -1)]
            + [int(k == i) for k in range(m)] for i, r in enumerate(A)]
    ncols = 2 * n + m
    done = _phase_one(rows, b)
    if done is None:
        raise ValueError("infeasible linear program")
    tableau, basis, den = done
    # Drive any artificial still in the basis out or drop its row.
    keep = []
    for i in range(len(basis)):
        if basis[i] >= ncols:
            enter = next((j for j in range(ncols) if tableau[i][j]), None)
            if enter is None:
                continue  # redundant row
            den = _pivot(tableau, basis, i, enter, den)
        keep.append(i)
    tableau = [tableau[i][:ncols] + tableau[i][-1:] for i in keep]
    basis = [basis[i] for i in keep]
    # Phase two objective: c scaled to integers on the split variables,
    # reduced against the basis.  A row is 0 at the other basic columns, so
    # its multiple is c's own coefficient.
    cs = [sg * x for x in linalg.scaled(c)[0] for sg in (1, -1)] + [0] * m
    obj = [den * x for x in cs] + [0]
    for row, bj in zip(tableau, basis):
        if cs[bj]:
            obj = [x - cs[bj] * y for x, y in zip(obj, row)]
    tableau.append(obj)
    den = _simplex(tableau, basis, ncols, den)
    at = {bj: row[-1] for row, bj in zip(tableau, basis)}
    x = [Fraction(at.get(2 * j, 0) - at.get(2 * j + 1, 0), den)
         for j in range(n)]
    return sum((Fraction(cj) * xj for cj, xj in zip(c, x)), Fraction(0)), x

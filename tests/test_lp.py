"""The exact simplex in `lp`, against oracles outside it: the polytope core's
hulls and vertex enumeration, and exact arithmetic on the witnesses."""
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from okounkov import lp, polytope

F = Fraction

small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def _rows(m, n):
    return st.lists(st.lists(small_rationals, min_size=n, max_size=n),
                    min_size=m, max_size=m)


@st.composite
def hull_cases(draw):
    dim = draw(st.integers(1, 3))
    points = draw(st.lists(st.tuples(*[small_rationals] * dim), min_size=1,
                           max_size=6))
    if draw(st.booleans()):
        # A convex combination of the points: often on a face.
        w = draw(st.lists(st.integers(0, 3), min_size=len(points),
                          max_size=len(points)).filter(any))
        target = tuple(sum(F(k, sum(w)) * p[j] for k, p in zip(w, points))
                       for j in range(dim))
    else:
        target = draw(st.tuples(*[small_rationals] * dim))
    return points, target


@settings(deadline=None)
@given(hull_cases())
def test_in_convex_hull_matches_hull_containment(case):
    points, target = case
    expected = polytope.contains(polytope.hull(points, len(target)), target)
    assert lp.in_convex_hull([list(p) for p in points], list(target)) \
        == expected


@st.composite
def equality_systems(draw):
    n = draw(st.integers(1, 4))
    # With no rows the witness has no entries to check.
    A = draw(_rows(draw(st.integers(1, 4)), n))
    if draw(st.booleans()):
        A.append([2 * x for x in A[0]])  # a redundant equation
    if draw(st.booleans()):
        # Feasible by construction: b = A x0 with x0 >= 0.
        x0 = draw(st.lists(st.fractions(0, 3, max_denominator=4),
                           min_size=n, max_size=n))
        b = [sum(a * x for a, x in zip(row, x0)) for row in A]
    else:
        b = draw(st.lists(small_rationals, min_size=len(A),
                          max_size=len(A)))
    return n, A, b


@settings(deadline=None)
@given(equality_systems())
def test_feasible_nonneg_witness_or_empty_polyhedron(case):
    n, A, b = case
    x = lp.feasible_nonneg(A, b)
    # {x >= 0 : A x = b} is pointed, so it is empty iff it has no vertex.
    vertices = polytope._vertices_from_constraints(
        [(tuple(-F(i == j) for j in range(n)), F(0)) for i in range(n)],
        [(tuple(row), bi) for row, bi in zip(A, b)], n)
    if x is None:
        assert vertices == []
    else:
        assert vertices and len(x) == n
        assert all(type(v) is Fraction and v >= 0 for v in x)
        assert [sum(a * v for a, v in zip(row, x)) for row in A] == b


@st.composite
def bounded_programs(draw):
    n = draw(st.integers(1, 3))
    c = draw(st.lists(small_rationals, min_size=n, max_size=n))
    A = draw(_rows(draw(st.integers(0, 4)), n))
    b = draw(st.lists(small_rationals, min_size=len(A), max_size=len(A)))
    # A box keeps the program bounded; it may still be infeasible.
    for i in range(n):
        for sg in (1, -1):
            A.append([F(sg * (i == j)) for j in range(n)])
            b.append(F(2))
    return c, A, b


@settings(deadline=None)
@example(([F(1)], [[F(-1)], [F(1)], [F(1)], [F(-1)]],
          [F(1), F(-1), F(2), F(2)]))  # a negative drive-out pivot
@example(([F(1), F(0)], [[F(1), F(1)], [F(-1), F(-1)], [F(1), F(0)],
                          [F(-1), F(0)], [F(0), F(1)], [F(0), F(-1)]],
          [F(1), F(-1), F(2), F(2), F(2), F(2)]))  # an equality by two rows
@given(bounded_programs())
def test_maximize_matches_best_vertex(case):
    c, A, b = case
    n = len(c)
    vertices = polytope._vertices_from_constraints(
        [(tuple(row), bi) for row, bi in zip(A, b)], [], n)
    if not vertices:
        with pytest.raises(ValueError, match="infeasible"):
            lp.maximize(c, A, b)
        return
    value, x = lp.maximize(c, A, b)
    assert value == max(sum(ci * vi for ci, vi in zip(c, v))
                        for v in vertices)
    assert sum(ci * xi for ci, xi in zip(c, x)) == value
    assert all(sum(a * xi for a, xi in zip(row, x)) <= bi
               for row, bi in zip(A, b))


def test_maximize_unbounded_and_trivial():
    with pytest.raises(ValueError, match="unbounded"):
        lp.maximize([F(1)], [[F(-1)]], [F(0)])
    assert lp.maximize([F(0), F(0)], [], []) == (0, [0, 0])


def test_in_cone_refuses_oversize_lists_before_any_pivot(monkeypatch):
    # The size is generators x dimension, read before the tableau is built.
    def no_lp(A, b):
        raise AssertionError("the work bound let the LP start")

    monkeypatch.setattr(lp, "feasible_nonneg", no_lp)
    dim = 10
    k = lp.MAX_CONE_CELLS // dim
    row = [1] * dim
    with pytest.raises(ValueError, match="MAX_CONE_CELLS = 100000"):
        lp.in_cone([row] * (k + 1), row)
    with pytest.raises(AssertionError, match="let the LP start"):
        lp.in_cone([row] * k, row)


def test_in_cone_refuses_generators_of_another_length(monkeypatch):
    # [1, 0, 5] was truncated to [1, 0], and a short generator was a bare
    # IndexError.
    monkeypatch.setattr(lp, "feasible_nonneg", None)  # no pivot is reached
    for gens in ([[1, 0, 5]], [[1]], [[1, 0], [0]]):
        with pytest.raises(ValueError, match="target's length 2"):
            lp.in_cone(gens, [1, 0])
    with pytest.raises(ValueError, match="target's length 2"):
        lp.in_cone([[0]], [0, 0])

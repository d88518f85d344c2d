from fractions import Fraction

import pytest

from okounkov.numbers import RadVal, format_rat, parse_rat, squarefree_split


def test_parse_rat():
    assert parse_rat("3/4") == Fraction(3, 4)
    assert parse_rat("-2/6") == Fraction(-1, 3)
    assert parse_rat("7") == Fraction(7)
    for bad in ("1/0", True, False):  # a bool is not a rational
        with pytest.raises(ValueError):
            parse_rat(bad)


def test_format_rat_round_trip():
    for q in [Fraction(0), Fraction(5), Fraction(-3, 7), Fraction(22, 4)]:
        assert parse_rat(format_rat(q)) == q


def test_squarefree_split():
    assert squarefree_split(12) == (2, 3)
    assert squarefree_split(49) == (7, 1)
    assert squarefree_split(1) == (1, 1)
    assert squarefree_split(0) == (1, 0)
    assert squarefree_split(360) == (6, 10)


def test_radval_normalization():
    assert RadVal(Fraction(1), 12) == RadVal(Fraction(2), 3)
    assert RadVal(Fraction(3), 4).is_rational
    assert RadVal(Fraction(3), 4).as_rational() == 6
    assert RadVal(Fraction(0), 7).is_rational


@pytest.mark.parametrize("radicand", [Fraction(4, 9), Fraction(4), 2.0,
                                      "2", True])
def test_radval_refuses_a_radicand_that_is_not_an_int(radicand):
    # Kept, RadVal(1, 4/9) would read 1*sqrt(4/9): irrational by its
    # radicand, for the value 2/3.
    with pytest.raises(ValueError, match="radicand must be an int"):
        RadVal(Fraction(1), radicand)


@pytest.mark.parametrize("coeff, shift", [(0, 0), (1, 0), (0, 5)])
def test_radval_refuses_a_negative_radicand(coeff, shift):
    # Also with coeff 0, where the radicand does not change the value.
    with pytest.raises(ValueError, match="negative radicand"):
        RadVal(Fraction(coeff), -3, Fraction(shift))


def test_radval_sqrt_and_square():
    v = RadVal.sqrt(Fraction(1, 2))
    assert v.squared() == Fraction(1, 2)
    assert RadVal.sqrt(9) == RadVal.rational(3)
    assert RadVal.sqrt(10).squared() == 10


def test_radval_arithmetic():
    a = RadVal.sqrt(2)
    assert a + a == RadVal(Fraction(2), 2)
    assert a * a == RadVal.rational(2)
    assert (a - a).is_rational
    three = RadVal.rational(3)
    assert three * a == RadVal(Fraction(3), 2)
    with pytest.raises(ValueError):
        _ = RadVal.sqrt(2) + RadVal.sqrt(3)


def test_radval_shift_arithmetic():
    # (1 + sqrt(2)) * (1 - sqrt(2)) = -1
    p = RadVal(Fraction(1), 2, Fraction(1))
    q = RadVal(Fraction(-1), 2, Fraction(1))
    assert p * q == RadVal.rational(-1)
    assert p + q == RadVal.rational(2)


def test_radval_ordering():
    assert RadVal.sqrt(2) < RadVal.rational(Fraction(3, 2))
    assert RadVal.sqrt(2) > RadVal.rational(Fraction(7, 5))
    assert RadVal.sqrt(2) < RadVal.sqrt(3)
    assert RadVal.sqrt(8) == RadVal(Fraction(2), 2)
    # 1 - sqrt(1/2) vs 1/2: sqrt(1/2) ~ 0.707 so LHS < 1/2
    lower = RadVal.rational(1) - RadVal.sqrt(Fraction(1, 2))
    assert lower < RadVal.rational(Fraction(1, 2))
    # mixed radicands with shift: 1 + sqrt(2) vs sqrt(6)
    assert RadVal(Fraction(1), 2, Fraction(1)) < RadVal.sqrt(6)
    assert RadVal(Fraction(1), 2, Fraction(1)) > RadVal.sqrt(5)


def test_radval_division():
    assert RadVal.rational(1) / RadVal.sqrt(2) == RadVal(Fraction(1, 2), 2)
    v = RadVal(Fraction(1), 2, Fraction(1))  # 1 + sqrt(2)
    assert v * v.reciprocal() == RadVal.rational(1)
    with pytest.raises(ZeroDivisionError):
        RadVal.rational(0).reciprocal()


def test_radval_json_round_trip():
    for v in [RadVal.rational(Fraction(3, 4)), RadVal.sqrt(10),
              RadVal(Fraction(-2, 3), 5, Fraction(1, 2))]:
        assert RadVal.from_json(v.to_json()) == v
    assert RadVal.sqrt(2).to_json() == {"coeff": "1", "radicand": "2"}

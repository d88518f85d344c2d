import copy
import math
import operator
import pickle
import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from okounkov import invariants as inv, polytope as pt, surface as sf
from okounkov import toric as tc
from okounkov.numbers import (RadVal, _integer, format_rat, parse_rat,
                              squarefree_split)
from reference import squarefree_split as squarefree_split_trial


def test_parse_rat():
    assert parse_rat("3/4") == Fraction(3, 4)
    assert parse_rat("-2/6") == Fraction(-1, 3)
    assert parse_rat("7") == Fraction(7)
    assert parse_rat(-7) == Fraction(-7)
    q = Fraction(1, 10)
    assert parse_rat(q) is q
    for bad in ("1/0", True, False):  # a bool is not a rational
        with pytest.raises(ValueError):
            parse_rat(bad)


@pytest.mark.parametrize("x, message", [
    (0.1, "float weight 0.1; give an exact rational"),
    (True, "bool weight True; give an exact rational"),
    (Decimal("0.1"), "Decimal weight Decimal('0.1'); give an exact rational"),
    (None, "NoneType weight None; give an exact rational"),
    ("0.1", "weight '0.1' is not a rational \"p\" or \"p/q\""),
    ("1/", "weight '1/' is not a rational"),
    ("3H", "weight '3H' is not a rational"),
    ("2/0", "zero denominator in weight '2/0'"),
])
def test_parse_rat_names_what_it_refuses(x, message):
    # A malformed string was a bare "invalid literal for int()".
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_rat(x, "weight")


@pytest.mark.parametrize("x, low, message", [
    (2.0, None, "n 2.0 is not an integer"),
    (True, None, "n True is not an integer"),
    ("2", None, "n '2' is not an integer"),
    (0, 1, "n 0 is not an integer >= 1"),
])
def test_integer_names_what_it_refuses(x, low, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        _integer(x, "n", low)
    assert _integer(3, "n", 1) == 3 and _integer(-3, "n") == -3


def test_format_rat_round_trip():
    for q in [Fraction(0), Fraction(5), Fraction(-3, 7), Fraction(22, 4)]:
        assert parse_rat(format_rat(q)) == q


def test_squarefree_split():
    assert squarefree_split(12) == (2, 3)
    assert squarefree_split(49) == (7, 1)
    assert squarefree_split(1) == (1, 1)
    assert squarefree_split(0) == (1, 0)
    assert squarefree_split(360) == (6, 10)
    # What trial division leaves above the cube root: a prime squared, two
    # large primes, one large prime.
    assert squarefree_split(2 * 10000019 ** 2) == (10000019, 2)
    assert squarefree_split(1000003 * 1000033) == (1, 1000003 * 1000033)
    assert squarefree_split(9 * 1000003) == (3, 1000003)
    assert squarefree_split(2000026000109) == squarefree_split_trial(
        2000026000109)
    for n in range(5000):
        assert squarefree_split(n) == squarefree_split_trial(n)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**10))
def test_squarefree_split_matches_trial_division(n):
    assert squarefree_split(n) == squarefree_split_trial(n)


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
    with pytest.raises(ValueError, match="sqrt of negative rational"):
        RadVal.sqrt(Fraction(-1, 4))


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


@pytest.mark.parametrize("obj, key", [
    ({"coeff": "1", "radicand": 2.9}, "radicand"),
    ({"coeff": "1", "radicand": "2.9"}, "radicand"),
    ({"coeff": "1", "radicand": "-3"}, "radicand"),
    ({"coeff": "1", "radicand": -3}, "radicand"),
    ({"coeff": "1", "radicand": True}, "radicand"),
    ({"coeff": "1", "radicand": "2", "bogus": 1}, "bogus"),
    ({"coeff": "1/0", "radicand": "2"}, "coeff"),
    ({"coeff": 0.5, "radicand": "2"}, "coeff"),
    ({"coeff": "1", "radicand": "2", "shift": None}, "shift"),
    ({"radicand": "2"}, "coeff"),
    ({"coeff": "1"}, "radicand"),
])
def test_radval_from_json_refuses_wrong_shapes(obj, key):
    with pytest.raises(ValueError, match=f"RadVal key '{key}'"):
        RadVal.from_json(obj)


def test_radval_from_json_refuses_a_non_object():
    with pytest.raises(ValueError, match="RadVal must be an object"):
        RadVal.from_json(["1", "2"])


def test_radval_from_json_reads_integer_radicands():
    assert RadVal.from_json({"coeff": "1", "radicand": 8}) == RadVal(2, 2)
    assert RadVal.from_json({"coeff": 3, "radicand": "1"}) == 3
    assert RadVal.from_json({"coeff": "1", "radicand": "0",
                             "shift": "1/2"}) == Fraction(1, 2)


def test_equal_values_hash_equal():
    for q in (Fraction(3), Fraction(-1, 2), Fraction(0)):
        assert RadVal.rational(q) == q
        assert len({RadVal.rational(q), q}) == 1
    assert len({RadVal.rational(3), Fraction(3), 3}) == 1
    assert {RadVal.sqrt(9): "x"}[3] == "x"
    assert hash(RadVal(Fraction(1), 12)) == hash(RadVal(Fraction(2), 3))
    assert len({RadVal.sqrt(2), RadVal(Fraction(1), 8) / 2}) == 1


def test_radval_truth_value_is_nonzero():
    # A zero RadVal equals 0 and hashes as Fraction(0): it is false, as 0 is.
    assert not RadVal.rational(0) and not RadVal(Fraction(0), 7)
    assert RadVal.rational(Fraction(-1, 2)) and RadVal.sqrt(2)
    assert RadVal(Fraction(1), 2, Fraction(-1))
    assert not RadVal.sqrt(2) - RadVal.sqrt(2)


def test_radval_survives_pickle_and_copy():
    for v in [RadVal.rational(Fraction(3, 4)), RadVal.sqrt(10),
              RadVal(Fraction(-2, 3), 5, Fraction(1, 2))]:
        for w in (pickle.loads(pickle.dumps(v)), copy.copy(v),
                  copy.deepcopy(v)):
            assert type(w) is RadVal and w == v and hash(w) == hash(v)
            assert repr(w) == repr(v)


def test_radval_is_immutable():
    v = RadVal.sqrt(2)
    for name in ("coeff", "_v", "other"):
        with pytest.raises(AttributeError):
            setattr(v, name, 1)
    with pytest.raises(AttributeError):
        del v._v
    assert v == RadVal.sqrt(2)


def test_radval_fields_are_fractions():
    v = RadVal(Fraction(2, 4), 8, Fraction(-3, 6))  # -1/2 + sqrt(2)
    assert (v.shift, v.coeff, v.radicand) == (Fraction(-1, 2), 1, 2)
    assert type(v.coeff) is Fraction and type(v.shift) is Fraction
    r = RadVal.rational(Fraction(6, 4))
    assert (r.shift, r.coeff, r.radicand) == (0, Fraction(3, 2), 1)
    assert type(r.coeff) is Fraction and type(r.shift) is Fraction


# -- the integer RadVal against the Fraction implementation it replaced --

def _sign(q):
    return (q > 0) - (q < 0)


def _sign_surd(s, a, k):
    """Exact sign of s + a*sqrt(k) for k >= 0, on Fractions."""
    if a == 0 or k == 0:
        return _sign(s)
    t = _sign(a)
    if s == 0:
        return t
    u = _sign(s)
    if u == t:
        return u
    return u if s * s > a * a * k else (t if s * s < a * a * k else 0)


@dataclass(frozen=True)
class FracRadVal:
    """shift + coeff*sqrt(radicand) on Fractions: the representation RadVal
    had before it was held as integers, kept as an oracle."""

    coeff: Fraction
    radicand: int
    shift: Fraction = Fraction(0)

    def __post_init__(self):
        coeff, shift, k = Fraction(self.coeff), Fraction(self.shift), \
            self.radicand
        if k != 1:
            s, k = squarefree_split(k)
            if k == 0 or coeff == 0:
                coeff, k = Fraction(0), 1
            elif s != 1:
                coeff *= s
        if k == 1 and shift:
            coeff, shift = shift + coeff, Fraction(0)
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "radicand", k)
        object.__setattr__(self, "shift", shift)

    @staticmethod
    def sqrt(q):
        q = Fraction(q)
        if q < 0:
            raise ValueError("sqrt of negative rational")
        return FracRadVal(Fraction(1, q.denominator),
                          q.numerator * q.denominator)

    @property
    def is_rational(self):
        return self.radicand == 1

    def as_rational(self):
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self.coeff

    def squared(self):
        if self.shift != 0:
            raise ValueError("squared() requires a pure surd")
        return self.coeff * self.coeff * self.radicand

    def _parts(self):
        if self.is_rational:
            return (self.coeff, Fraction(0), 1)
        return (self.shift, self.coeff, self.radicand)

    def __add__(self, other):
        other = _frac_coerce(other)
        s1, a1, k1 = self._parts()
        s2, a2, k2 = other._parts()
        if k1 == 1 or a1 == 0:
            return FracRadVal(a2, k2, s1 + s2)
        if k2 == 1 or a2 == 0:
            return FracRadVal(a1, k1, s1 + s2)
        if k1 != k2:
            raise ValueError(f"cannot add surds over sqrt({k1}) and sqrt({k2})")
        return FracRadVal(a1 + a2, k1, s1 + s2)

    def __neg__(self):
        s, a, k = self._parts()
        return FracRadVal(-a, k, -s)

    def __sub__(self, other):
        return self + (-_frac_coerce(other))

    def __mul__(self, other):
        other = _frac_coerce(other)
        s1, a1, k1 = self._parts()
        s2, a2, k2 = other._parts()
        if a1 == 0:
            return FracRadVal(s1 * a2, k2, s1 * s2)
        if a2 == 0:
            return FracRadVal(s2 * a1, k1, s1 * s2)
        if k1 != k2:
            raise ValueError(
                f"cannot multiply surds over sqrt({k1}) and sqrt({k2})")
        return FracRadVal(s1 * a2 + s2 * a1, k1, s1 * s2 + a1 * a2 * k1)

    __rmul__ = __mul__

    def __radd__(self, other):
        return self + other

    def reciprocal(self):
        s, a, k = self._parts()
        if a == 0:
            if s == 0:
                raise ZeroDivisionError("reciprocal of zero")
            return FracRadVal(1 / s, 1)
        if s == 0:
            return FracRadVal(Fraction(1) / (a * k), k)
        denom = s * s - a * a * k
        return FracRadVal(-a / denom, k, s / denom)

    def __truediv__(self, other):
        return self * _frac_coerce(other).reciprocal()

    def __rtruediv__(self, other):
        return _frac_coerce(other) * self.reciprocal()

    def _cmp(self, other):
        other = _frac_coerce(other)
        s1, a1, k1 = self._parts()
        s2, a2, k2 = other._parts()
        s = s1 - s2
        if a1 == 0 or k1 == 1:
            return _sign_surd(s, -a2, k2)
        if a2 == 0 or k2 == 1:
            return _sign_surd(s, a1, k1)
        if k1 == k2:
            return _sign_surd(s, a1 - a2, k1)
        left, right = _sign_surd(s, a1, k1), _sign(a2)
        if left != right:
            return left if left else -right
        if left == 0:
            return 0
        return left * _sign_surd(s * s + a1 * a1 * k1 - a2 * a2 * k2,
                                 2 * s * a1, k1)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __eq__(self, other):
        return self._cmp(other) == 0

    def __hash__(self):
        # The hash contract of RadVal: a rational value hashes as its
        # Fraction, an irrational one as its integers (n, a, k, d), which
        # over d = lcm of the two denominators are in lowest terms.
        if self.is_rational:
            return hash(self.coeff)
        d = math.lcm(self.shift.denominator, self.coeff.denominator)
        return hash((int(self.shift * d), int(self.coeff * d),
                     self.radicand, d))

    def __repr__(self):
        if self.is_rational:
            return f"RadVal({format_rat(self.coeff)})"
        if self.shift == 0:
            return f"RadVal({format_rat(self.coeff)}*sqrt({self.radicand}))"
        return (f"RadVal({format_rat(self.shift)} + "
                f"{format_rat(self.coeff)}*sqrt({self.radicand}))")

    def to_json(self):
        out = {"coeff": format_rat(self.coeff), "radicand": str(self.radicand)}
        if self.shift != 0:
            out["shift"] = format_rat(self.shift)
        return out


def _frac_coerce(x):
    if isinstance(x, FracRadVal):
        return x
    if isinstance(x, (int, Fraction)):
        return FracRadVal(x, 1)
    raise TypeError(f"cannot coerce {x!r} to RadVal")


_RATS = st.fractions(min_value=-4, max_value=4, max_denominator=6)
# Square-free, square, zero and non-square-free radicands, so that the
# constructor's split and both rational normalizations are drawn.
_RADICANDS = st.sampled_from([0, 1, 2, 3, 4, 5, 6, 8, 12, 18, 45, 50])


def _pair(c, k, s):
    return RadVal(c, k, s), FracRadVal(c, k, s)


def _outcome(f, *args):
    """f(*args), or the type and message of the error it raised."""
    try:
        return f(*args)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        return type(exc), str(exc)


def _assert_same(new, old):
    if not isinstance(old, FracRadVal):
        assert new == old  # an error, a Fraction or a bool
        return
    assert type(new) is RadVal
    assert repr(new) == repr(old)
    assert new.to_json() == old.to_json()
    assert (new.coeff, new.radicand, new.shift) == \
        (old.coeff, old.radicand, old.shift)
    assert hash(new) == hash(old)
    assert new.is_rational == old.is_rational
    assert RadVal.from_json(new.to_json()) == new


@settings(deadline=None, max_examples=300)
@given(_RATS, _RADICANDS, _RATS)
def test_radval_matches_fraction_oracle_on_one_value(c, k, s):
    x, X = _pair(c, k, s)
    _assert_same(x, X)
    for f in (operator.neg, lambda v: v.reciprocal(), lambda v: v.squared(),
              lambda v: v.as_rational(), lambda v: v * v, lambda v: v - v,
              lambda v: v / 3, lambda v: Fraction(-2, 3) / v,
              lambda v: 2 + v, lambda v: v - Fraction(1, 2)):
        _assert_same(_outcome(f, x), _outcome(f, X))
    if s >= 0:
        _assert_same(RadVal.sqrt(s), FracRadVal.sqrt(s))


_BINARY = (operator.add, operator.sub, operator.mul, operator.truediv)
_ORDER = (operator.lt, operator.le, operator.gt, operator.ge, operator.eq,
          operator.ne)


@settings(deadline=None, max_examples=300)
@given(_RATS, _RATS, _RADICANDS, _RATS, _RATS)
def test_radval_matches_fraction_oracle_on_a_shared_radicand(c1, s1, k, c2,
                                                             s2):
    (x, X), (y, Y) = _pair(c1, k, s1), _pair(c2, k, s2)
    for f in _BINARY + _ORDER:
        _assert_same(_outcome(f, x, y), _outcome(f, X, Y))
        # against a rational on either side
        _assert_same(_outcome(f, x, c2), _outcome(f, X, c2))
    for f in (operator.add, operator.mul, operator.truediv, *_ORDER):
        _assert_same(_outcome(f, c1, y), _outcome(f, c1, Y))


@settings(deadline=None, max_examples=300)
@given(_RATS, _RADICANDS, _RATS, _RATS, _RADICANDS, _RATS)
def test_radval_matches_fraction_oracle_on_mixed_radicands(c1, k1, s1, c2, k2,
                                                           s2):
    (x, X), (y, Y) = _pair(c1, k1, s1), _pair(c2, k2, s2)
    for f in _ORDER:
        assert f(x, y) == f(X, Y)
    for f in _BINARY:
        _assert_same(_outcome(f, x, y), _outcome(f, X, Y))


@pytest.mark.parametrize("op, verb", [(operator.add, "add"),
                                      (operator.sub, "add"),
                                      (operator.mul, "multiply")])
def test_radval_refuses_mixed_radicands_like_the_oracle(op, verb):
    message = f"cannot {verb} surds over sqrt(2) and sqrt(3)"
    x, X = _pair(1, 2, 1)
    y, Y = _pair(-1, 3, 0)
    for left, right in ((x, y), (X, Y)):
        with pytest.raises(ValueError, match=re.escape(message)):
            op(left, right)


# -- every public entry reads a caller's numbers through numbers ------

def _refusals():
    f = tc.load_fixture("bl1p2")
    fan, D, flags = f["fan"], f["divisors"]["O1"], f["flags"]["inf"]
    P = pt.hull([(0, 0), (1, 0), (0, 1), (1, 1)], 2)
    m2, L = sf.SurfaceModel(2), sf.H(2).scale(2)
    m1, L1 = sf.SurfaceModel(1), sf.PicClass(2, (0,))
    return [
        # invariants
        ("seshadri_eps", lambda: inv.seshadri_eps(m2, sf.H(2), [0.1, 0.1]),
         "float weight 0.1"),
        ("xi_constant-w", lambda: inv.xi_constant(P, [0.5], 2, 1),
         "float weight 0.5"),
        ("xi_constant-n", lambda: inv.xi_constant(P, [1], 2.0, 1),
         "n 2.0 is not an integer"),
        ("xi_constant-r", lambda: inv.xi_constant(P, [1], 2, True),
         "r True is not an integer"),
        ("slice_volume_check-w",
         lambda: inv.slice_volume_check(P, [0.5], 2, 1, 1),
         "float weight 0.5"),
        ("slice_volume_check-vol_x",
         lambda: inv.slice_volume_check(P, [1], 2, 1, 0.5),
         "float vol_x 0.5"),
        ("slice_volume_check-n",
         lambda: inv.slice_volume_check(P, [1], True, 1, 1),
         "n True is not an integer"),
        ("containment_bound", lambda: inv.containment_bound([0.5], 2, 1),
         "float mu value 0.5"),
        ("containment_bound-r", lambda: inv.containment_bound([1], 2, True),
         "r True is not an integer"),
        ("nagata_check-d", lambda: inv.nagata_check(9, 3.1, [1] * 9),
         "float degree 3.1"),
        ("nagata_check-m", lambda: inv.nagata_check(9, 3, [0.5]),
         "float multiplicity 0.5"),
        ("nagata_check-r", lambda: inv.nagata_check(True, 3, [1]),
         "r True is not an integer"),
        ("is_standard_form", lambda: inv.is_standard_form(3.5, [1]),
         "float degree 3.5"),
        ("conditional_non_effectivity",
         lambda: inv.conditional_non_effectivity(3, [1, 0.5]),
         "float multiplicity 0.5"),
        ("irrationality_certificate-s",
         lambda: inv.irrationality_certificate(10.0, 10, [3] * 10),
         "s 10.0 is not an integer"),
        ("irrationality_certificate-d",
         lambda: inv.irrationality_certificate(10, 10.5, [3] * 10),
         "float degree 10.5"),
        ("homogeneous_eps-s", lambda: inv.homogeneous_eps(10.0, 10, 3),
         "s 10.0 is not an integer"),
        ("homogeneous_eps-bool-s", lambda: inv.homogeneous_eps(True, 10, 3),
         "s True is not an integer"),
        ("homogeneous_eps-c", lambda: inv.homogeneous_eps(10, 10, 0.5),
         "float multiplicity 0.5"),
        ("nef_boundary_check", lambda: inv.nef_boundary_check(0.5, [0]),
         "float degree 0.5"),
        # polytope
        ("SliceSpec-w", lambda: pt.SliceSpec(2, 1, (0.1,)),
         "float slice weight 0.1"),
        ("SliceSpec-n", lambda: pt.SliceSpec(2.0, 1, (1,)),
         "n 2.0 is not an integer"),
        ("SliceSpec-r", lambda: pt.SliceSpec(2, True, (1,)),
         "r True is not an integer"),
        ("Polytope-ambient_dim", lambda: pt.Polytope(True, [(0,)]),
         "ambient dimension True is not an integer"),
        ("Polytope-float-ambient_dim", lambda: pt.Polytope(1.0, [(0,)]),
         "ambient dimension 1.0 is not an integer"),
        ("affine_image-M", lambda: pt.affine_image(P, [[0.5, 0], [0, 1]]),
         "float matrix entry 0.5"),
        ("affine_image-t",
         lambda: pt.affine_image(P, [[1, 0], [0, 1]], (0.5, 0)),
         "float translation 0.5"),
        ("contains", lambda: pt.contains(P, (0.5, 0)),
         "float coordinate 0.5"),
        ("inverted_slice_simplex-size",
         lambda: pt.inverted_slice_simplex([0.5], 2),
         "float slice-simplex size 0.5"),
        ("inverted_slice_simplex-n",
         lambda: pt.inverted_slice_simplex([1], 2.0),
         "n 2.0 is not an integer"),
        ("cone_base-level", lambda: pt.cone_base([((0, 0), 1.5)]),
         "level 1.5 is not an integer"),
        ("cone_base-point", lambda: pt.cone_base([((0.5, 0), 1)]),
         "float coordinate 0.5"),
        # surface
        ("chambers", lambda: sf.chambers(m2, L, [0.5, 0]),
         "float weight 0.5"),
        ("PicClass.scale", lambda: L.scale(0.5), "float scale 0.5"),
        ("H", lambda: sf.H(2.0), "s 2.0 is not an integer"),
        ("E-i", lambda: sf.E(2, True), "index i True is not an integer"),
        ("E-s", lambda: sf.E(2.0, 1), "s 2.0 is not an integer"),
        ("SurfaceModel", lambda: sf.SurfaceModel(True),
         "s True is not an integer"),
        ("SurfaceModel-user", lambda: sf.SurfaceModel(True, "user"),
         "s True is not an integer"),
        ("neg_curve_classes", lambda: sf.neg_curve_classes(4.0),
         "s 4.0 is not an integer"),
        ("surface_body_outer-grid_step",
         lambda: sf.surface_body_outer(m1, L1, [0], 0.5, 1),
         "float grid_step 0.5"),
        ("surface_body_outer-t_max",
         lambda: sf.surface_body_outer(m1, L1, [0], 1, 0.5),
         "float t_max 0.5"),
        # toric
        ("lattice_points", lambda: tc.lattice_points(P, True),
         "multiple m True is not an integer"),
        ("lattice_points-float", lambda: tc.lattice_points(P, 2.0),
         "multiple m 2.0 is not an integer"),
        ("semigroup_body_approx",
         lambda: tc.semigroup_body_approx(fan, D, flags, 2.0),
         "m_max 2.0 is not an integer"),
        ("ValuationVector-entry", lambda: tc.ValuationVector((0.5,), 1),
         "float valuation entry 0.5"),
        ("ValuationVector-level", lambda: tc.ValuationVector((1,), True),
         "valuation level True is not an integer"),
    ]


_REFUSALS = _refusals()


@pytest.mark.parametrize("call, message", [r[1:] for r in _REFUSALS],
                         ids=[r[0] for r in _REFUSALS])
def test_public_entries_refuse_a_float_or_bool_by_name(call, message):
    # A float is a binary fraction, not the rational it was written as, and
    # a bool is no integer: each used to be read (0.1 as 3602879701896397 /
    # 36028797018963968, True as 1) or to fail deep inside with a bare
    # TypeError or AttributeError.
    with pytest.raises(ValueError, match=re.escape(message)):
        call()

"""Fraction reference routines that the tests check the integer program
against; the program itself has no use for them."""
from fractions import Fraction


def dot(a, b) -> Fraction:
    """The exact dot product of two vectors of the same length."""
    return sum((x * y for x, y in zip(a, b, strict=True)), Fraction(0))

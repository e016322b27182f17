"""Inputs of the differential tests of the rational paths, and their comparison.

Exact tables and exact alpha reduce each result once; the tests compare every
such result with the plain expression it stands for.  Float tables and float
alpha keep the plain expression itself, so their bits must match it too.
"""

from fractions import Fraction

from mlerisk.moments import X_PRESET_NAMES, HomogeneousMoments, x_preset

F = Fraction

TABLES = ("normal_table", "t3_table", "t21_5_table", "sn3_table", "t4_2_table")
ALPHAS = (-1, 0, 1, 2, F(1, 2), F(-7, 3), F(1, 3), 0.5, -1.0)


def sources():
    """Every preset and homogeneous moments with a skew term, at p in {1, 10, 40}."""
    for p in (1, 10, 40):
        yield from (x_preset(name, p) for name in X_PRESET_NAMES)
        yield HomogeneousMoments(p=p, m4=F(7, 2), m22=1, m3=F(1, 5))


def same(a, b) -> bool:
    """Equal in type and value, a float in its bits; tuples and dataclasses field by field."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return a.hex() == b.hex()
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(same, a, b))
    if hasattr(a, "__dataclass_fields__"):
        return all(same(getattr(a, f), getattr(b, f)) for f in a.__dataclass_fields__)
    return a == b

"""Outcomes for bit-identity pins: a fast route compared with its reference.

Two routes that perform the same floating-point operations in the same
order agree to the bit, signed zeros included, so a pin compares these
outcomes with ==.
"""

import math

from qmobius.errors import GeometryError
from qmobius.flt import INFINITY


def bits(v):
    """v with each zero's sign made visible and every NaN as one marker;
    tuples (quaternions, matrices) map entry by entry, INFINITY and a set
    (classify's tags) stay."""
    if v is INFINITY or isinstance(v, set):
        return v
    if isinstance(v, tuple):
        return tuple(bits(x) for x in v)
    if math.isnan(v):
        return "nan"
    return v, math.copysign(1.0, v)


def outcome(f, *args):
    """bits(f(*args)), or the type of the GeometryError f raised."""
    try:
        v = f(*args)
    except GeometryError as exc:
        return type(exc)
    return bits(v)

"""Argument checks at the library boundary.

Every public entry point passes its arguments through these before an
lru_cache, a dict or numpy touches them, so a hostile argument ends in a
one-line LrlabError (errors), never a bare TypeError or OverflowError.
One rule decides what is a number: an integer is an int or a numpy
integer, taken as its int, and never a bool, a float (even 5.0) or a str;
a real is an integer, a float or another numbers.Real (a Fraction), a
numpy scalar taken as its Python number, and an int is exact at any size;
a bound (integer(..., truncate=True)) is a finite real truncated toward
zero.  A valid argument costs a type test and a few comparisons; a message
is built only on failure.
"""

from __future__ import annotations

import math
import numbers
import sys

import numpy as np

from .errors import InvalidArgumentError, ResourceLimitError


def shown(x) -> str:
    """x for a one-line message: short, safe for an int of any size, a number as str() prints it."""
    if isinstance(x, int) and x.bit_length() > 64:
        return f"an integer of {x.bit_length()} bits"
    try:
        text = " ".join((str if isinstance(x, numbers.Number) else repr)(x).split())
    except ValueError:  # an int past Python's limit on printed digits, inside x
        text = type(x).__name__
    return text if len(text) <= 60 else text[:57] + "..."


def _int(x):
    """x as an int if it is an integer (module docstring), else None."""
    return int(x) if isinstance(x, (int, np.integer)) and not isinstance(x, bool) else None


def integer(x, name: str, least=None, top=None, desk: str = "", truncate: bool = False) -> int:
    """x as an int with least <= x <= top, else an InvalidArgumentError; if
    ``desk`` names top as a desk limit, x > top is a ResourceLimitError
    ("<desk> limit is <top>").  With ``truncate``, x is a bound."""
    n = x if type(x) is int else _int(x)
    if n is None:
        if not truncate:
            raise InvalidArgumentError(f"{name} must be an integer, got {shown(x)}")
        n = int(real(x, name))
    if least is not None and n < least:
        raise InvalidArgumentError(f"{name} must be >= {least}, got {shown(x)}")
    if top is not None and n > top:
        if desk:
            raise ResourceLimitError(f"{desk} limit is {top}, got {shown(x)}")
        raise InvalidArgumentError(f"{name} must be <= {top}, got {shown(x)}")
    return n


def real(x, name: str, nonfinite=InvalidArgumentError, float_range: bool = False):
    """x if it is a finite real, a numpy scalar as its Python number; nan or
    an infinity raises ``nonfinite``, and with ``float_range`` a number past
    the largest float raises InvalidArgumentError."""
    if type(x) is not float and type(x) is not int:
        if isinstance(x, bool) or not isinstance(x, numbers.Real):
            raise InvalidArgumentError(f"{name} must be a real number, got {shown(x)}")
        if isinstance(x, np.generic):  # its Python number, a long double as a float
            x = int(x) if isinstance(x, np.integer) else float(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise nonfinite(f"{name} must be finite, got {x}")
    elif float_range and abs(x) > sys.float_info.max:
        raise InvalidArgumentError(f"{name} must lie in the float range, got {shown(x)}")
    return x


def tag(x, registry, what: str, error=InvalidArgumentError):
    """x as a key of ``registry`` (str tags or int moduli): a str as it is, an
    integer as its int.  Anything else, an unhashable x too, raises ``error``."""
    key = x if type(x) is str or type(x) is int else _int(x)
    if key is None or key not in registry:
        raise error(f"unsupported {what} {shown(x)}; expected one of {list(registry)}")
    return key


def tags(x, registry, what: str, error=InvalidArgumentError) -> tuple:
    """The items of a collection (an iterable but a str or bytes) as a tuple,
    each a key of ``registry`` as by tag() unless registry is None."""
    try:
        items = tuple(x) if not isinstance(x, (str, bytes)) else None
    except TypeError:
        items = None
    if items is None:
        raise error(f"{what} must be a collection{'' if registry is None else ' of tags'}, got {shown(x)}")
    return items if registry is None else tuple(tag(t, registry, what, error) for t in items)


def instance(x, kind: type, name: str):
    """x if it is a ``kind``."""
    if not isinstance(x, kind):
        raise InvalidArgumentError(f"{name} must be a {kind.__name__}, got {shown(x)}")
    return x


def int_array(x, name: str) -> np.ndarray:
    """x as a one-dimensional int64 array: an array, list or tuple of integers."""
    try:
        a = np.asarray(x)
    except (TypeError, ValueError, OverflowError):  # a ragged list, say
        a = None
    if a is None or a.ndim != 1 or a.dtype.kind not in "iu" and a.size:
        raise InvalidArgumentError(f"{name} must be a one-dimensional array of integers, got {shown(x)}")
    return a.astype(np.int64, copy=False)

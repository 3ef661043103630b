"""IEEE 1164 nine-value logic.

The VHDL simulator substrate models signals with the full
``std_logic`` value set so that the hardware-test-board model can
represent tristate byte lanes ('Z'), bus contention ('X') and
uninitialised state ('U') faithfully:

====== =============================
value  meaning
====== =============================
'U'    uninitialised
'X'    forcing unknown
'0'    forcing 0
'1'    forcing 1
'Z'    high impedance
'W'    weak unknown
'L'    weak 0
'H'    weak 1
'-'    don't care
====== =============================

Vectors are plain tuples of these characters, MSB first (index 0 is
the leftmost/most-significant bit, matching ``STD_LOGIC_VECTOR(7
DOWNTO 0)`` written left to right).
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple, Union

__all__ = ["STD_LOGIC_VALUES", "resolve", "resolve_many", "to_vector",
           "vector_to_int", "LogicError",
           "U", "X", "ZERO", "ONE", "Z"]

STD_LOGIC_VALUES = "UX01ZWLH-"

U, X, ZERO, ONE, Z = "U", "X", "0", "1", "Z"


class LogicError(ValueError):
    """Raised for values outside the nine-value alphabet or malformed
    vectors."""


# IEEE 1164 resolution table: _RESOLUTION[a][b].
_ORDER = {v: i for i, v in enumerate(STD_LOGIC_VALUES)}
_RESOLUTION_ROWS = [
    # U    X    0    1    Z    W    L    H    -
    ["U", "U", "U", "U", "U", "U", "U", "U", "U"],  # U
    ["U", "X", "X", "X", "X", "X", "X", "X", "X"],  # X
    ["U", "X", "0", "X", "0", "0", "0", "0", "X"],  # 0
    ["U", "X", "X", "1", "1", "1", "1", "1", "X"],  # 1
    ["U", "X", "0", "1", "Z", "W", "L", "H", "X"],  # Z
    ["U", "X", "0", "1", "W", "W", "W", "W", "X"],  # W
    ["U", "X", "0", "1", "L", "W", "L", "W", "X"],  # L
    ["U", "X", "0", "1", "H", "W", "W", "H", "X"],  # H
    ["U", "X", "X", "X", "X", "X", "X", "X", "X"],  # -
]


def _check(value: str) -> str:
    if value not in _ORDER:
        raise LogicError(f"{value!r} is not a std_logic value")
    return value


def resolve(a: str, b: str) -> str:
    """Resolve two competing scalar drivers (IEEE 1164 table)."""
    return _RESOLUTION_ROWS[_ORDER[_check(a)]][_ORDER[_check(b)]]


def resolve_many(values: Iterable[str]) -> str:
    """Resolve any number of drivers; no drivers resolves to 'Z'."""
    result = "Z"
    first = True
    for value in values:
        if first:
            result = _check(value)
            first = False
        else:
            result = resolve(result, value)
    return result


# Conversion caches.  Vector signals are driven with the same small
# set of integers over and over (octets on a cell stream, opcodes on a
# bus), and converted back just as repetitively; memoising the
# conversions takes them off the kernel's hot path.  Both caches are
# capped so a pathological workload degrades to the uncached cost
# instead of growing without bound.
_INT_VECTOR_CACHE: dict = {}
_VECTOR_INT_CACHE: dict = {}
_CACHE_LIMIT = 65536


def to_vector(value: Union[int, str, Sequence[str]],
              width: int) -> Tuple[str, ...]:
    """Build an MSB-first *width*-bit vector from an int, a literal
    string like ``"01ZX"``, or an existing bit sequence.

    Integers must be non-negative and fit in *width* bits.
    """
    if width <= 0:
        raise LogicError(f"non-positive vector width {width}")
    if isinstance(value, int):
        cached = _INT_VECTOR_CACHE.get((width, value))
        if cached is not None:
            return cached
        if value < 0:
            raise LogicError(f"negative value {value} for a vector")
        if value >= (1 << width):
            raise LogicError(f"value {value} does not fit in {width} bits")
        vector = tuple("1" if (value >> (width - 1 - i)) & 1 else "0"
                       for i in range(width))
        if len(_INT_VECTOR_CACHE) < _CACHE_LIMIT:
            _INT_VECTOR_CACHE[(width, value)] = vector
        return vector
    vector = tuple(value)
    if len(vector) != width:
        raise LogicError(
            f"vector literal of width {len(vector)} != {width}")
    for bit in vector:
        _check(bit)
    return vector


def vector_to_int(vector: Sequence[str]) -> int:
    """Interpret an MSB-first vector of '0'/'1' as an unsigned int.

    Raises:
        LogicError: any bit is not a strong 0/1 (metavalues do not
            convert; this is how X-propagation bugs surface in tests).
    """
    if type(vector) is tuple:
        cached = _VECTOR_INT_CACHE.get(vector)
        if cached is not None:
            return cached
    result = 0
    for bit in vector:
        if bit == "1":
            result = (result << 1) | 1
        elif bit == "0":
            result <<= 1
        else:
            raise LogicError(
                f"vector {''.join(vector)!r} contains metavalue {bit!r}")
    if type(vector) is tuple and len(_VECTOR_INT_CACHE) < _CACHE_LIMIT:
        _VECTOR_INT_CACHE[vector] = result
    return result

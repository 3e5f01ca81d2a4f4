"""Word-level primitives on plain integers.

These free functions are the hot layer of HDTLib: every operation is a
handful of native integer instructions.  The optimised TLM code
generator emits calls to (or inline equivalents of) these, which is
where the Table 4 speedup over the SystemC-style types comes from.

All functions take and return unsigned integers already confined to
``width`` bits; ``mask`` is the only helper that needs the width
explicitly at runtime.
"""

from __future__ import annotations

__all__ = [
    "mask",
    "add", "sub", "mul", "neg",
    "and_", "or_", "xor", "not_",
    "shl", "shr", "sar",
    "eq", "ne", "lt", "le", "gt", "ge",
    "lt_s", "le_s", "gt_s", "ge_s",
    "to_signed",
    "red_and", "red_or", "red_xor",
    "slice_", "concat", "replace_slice",
    "mux",
]


def mask(width: int) -> int:
    """All-ones mask for ``width`` bits."""
    return (1 << width) - 1


def to_signed(a: int, width: int) -> int:
    """Interpret ``a`` as a two's-complement ``width``-bit value."""
    return a - (1 << width) if a >> (width - 1) else a


# -- arithmetic ---------------------------------------------------------

def add(a: int, b: int, width: int) -> int:
    return (a + b) & mask(width)


def sub(a: int, b: int, width: int) -> int:
    return (a - b) & mask(width)


def mul(a: int, b: int, width: int) -> int:
    return (a * b) & mask(width)


def neg(a: int, width: int) -> int:
    return (-a) & mask(width)


# -- bitwise ------------------------------------------------------------

def and_(a: int, b: int) -> int:
    return a & b


def or_(a: int, b: int) -> int:
    return a | b


def xor(a: int, b: int) -> int:
    return a ^ b


def not_(a: int, width: int) -> int:
    return a ^ mask(width)


# -- shifts ---------------------------------------------------------------

def shl(a: int, n: int, width: int) -> int:
    if n >= width:
        return 0
    return (a << n) & mask(width)


def shr(a: int, n: int, width: int) -> int:
    return a >> n


def sar(a: int, n: int, width: int) -> int:
    if n >= width:
        n = width - 1
    if a >> (width - 1):
        m = mask(width)
        return ((a >> n) | (m >> (width - n) << (width - n))) & m
    return a >> n


# -- comparisons (return 0/1) ----------------------------------------------

def eq(a: int, b: int) -> int:
    return 1 if a == b else 0


def ne(a: int, b: int) -> int:
    return 1 if a != b else 0


def lt(a: int, b: int) -> int:
    return 1 if a < b else 0


def le(a: int, b: int) -> int:
    return 1 if a <= b else 0


def gt(a: int, b: int) -> int:
    return 1 if a > b else 0


def ge(a: int, b: int) -> int:
    return 1 if a >= b else 0


def lt_s(a: int, b: int, width: int) -> int:
    return 1 if to_signed(a, width) < to_signed(b, width) else 0


def le_s(a: int, b: int, width: int) -> int:
    return 1 if to_signed(a, width) <= to_signed(b, width) else 0


def gt_s(a: int, b: int, width: int) -> int:
    return 1 if to_signed(a, width) > to_signed(b, width) else 0


def ge_s(a: int, b: int, width: int) -> int:
    return 1 if to_signed(a, width) >= to_signed(b, width) else 0


# -- reductions ---------------------------------------------------------------

def red_and(a: int, width: int) -> int:
    return 1 if a == mask(width) else 0


def red_or(a: int, width: int) -> int:
    return 1 if a else 0


def red_xor(a: int, width: int) -> int:
    return a.bit_count() & 1


# -- structure ------------------------------------------------------------------

def slice_(a: int, hi: int, lo: int) -> int:
    return (a >> lo) & mask(hi - lo + 1)


def concat(parts: "list[tuple[int, int]]") -> int:
    """Concatenate ``(value, width)`` pairs, most significant first."""
    out = 0
    for value, width in parts:
        out = (out << width) | (value & mask(width))
    return out


def replace_slice(base: int, hi: int, lo: int, part: int) -> int:
    hole = mask(hi - lo + 1) << lo
    return (base & ~hole) | ((part << lo) & hole)


def mux(sel: int, a: int, b: int) -> int:
    return a if sel else b

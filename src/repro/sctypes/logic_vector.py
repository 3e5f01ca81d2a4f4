"""``sc_lv``-style multi-value logic vector.

Semantically identical to the RTL kernel's :class:`repro.rtl.types.LV`
(the standard abstraction maps HDL types to SystemC types of equal
semantics), stored as two planes.  What distinguishes it from the
HDTLib word types -- and what Table 4 measures -- is the *cost
structure* SystemC templates impose:

* every operation allocates a fresh vector object,
* every operation validates widths and normalises ``Z`` states,
* operations dispatch through a method layer rather than being
  inlined integer expressions.

The per-bit truth tables below are the reference semantics; the plane
equations are verified against them by the test suite.
"""

from __future__ import annotations

from repro.rtl.types import LV

__all__ = ["ScLogicVector", "AND_TABLE", "OR_TABLE", "XOR_TABLE", "NOT_TABLE"]

# Reference per-bit truth tables, state codes 0, 1, X(2), Z(3).
AND_TABLE = [
    [0, 0, 0, 0],
    [0, 1, 2, 2],
    [0, 2, 2, 2],
    [0, 2, 2, 2],
]
OR_TABLE = [
    [0, 1, 2, 2],
    [1, 1, 1, 1],
    [2, 1, 2, 2],
    [2, 1, 2, 2],
]
XOR_TABLE = [
    [0, 1, 2, 2],
    [1, 0, 2, 2],
    [2, 2, 2, 2],
    [2, 2, 2, 2],
]
NOT_TABLE = [1, 0, 2, 2]

_CODE_TO_CHAR = "01XZ"
_CHAR_TO_CODE = {"0": 0, "1": 1, "X": 2, "x": 2, "Z": 3, "z": 3}


class ScLogicVector:
    """A multi-value logic vector with SystemC-style operation costs.

    Internally two integer planes (``value``, ``unk``); ``Z`` is
    normalised to ``X`` on every operation, as logic operators in
    ``std_logic``/``sc_logic`` do.
    """

    __slots__ = ("width", "value", "unk")

    def __init__(self, bits: "list[int]") -> None:
        """Build from a list of per-bit state codes (LSB first)."""
        if not bits:
            raise ValueError("ScLogicVector cannot be empty")
        value = 0
        unk = 0
        for i, code in enumerate(bits):
            if code == 1:
                value |= 1 << i
            elif code == 2:
                unk |= 1 << i
            elif code == 3:
                value |= 1 << i
                unk |= 1 << i
            elif code != 0:
                raise ValueError(f"bad state code {code!r}")
        self.width = len(bits)
        self.value = value
        self.unk = unk

    @classmethod
    def _make(cls, width: int, value: int, unk: int) -> "ScLogicVector":
        obj = cls.__new__(cls)
        mask = (1 << width) - 1
        obj.width = width
        obj.unk = unk & mask
        obj.value = value & mask & ~obj.unk  # Z normalised to X
        return obj

    # -- construction ---------------------------------------------------

    @staticmethod
    def from_int(width: int, value: int) -> "ScLogicVector":
        return ScLogicVector._make(width, value, 0)

    @staticmethod
    def from_str(text: str) -> "ScLogicVector":
        value = 0
        unk = 0
        for char in text:
            code = _CHAR_TO_CODE[char]
            value = (value << 1) | (code & 1)
            unk = (unk << 1) | (code >> 1)
        # Preserve Z distinction at rest (from_str only).
        obj = ScLogicVector.__new__(ScLogicVector)
        obj.width = len(text)
        obj.value = value
        obj.unk = unk
        return obj

    @staticmethod
    def from_lv(lv: LV) -> "ScLogicVector":
        obj = ScLogicVector.__new__(ScLogicVector)
        obj.width = lv.width
        obj.value = lv.value
        obj.unk = lv.unk
        return obj

    @staticmethod
    def all_x(width: int) -> "ScLogicVector":
        return ScLogicVector._make(width, 0, (1 << width) - 1)

    # -- inspection -------------------------------------------------------

    @property
    def bits(self) -> "list[int]":
        """Per-bit state codes, LSB first (reference view)."""
        out = []
        for i in range(self.width):
            v = (self.value >> i) & 1
            u = (self.unk >> i) & 1
            out.append((2 + v) if u else v)
        return out

    @property
    def is_fully_defined(self) -> bool:
        return self.unk == 0

    def to_lv(self) -> LV:
        return LV(self.width, self.value, self.unk)

    def to_int(self) -> int:
        if self.unk:
            raise ValueError(f"vector has unknown bits: {self}")
        return self.value

    def to_int_or(self, default: int = 0) -> int:
        if not self.unk:
            return self.value
        return (self.value & ~self.unk) | (default & self.unk)

    def __str__(self) -> str:
        return "".join(_CODE_TO_CHAR[b] for b in reversed(self.bits))

    def __repr__(self) -> str:
        return f"ScLogicVector('{self}')"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ScLogicVector):
            return (
                self.width == other.width
                and self.value == other.value
                and self.unk == other.unk
            )
        if isinstance(other, int):
            return self.unk == 0 and self.value == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.width, self.value, self.unk))

    def _check_width(self, other: "ScLogicVector") -> None:
        if self.width != other.width:
            raise ValueError(
                f"width mismatch: {self.width} vs {other.width}"
            )

    def _planes(self) -> "tuple[int, int]":
        """(hard-one, hard-zero) planes with Z folded to X."""
        mask = (1 << self.width) - 1
        one = self.value & ~self.unk
        zero = ~self.value & ~self.unk & mask
        return one, zero

    # -- bitwise -----------------------------------------------------------

    def __and__(self, other: "ScLogicVector") -> "ScLogicVector":
        self._check_width(other)
        mask = (1 << self.width) - 1
        a1, a0 = self._planes()
        b1, b0 = other._planes()
        one = a1 & b1
        zero = (a0 | b0) & mask
        return ScLogicVector._make(self.width, one, ~(one | zero) & mask)

    def __or__(self, other: "ScLogicVector") -> "ScLogicVector":
        self._check_width(other)
        mask = (1 << self.width) - 1
        a1, a0 = self._planes()
        b1, b0 = other._planes()
        one = (a1 | b1) & mask
        zero = a0 & b0
        return ScLogicVector._make(self.width, one, ~(one | zero) & mask)

    def __xor__(self, other: "ScLogicVector") -> "ScLogicVector":
        self._check_width(other)
        mask = (1 << self.width) - 1
        unk = (self.unk | other.unk) & mask
        one = (self.value ^ other.value) & ~unk & mask
        return ScLogicVector._make(self.width, one, unk)

    def __invert__(self) -> "ScLogicVector":
        mask = (1 << self.width) - 1
        one, zero = self._planes()
        return ScLogicVector._make(self.width, zero, self.unk)

    # -- reductions -----------------------------------------------------------

    def reduce_and(self) -> "ScLogicVector":
        one, zero = self._planes()
        mask = (1 << self.width) - 1
        if zero:
            return ScLogicVector._make(1, 0, 0)
        if one == mask:
            return ScLogicVector._make(1, 1, 0)
        return ScLogicVector._make(1, 0, 1)

    def reduce_or(self) -> "ScLogicVector":
        one, zero = self._planes()
        mask = (1 << self.width) - 1
        if one:
            return ScLogicVector._make(1, 1, 0)
        if zero == mask:
            return ScLogicVector._make(1, 0, 0)
        return ScLogicVector._make(1, 0, 1)

    def reduce_xor(self) -> "ScLogicVector":
        if self.unk:
            return ScLogicVector._make(1, 0, 1)
        return ScLogicVector._make(1, self.value.bit_count() & 1, 0)

    # -- arithmetic (contaminating) ----------------------------------------------

    def _arith(self, other: "ScLogicVector", op) -> "ScLogicVector":
        self._check_width(other)
        if self.unk | other.unk:
            return ScLogicVector.all_x(self.width)
        return ScLogicVector._make(
            self.width, op(self.value, other.value), 0
        )

    def __add__(self, other: "ScLogicVector") -> "ScLogicVector":
        return self._arith(other, lambda a, b: a + b)

    def __sub__(self, other: "ScLogicVector") -> "ScLogicVector":
        return self._arith(other, lambda a, b: a - b)

    def __mul__(self, other: "ScLogicVector") -> "ScLogicVector":
        return self._arith(other, lambda a, b: a * b)

    def neg(self) -> "ScLogicVector":
        if self.unk:
            return ScLogicVector.all_x(self.width)
        return ScLogicVector._make(self.width, -self.value, 0)

    # -- shifts ---------------------------------------------------------------------

    def shl(self, amount: int) -> "ScLogicVector":
        if amount < 0:
            raise ValueError("negative shift amount")
        return ScLogicVector._make(
            self.width, self.value << amount, self.unk << amount
        )

    def shr(self, amount: int) -> "ScLogicVector":
        if amount < 0:
            raise ValueError("negative shift amount")
        return ScLogicVector._make(
            self.width, self.value >> amount, self.unk >> amount
        )

    def sar(self, amount: int) -> "ScLogicVector":
        if amount < 0:
            raise ValueError("negative shift amount")
        amount = min(amount, self.width - 1)
        mask = (1 << self.width) - 1
        sign_v = (self.value >> (self.width - 1)) & 1
        sign_u = (self.unk >> (self.width - 1)) & 1
        fill = (mask >> (self.width - amount) << (self.width - amount)) \
            if amount else 0
        value = (self.value >> amount) | (fill if sign_v else 0)
        unk = (self.unk >> amount) | (fill if sign_u else 0)
        return ScLogicVector._make(self.width, value, unk)

    # -- comparisons --------------------------------------------------------------------

    def _compare(self, other, op, signed: bool = False) -> "ScLogicVector":
        self._check_width(other)
        if self.unk | other.unk:
            return ScLogicVector._make(1, 0, 1)
        a, b = self.value, other.value
        if signed:
            half = 1 << (self.width - 1)
            a = a - (1 << self.width) if a >= half else a
            b = b - (1 << self.width) if b >= half else b
        return ScLogicVector._make(1, 1 if op(a, b) else 0, 0)

    def eq(self, other) -> "ScLogicVector":
        return self._compare(other, lambda a, b: a == b)

    def ne(self, other) -> "ScLogicVector":
        return self._compare(other, lambda a, b: a != b)

    def lt(self, other, signed=False) -> "ScLogicVector":
        return self._compare(other, lambda a, b: a < b, signed)

    def le(self, other, signed=False) -> "ScLogicVector":
        return self._compare(other, lambda a, b: a <= b, signed)

    def gt(self, other, signed=False) -> "ScLogicVector":
        return self._compare(other, lambda a, b: a > b, signed)

    def ge(self, other, signed=False) -> "ScLogicVector":
        return self._compare(other, lambda a, b: a >= b, signed)

    # -- structure --------------------------------------------------------------------------

    def slice(self, hi: int, lo: int) -> "ScLogicVector":
        if not (0 <= lo <= hi < self.width):
            raise IndexError(f"slice [{hi}:{lo}] out of range")
        return ScLogicVector._make(
            hi - lo + 1, self.value >> lo, self.unk >> lo
        )

    def concat(self, *others: "ScLogicVector") -> "ScLogicVector":
        width = self.width
        value = self.value
        unk = self.unk
        for other in others:
            width += other.width
            value = (value << other.width) | other.value
            unk = (unk << other.width) | other.unk
        return ScLogicVector._make(width, value, unk)

    def resize(self, width: int, signed: bool = False) -> "ScLogicVector":
        if width <= self.width:
            return ScLogicVector._make(width, self.value, self.unk)
        extra = width - self.width
        sign_v = (self.value >> (self.width - 1)) & 1 if signed else 0
        sign_u = (self.unk >> (self.width - 1)) & 1 if signed else 0
        fill = ((1 << extra) - 1) << self.width
        value = self.value | (fill if sign_v else 0)
        unk = self.unk | (fill if sign_u else 0)
        return ScLogicVector._make(width, value, unk)

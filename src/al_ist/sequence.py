"""Compactly supported sequences on the integer lattice with |q(n)| < 1."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

# Every lattice site a file or a job names lies in [-SITE_BOUND, SITE_BOUND]:
# numpy holds lattice exponents as int64, and 2^62 leaves room for the
# negated and shifted exponents that the transforms form.
SITE_BOUND = 2**62


@dataclass(frozen=True)
class Sequence:
    """Finitely supported map Z -> D; entries outside the block are zero.

    offset is the lattice index of values[0].
    """

    offset: int
    values: np.ndarray = field(compare=False)

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.complex128)
        if arr.ndim != 1:
            raise ValidationError("sequence values must be one-dimensional")
        # Written as "not below 1" so that NaN, for which every comparison
        # is False, is refused too.
        if arr.size and not np.max(np.abs(arr)) < 1.0:
            raise ValidationError("sequence entries must be finite with |q(n)| < 1")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "offset", int(self.offset))
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other):
        """Equal when both are the same map on Z: zero padding and the sign
        of a zero do not count."""
        if not isinstance(other, Sequence):
            return NotImplemented
        a, b = self.trimmed(), other.trimmed()
        return a.offset == b.offset and np.array_equal(a.values, b.values)

    def __hash__(self):
        t = self.trimmed()
        return hash((t.offset, (t.values + 0.0).tobytes()))  # + 0.0 turns -0 into +0

    def at(self, n: int) -> complex:
        j = n - self.offset
        if 0 <= j < len(self.values):
            return complex(self.values[j])
        return 0.0 + 0.0j

    def trimmed(self) -> "Sequence":
        """Drop zero entries at both ends of the stored block."""
        nz = np.flatnonzero(self.values)
        if nz.size == 0:
            return Sequence(0, np.zeros(0, dtype=np.complex128))
        return Sequence(self.offset + int(nz[0]), self.values[nz[0] : nz[-1] + 1])

    @property
    def is_zero(self) -> bool:
        return len(self.values) == 0 or not np.any(self.values)

    def support(self) -> tuple[int, int] | None:
        """(lo, hi) inclusive index range of nonzero entries, or None."""
        t = self.trimmed()
        if t.is_zero:
            return None
        return t.offset, t.offset + len(t.values) - 1

    def shifted(self, s: int) -> "Sequence":
        """The translate n -> q(n - s)."""
        return Sequence(self.offset + s, self.values)

    def reflected(self, center: int = 0) -> "Sequence":
        """The reflection n -> q(2 * center - n)."""
        return Sequence(2 * center - (self.offset + len(self.values) - 1), self.values[::-1])

    def conjugated(self) -> "Sequence":
        return Sequence(self.offset, np.conj(self.values))

    def windowed(self, lo: int, hi: int) -> "Sequence":
        """Restriction to lattice indices [lo, hi], zero outside."""
        if hi < lo:
            return Sequence(0, np.zeros(0, dtype=np.complex128))
        out = np.zeros(hi - lo + 1, dtype=np.complex128)
        a = max(lo, self.offset)
        b = min(hi, self.offset + len(self.values) - 1)
        if a <= b:
            out[a - lo : b - lo + 1] = self.values[a - self.offset : b - self.offset + 1]
        return Sequence(lo, out)

    def log_szego_product(self) -> float:
        """sum log(1 - |q(n)|^2), the log of the Szego product; 0 when empty."""
        return float(np.sum(np.log1p(-np.abs(self.values) ** 2)))

    def szego_product(self) -> float:
        """prod (1 - |q(n)|^2), accumulated in log space."""
        return math.exp(self.log_szego_product())

"""Exact fourth roots of unity, stored as the exponent of i modulo 4."""

from __future__ import annotations

from dataclasses import dataclass

_REPR = {0: "+1", 1: "+i", 2: "-1", 3: "-i"}


@dataclass(frozen=True)
class Phase:
    """A unit phase in {+1, +i, -1, -i}; multiplication adds exponents mod 4."""

    exp: int

    def __post_init__(self):
        object.__setattr__(self, "exp", self.exp % 4)

    @classmethod
    def i_power(cls, k: int) -> "Phase":
        return cls(k % 4)

    @classmethod
    def from_sign(cls, s: int) -> "Phase":
        if s == 1:
            return cls(0)
        if s == -1:
            return cls(2)
        raise ValueError(f"not a sign: {s}")

    def __mul__(self, other: "Phase") -> "Phase":
        return Phase(self.exp + other.exp)

    def conj(self) -> "Phase":
        return Phase(-self.exp)

    def __pow__(self, n: int) -> "Phase":
        return Phase(self.exp * n)

    def sign(self) -> int:
        """Return +1 or -1; raises if the phase is imaginary."""
        if self.exp == 0:
            return 1
        if self.exp == 2:
            return -1
        raise ValueError(f"phase {self} is not real")

    def __str__(self) -> str:
        return _REPR[self.exp]


ONE = Phase(0)
I = Phase(1)
MINUS_ONE = Phase(2)
MINUS_I = Phase(3)

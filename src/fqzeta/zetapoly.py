"""Exact coefficient vectors for the finite Dirichlet polynomials in t = q^-s."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ZetaPoly:
    """coeffs[i] counts the subalgebras (or ideals) of codimension i in F_q^n."""

    q: int
    coeffs: tuple[int, ...]

    @staticmethod
    def of(q: int, coeffs) -> "ZetaPoly":
        return ZetaPoly(q, tuple(int(c) for c in coeffs))

    def display(self) -> str:
        """Human form "1 + 3t + 7t^2 + t^3" with q substituted."""
        return _display(self.coeffs, "t")

    def __le__(self, other: "ZetaPoly") -> bool:
        return len(self.coeffs) == len(other.coeffs) and all(
            a <= b for a, b in zip(self.coeffs, other.coeffs))


def _display(coeffs, x: str) -> str:
    """Integer coefficients, low to high, as "1 + 3x + 7x^2 - x^3"."""
    out = ""
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        power = "" if i == 0 else x if i == 1 else f"{x}^{i}"
        digits = "" if abs(c) == 1 and power else str(abs(c))
        sign = ("-" if c < 0 else "") if not out else (" - " if c < 0 else " + ")
        out += sign + digits + power
    return out or "0"

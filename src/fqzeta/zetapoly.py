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
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                t = "t" if i == 1 else f"t^{i}"
                parts.append(t if c == 1 else f"{c}{t}")
        return " + ".join(parts) if parts else "0"

    def __le__(self, other: "ZetaPoly") -> bool:
        return len(self.coeffs) == len(other.coeffs) and all(
            a <= b for a, b in zip(self.coeffs, other.coeffs))

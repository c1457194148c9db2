"""Compact domains over which deviations are measured.

``simplex(d)``   : x_i >= 0, sum x_i <= 1
``ball(d)``      : ||x|| <= 1
``sphere(d-1)``  : ||x|| = 1, as a subset of R^d
``simplex_face(d)``: the face {x in simplex(d) : sum x_i = 1}, parameterized
by the first d-1 coordinates (x_d = 1 - sum of the others).
"""

from __future__ import annotations

from dataclasses import dataclass

SIMPLEX = "simplex"
BALL = "ball"
SPHERE = "sphere"
SIMPLEX_FACE = "simplex_face"

_KINDS = (SIMPLEX, BALL, SPHERE, SIMPLEX_FACE)


@dataclass(frozen=True)
class Domain:
    kind: str
    dimension: int  # ambient variable count d (sphere(d-1) lives in R^d)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if self.dimension < 1:
            raise ValueError(f"domain dimension must be positive, got {self.dimension}")

    @property
    def nvars(self) -> int:
        """Number of polynomial variables used on this domain."""
        if self.kind == SIMPLEX_FACE:
            return self.dimension - 1
        return self.dimension

    def contains(self, point, tol: float = 1e-12) -> bool:
        """True iff ``point`` has nvars coordinates and lies within tol of the domain."""
        xs = [float(v) for v in point]
        if len(xs) != self.nvars:
            return False
        if self.kind == SIMPLEX:
            return all(v >= -tol for v in xs) and sum(xs) <= 1 + tol
        if self.kind == BALL:
            return sum(v * v for v in xs) <= 1 + tol
        if self.kind == SPHERE:
            return abs(sum(v * v for v in xs) - 1) <= tol
        last = 1 - sum(xs)
        return all(v >= -tol for v in xs) and last >= -tol

    def label(self) -> str:
        if self.kind == SPHERE:
            return f"sphere({self.dimension - 1})"
        return f"{self.kind}({self.dimension})"


def simplex(d: int) -> Domain:
    return Domain(SIMPLEX, d)


def ball(d: int) -> Domain:
    return Domain(BALL, d)


def sphere(ambient_d: int) -> Domain:
    """The unit sphere in R^ambient_d (i.e. S^{ambient_d - 1})."""
    return Domain(SPHERE, ambient_d)


def simplex_face(d: int) -> Domain:
    return Domain(SIMPLEX_FACE, d)


def domain_from_label(label: str) -> Domain:
    name, _, rest = label.partition("(")
    dim = int(rest.rstrip(")"))
    if name == SPHERE:
        return sphere(dim + 1)
    return Domain(name, dim)

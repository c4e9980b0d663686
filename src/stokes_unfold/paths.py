"""Piecewise contour paths in the complex plane: line segments and arcs.

A segment's ``point`` takes the parameter s in [0, 1] as a float or as an array of
floats, and returns a complex of the same shape.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import PathError

CONTINUITY_TOL = 1e-12
_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Line:
    start: complex
    end: complex

    @property
    def length(self) -> float:
        return abs(self.end - self.start)

    def point(self, s):
        return self.start + s * (self.end - self.start)

    def min_distance(self, z: complex) -> float:
        d = self.end - self.start
        if d == 0:
            return abs(z - self.start)
        t = ((z - self.start) * d.conjugate()).real / abs(d) ** 2
        t = min(1.0, max(0.0, t))
        return abs(z - self.point(t))


@dataclass(frozen=True)
class Arc:
    """Circular arc, traversed linearly in angle (may span several turns)."""

    center: complex
    radius: float
    angle_start: float
    angle_end: float

    @property
    def length(self) -> float:
        return abs(self.angle_end - self.angle_start) * self.radius

    def _angle(self, s):
        return self.angle_start + s * (self.angle_end - self.angle_start)

    def point(self, s):
        return self.center + self.radius * np.exp(1j * self._angle(s))

    def min_distance(self, z: complex) -> float:
        rho = abs(z - self.center)
        lo = min(self.angle_start, self.angle_end)
        hi = max(self.angle_start, self.angle_end)
        if hi - lo >= _TWO_PI - 1e-12:
            return abs(rho - self.radius)
        phi = cmath.phase(z - self.center)
        k = math.floor((lo - phi) / _TWO_PI)
        for j in (k, k + 1, k + 2):
            if lo - 1e-12 <= phi + _TWO_PI * j <= hi + 1e-12:
                return abs(rho - self.radius)
        return min(abs(z - self.point(0.0)), abs(z - self.point(1.0)))


class ContourPath:
    """Ordered chain of segments whose endpoints match to 1e-12."""

    def __init__(self, segments):
        segs = list(segments)
        if not segs:
            raise PathError("a contour path needs at least one segment")
        for prev, cur in zip(segs, segs[1:]):
            if abs(prev.point(1.0) - cur.point(0.0)) > CONTINUITY_TOL:
                raise PathError("consecutive segments do not share endpoints")
        self.segments = segs

    def __iter__(self):
        return iter(self.segments)

    @property
    def start(self) -> complex:
        return self.segments[0].point(0.0)

    @property
    def end(self) -> complex:
        return self.segments[-1].point(1.0)

    @property
    def length(self) -> float:
        return sum(s.length for s in self.segments)

    def min_distance(self, z: complex) -> float:
        return min(s.min_distance(complex(z)) for s in self.segments)

    def reversed(self) -> "ContourPath":
        out = []
        for s in reversed(self.segments):
            if isinstance(s, Line):
                out.append(Line(s.end, s.start))
            else:
                out.append(Arc(s.center, s.radius, s.angle_end, s.angle_start))
        return ContourPath(out)


def circle(center, radius, angle_start: float = 0.0, turns: float = 1.0) -> ContourPath:
    """Closed (or partial) circular loop; positive turns run counterclockwise."""
    return ContourPath(
        [Arc(complex(center), float(radius), float(angle_start), float(angle_start) + _TWO_PI * turns)]
    )


def polyline(*points) -> ContourPath:
    pts = [complex(p) for p in points]
    if len(pts) < 2:
        raise PathError("a polyline needs at least two points")
    return ContourPath([Line(a, b) for a, b in zip(pts, pts[1:])])


def concat(*paths) -> ContourPath:
    segs = []
    for p in paths:
        segs.extend(p.segments)
    return ContourPath(segs)

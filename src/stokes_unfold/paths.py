"""Piecewise contour paths in the complex plane: line segments and arcs.

A segment's ``point`` takes the parameter s in [0, 1] as a float or as an array of
floats, and returns a complex of the same shape.
"""

from __future__ import annotations

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

    def reversed(self) -> "ContourPath":
        out = []
        for s in reversed(self.segments):
            if isinstance(s, Line):
                out.append(Line(s.end, s.start))
            else:
                out.append(Arc(s.center, s.radius, s.angle_end, s.angle_start))
        return ContourPath(out)


def circle(center, radius, angle_start: float = 0.0) -> ContourPath:
    """Closed counterclockwise circular loop starting at ``angle_start``."""
    return ContourPath([Arc(complex(center), float(radius), float(angle_start), float(angle_start) + _TWO_PI)])


def polyline(*points) -> ContourPath:
    pts = [complex(p) for p in points]
    if len(pts) < 2:
        raise PathError("a polyline needs at least two points")
    return ContourPath([Line(a, b) for a, b in zip(pts, pts[1:])])

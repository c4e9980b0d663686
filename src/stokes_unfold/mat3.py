"""Dense 3x3 complex-matrix helpers.

Everything here is closed form: the determinant with a scale-aware
singularity threshold, and the first-row nilpotent exponential (T^2 = 0)
of the unfolded Stokes matrices.
"""

from __future__ import annotations

import numpy as np

from .errors import MatrixShapeError, SingularMatrixError

SINGULARITY_RTOL = 1e-13

_NILPOTENT_MASK = np.ones((3, 3), dtype=bool)
_NILPOTENT_MASK[0, 1] = _NILPOTENT_MASK[0, 2] = False


def as_matrix3(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.shape != (3, 3):
        raise MatrixShapeError(f"expected a 3x3 matrix, got shape {a.shape}")
    return a


def identity3() -> np.ndarray:
    return np.eye(3, dtype=complex)


def max_abs(m) -> float:
    """Entrywise max-norm."""
    return float(np.abs(np.asarray(m)).max())


def det3(m) -> complex:
    a = as_matrix3(m)
    return complex(
        a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
        - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
        + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0])
    )


def invertible_det3(m) -> complex:
    """det of a matrix the package may invert.

    Raises SingularMatrixError when |det| <= 1e-13 (max row sum)^3, so the
    threshold tracks the scale of the input.
    """
    a = as_matrix3(m)
    d = det3(a)
    row_norm = float(np.max(np.sum(np.abs(a), axis=1)))
    if abs(d) <= SINGULARITY_RTOL * row_norm**3:
        raise SingularMatrixError(f"determinant modulus {abs(d):.3e} below threshold")
    return d


def exp_first_row_nilpotent(t, scale=1.0) -> np.ndarray:
    """exp(scale * T) = I + scale T, exact because T^2 = 0.

    T may be nonzero only at entries (1,2) and (1,3) (0-based (0,1), (0,2)).
    """
    a = as_matrix3(t)
    if np.any(a[_NILPOTENT_MASK] != 0):
        raise MatrixShapeError("matrix is not supported on the first-row entries (1,2), (1,3)")
    return identity3() + complex(scale) * a

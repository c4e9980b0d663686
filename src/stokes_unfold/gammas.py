"""Complex Gamma function and relatives.

Lanczos approximation (g = 7, nine coefficients, the standard published
set) with the reflection formula for Re z < 1/2.  Accurate to better than
1e-12 relative on |z| <= 50 away from the poles, which is all the closed
forms downstream need; arbitrary precision is out of scope.
"""

from __future__ import annotations

import cmath
import math

from .errors import GammaPoleError

POLE_TOLERANCE = 1e-9

# Bernoulli numbers B_0, B_2, ..., B_24 as (numerator, denominator); B_1 = -1/2 and the odd
# ones beyond vanish.  Every Stirling-type series in the package takes its coefficients from here.
BERNOULLI_EVEN = (
    (1, 1), (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6), (-3617, 510),
    (43867, 798), (-174611, 330), (854513, 138), (-236364091, 2730),
)

_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _lanczos(z: complex) -> complex:
    # valid for Re z >= 0.5
    z = z - 1.0
    acc = _LANCZOS[0]
    for i in range(1, len(_LANCZOS)):
        acc += _LANCZOS[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * cmath.exp(-t) * acc


def gamma(z) -> complex:
    """Gamma(z) for complex z.

    Raises GammaPoleError within 1e-9 of a non-positive integer; use
    reciprocal_gamma there instead.
    """
    z = complex(z)
    k = round(z.real)
    if k <= 0 and abs(z - k) < POLE_TOLERANCE:
        raise GammaPoleError(f"Gamma has a pole at {k}; z = {z}")
    if z.real < 0.5:
        return math.pi / (cmath.sin(math.pi * z) * _lanczos(1.0 - z))
    return _lanczos(z)


def reciprocal_gamma(z) -> complex:
    """1/Gamma(z), entire, with exact zeros at 0, -1, -2, ...

    The zeros are exact because sin(pi z) carries them in the reflected
    representation and integer input short-circuits to 0.
    """
    z = complex(z)
    if z.imag == 0.0 and z.real == round(z.real) and z.real <= 0.0:
        return 0j
    if z.real < 0.5:
        return cmath.sin(math.pi * z) * _lanczos(1.0 - z) / math.pi
    return 1.0 / _lanczos(z)


def rising_factorial(nu, n: int) -> complex:
    """nu (nu+1) ... (nu+n-1), with the empty product equal to 1.

    The explicit product propagates the exact zeros of the terminating
    cases (nu a non-positive integer), which the Gamma-ratio form cannot.
    """
    if n < 0:
        raise ValueError("rising_factorial needs n >= 0")
    nu = complex(nu)
    acc = 1.0 + 0j
    for k in range(n):
        acc *= nu + k
    return acc

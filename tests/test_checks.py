"""The property suite behind ``stokes-unfold check``, run once at the CLI's
default seed 0.

``checks.ALL_CHECKS`` is the single statement of each shipped property; the
other test files keep what a check does not cover (error types, edge inputs,
the CLI, and cases stronger than a check's bound), plus two parametrized tests
whose per-case ids stay (the closed-form Stokes jumps in ``test_borel.py`` and
the exact series residual in ``test_series.py``).  A new property goes into
``ALL_CHECKS``, not into a test.
"""

import inspect

import numpy as np
import pytest

from stokes_unfold import checks, gammas


@pytest.fixture(scope="module")
def results():
    return checks.run_checks(seed=0)


@pytest.mark.parametrize(
    "index", range(len(checks.ALL_CHECKS)), ids=[fn.__name__ for _, fn in checks.ALL_CHECKS]
)
def test_property(results, index):
    r = results[index]
    assert r.passed, f"{r.module}.{r.name}: {r.detail}"


def test_registry_runs_every_check_once(results):
    defined = sorted(name for name, obj in vars(checks).items()
                     if name.startswith("check_") and inspect.isfunction(obj))
    listed = [fn.__name__ for _, fn in checks.ALL_CHECKS]
    assert sorted(listed) == defined
    assert len({r.name for r in results}) == len(results) == len(checks.ALL_CHECKS) == 28


def test_batched_nu_draws_are_the_scalar_draws():
    # the checks draw their nu in batches; the numbers, and where the stream stands after
    # them, are those of the scalar rejection loop, transcribed, one uniform pair at a time
    def scalar_nu(rng, scale, keep_clear_of_integers):
        while True:
            z = complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))
            if abs(z) > scale:
                continue
            if keep_clear_of_integers and abs(z.real - round(z.real)) < 0.05 and abs(z.imag) < 0.05:
                continue
            return z

    for seed in range(20):
        for count, scale, clear in ((500, 20.0, True), (1, 5.0, True), (60, 3.0, False)):
            batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
            if count == 1:
                drawn = [checks._random_nu(batched, scale, clear)]
            else:
                drawn = checks._random_nus(batched, count, scale, clear)
            assert drawn == [scalar_nu(scalar, scale, clear) for _ in range(count)]
            assert batched.random() == scalar.random()


def test_a_lanczos_error_fails_the_recurrence_check(monkeypatch):
    # gamma_reflection and reciprocal_product each cancel the one Lanczos evaluation that
    # their two factors share, so an error in the Lanczos sum itself shows only where it is
    # evaluated at two arguments, z and z + 1; a relative error of 1e-6 z moves that ratio by 1e-6
    lanczos = gammas._lanczos
    monkeypatch.setattr(gammas, "_lanczos", lambda z: lanczos(z) * (1.0 + 1e-6 * z))
    passed, detail = checks.check_gamma_recurrence(np.random.default_rng(0))
    assert not passed, detail

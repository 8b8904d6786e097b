"""Shared fixtures and independent test oracles.

The oracles here are deliberately separate from the package's own code
paths: pi comes from a scaled-integer Machin evaluation, gamma and digamma
references come from mpmath's builtin implementations (Brent-McMillan and
its own psi), which the package itself never calls.  :func:`fresh_python`
runs a new interpreter, for checks that need modules not yet imported.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from psiq import EvalContext, is_pole


SRC = Path(__file__).resolve().parent.parent / "src"


def fresh_python(*args: str) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a new interpreter that imports psiq from src/.

    COLUMNS is fixed at 80, the width argparse wraps ``-h`` text to.
    """
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=path, COLUMNS="80"),
        capture_output=True,
        check=False,
    )


@pytest.fixture(scope="session")
def ctx30() -> EvalContext:
    return EvalContext(30)


@pytest.fixture(scope="session")
def ctx50() -> EvalContext:
    return EvalContext(50)


@pytest.fixture(scope="session")
def ctx60() -> EvalContext:
    return EvalContext(60)


def mp_reference(dps: int = 80):
    """A private mpmath context for reference values."""
    ctx = mpmath.mp.clone()
    ctx.dps = dps
    return ctx


def reference_digamma(r: Fraction, dps: int = 80):
    """Independent digamma oracle: mpmath's own implementation."""
    m = mp_reference(dps)
    return m.digamma(m.mpf(r.numerator) / r.denominator)


def machin_pi(digits: int):
    """pi by Machin's formula in scaled-integer arithmetic.

    Returns (value, scale) with value/scale = pi to within a few parts in
    10^-(digits+8); fully independent of mpmath's pi.
    """
    scale = 10 ** (digits + 10)

    def arctan_inv(x: int) -> int:
        total = 0
        power = x
        k = 0
        while True:
            term = scale // ((2 * k + 1) * power)
            if term == 0:
                break
            total += -term if k % 2 else term
            power *= x * x
            k += 1
        return total

    return 16 * arctan_inv(5) - 4 * arctan_inv(239), scale


def random_rationals(
    count: int,
    *,
    max_abs: int = 10,
    max_denominator: int = 24,
    seed: int = 20260809,
) -> list[Fraction]:
    """Deterministic sample of distinct non-pole rationals."""
    rng = random.Random(seed)
    out: list[Fraction] = []
    seen: set[Fraction] = set()
    while len(out) < count:
        den = rng.randint(1, max_denominator)
        num = rng.randint(-max_abs * den, max_abs * den)
        r = Fraction(num, den)
        if r in seen or is_pole(r):
            continue
        seen.add(r)
        out.append(r)
    return out

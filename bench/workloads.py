"""Seeded inputs for the four workloads.

A workload is a sequence of rounds.  A round holds one operation from each
stratum of the workload's input range, in seeded order, so every round has
the same mix of costs: the seed moves values inside their strata, not the
cost profile, and medians agree from seed to seed.  The ranges are narrow
enough (costs within a factor of about 1.7) that most operations of a run
lie near its median, which then moves little with the machine's speed.  Round k of seed s is
drawn from its own generator, so any process can rebuild it from (s, k).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

WORKLOADS = ("tabulate", "precision", "exact", "sweep")

# tabulate: distinct p/q + k, q in [2000, 3500), k in [1, 3], at 50 digits
TABULATE_DIGITS = 50
TABULATE_Q = (2000, 3500)
TABULATE_ROUND = 24

# precision: small p/q + k, q in [2, 12], k in [0, 2], D in [400, 480)
PRECISION_D = (400, 480)
PRECISION_ROUND = 8

# exact: n + p/q, q in {3, 4}, n in [10000, 14000); the cost of the shift
# grows with q as well as n, so q stays in a narrow band
EXACT_N = (10000, 14000)
EXACT_ROUND = 4

# sweep: compare and errata twice per round, at D in [50, 54] and in
# [55, 60], and table-check once at D in [50, 60].  qmax is fixed because the
# sweeps' cost grows steeply with it, and a round whose cost varied would
# move the median with the seed.  The three commands' costs lie apart
# (table-check < compare < errata), so the median falls inside the compare
# operations and the tail inside the errata operations.
SWEEP_DIGITS = ((50, 54), (55, 60))
SWEEP_COMPARE_QMAX = 20
SWEEP_ERRATA_QMAX = 30


def _rng(workload: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_index}")


def _coprime_numerator(rng: random.Random, q: int) -> int:
    while True:
        p = rng.randrange(1, q)
        if math.gcd(p, q) == 1:
            return p


def _strata(lo: int, hi: int, count: int, rng: random.Random) -> list[int]:
    """One value drawn uniformly from each of ``count`` equal slices of [lo, hi)."""
    width = (hi - lo) // count
    return [rng.randrange(lo + i * width, lo + (i + 1) * width) for i in range(count)]


def arg_text(r: Fraction) -> str:
    return f"{r.numerator}/{r.denominator}"


def tabulate_round(seed: int, round_index: int) -> list[Fraction]:
    """Arguments p/q + k with distinct q, one per denominator stratum."""
    rng = _rng("tabulate", seed, round_index)
    out = []
    for q in _strata(*TABULATE_Q, TABULATE_ROUND, rng):
        out.append(Fraction(_coprime_numerator(rng, q), q) + rng.randint(1, 3))
    rng.shuffle(out)
    return out


def precision_round(seed: int, round_index: int) -> list[tuple[Fraction, int]]:
    """(argument, digits) pairs, one per digit-count stratum."""
    rng = _rng("precision", seed, round_index)
    out = []
    for digits in _strata(*PRECISION_D, PRECISION_ROUND, rng):
        q = rng.randrange(2, 13)
        out.append((Fraction(_coprime_numerator(rng, q), q) + rng.randrange(0, 3), digits))
    rng.shuffle(out)
    return out


def exact_round(seed: int, round_index: int) -> list[Fraction]:
    """Arguments n + p/q, one per shift stratum."""
    rng = _rng("exact", seed, round_index)
    out = []
    for n in _strata(*EXACT_N, EXACT_ROUND, rng):
        q = rng.choice((3, 4))
        out.append(n + Fraction(_coprime_numerator(rng, q), q))
    rng.shuffle(out)
    return out


def sweep_round(seed: int, round_index: int) -> list[tuple[str, int, int]]:
    """(command, qmax, digits) triples; qmax is 0 for table-check."""
    rng = _rng("sweep", seed, round_index)
    out = []
    for band in SWEEP_DIGITS:
        out.append(("compare", SWEEP_COMPARE_QMAX, rng.randint(*band)))
        out.append(("errata", SWEEP_ERRATA_QMAX, rng.randint(*band)))
    out.append(("table-check", 0, rng.randint(SWEEP_DIGITS[0][0], SWEEP_DIGITS[-1][1])))
    rng.shuffle(out)
    return out


def cli_argv(workload: str, op) -> list[str]:
    """The psiq command line of one operation of a CLI workload."""
    if workload == "precision":
        r, digits = op
        return ["eval", arg_text(r), "--digits", str(digits)]
    if workload == "exact":
        return ["exact", arg_text(op)]
    command, qmax, digits = op
    argv = [command, "--digits", str(digits), "--format", "json"]
    if qmax:
        argv += ["--qmax", str(qmax)]
    return argv


ROUNDS = {
    "tabulate": tabulate_round,
    "precision": precision_round,
    "exact": exact_round,
    "sweep": sweep_round,
}

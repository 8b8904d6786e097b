import hashlib
import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from psiq import (
    EvalContext,
    PoleError,
    ShiftDecomposition,
    eval_closed_form,
    is_pole,
    log_sin,
    oracle_psi_asymptotic,
    parse_rational,
    pi_cot,
    psi_closed,
    shift_decompose,
)
from psiq.numerics import comparison_tolerance
from psiq.rationals import _LEAF, _reciprocal_sum, upward_sum

from conftest import random_rationals


def sequential_shift(r: Fraction) -> ShiftDecomposition:
    """The shift decomposition summed one Fraction at a time, the reference
    for the binary-splitting sum in ``shift_decompose``."""
    if 0 < r <= 1:
        return ShiftDecomposition(base=r, correction=Fraction(0), step_count=0)
    if r > 1:
        n = math.ceil(r) - 1
        base = r - n
        correction = sum((Fraction(1, 1) / (base + k) for k in range(n)), Fraction(0))
        return ShiftDecomposition(base=base, correction=correction, step_count=n)
    n = math.ceil(-r)
    correction = -sum((Fraction(1, 1) / (r + k) for k in range(n)), Fraction(0))
    return ShiftDecomposition(base=r + n, correction=correction, step_count=n)


def harmonic_via_shift(n: int) -> Fraction:
    """H_n as the correction of psi(n + 1) = psi(1) + H_n."""
    return shift_decompose(Fraction(n + 1)).correction


def direct_harmonic(n: int) -> Fraction:
    return sum((Fraction(1, k) for k in range(1, n + 1)), Fraction(0))


class TestReduce:
    """A parsed rational is in lowest terms with the sign on the numerator."""

    def test_gcd_cancellation(self):
        r = parse_rational("2/4")
        assert (r.numerator, r.denominator) == (1, 2)

    def test_already_reduced(self):
        assert parse_rational("-7/3") == Fraction(-7, 3)

    def test_sign_normalization(self):
        r = parse_rational("-6/4")
        assert r == Fraction(6, -4) == Fraction(-3, 2)
        assert r.denominator == 2 and r.numerator == -3

    def test_zero_denominator(self):
        with pytest.raises(ValueError, match="undefined rational"):
            parse_rational("1/0")
        with pytest.raises(ZeroDivisionError):
            Fraction(1, 0)

    @given(st.integers(-10**9, 10**9), st.integers(1, 10**6))
    def test_reduce_idempotent(self, num, den):
        r = parse_rational(f"{num}/{den}")
        assert r == Fraction(num, den)
        assert parse_rational(f"{r.numerator}/{r.denominator}") == r
        assert math.gcd(r.numerator, r.denominator) == 1


class TestParse:
    @pytest.mark.parametrize(
        "text,expected",
        [("-7/3", Fraction(-7, 3)), ("1/2", Fraction(1, 2)), ("4", Fraction(4)),
         ("-1", Fraction(-1)), (" 6/4 ", Fraction(3, 2)), ("0", Fraction(0))],
    )
    def test_valid(self, text, expected):
        assert parse_rational(text) == expected

    @pytest.mark.parametrize("text", ["", "abc", "1/2/3", "1.5", "--1", "1/-2", "/3"])
    def test_malformed(self, text):
        with pytest.raises(ValueError, match="malformed rational"):
            parse_rational(text)

    def test_zero_denominator(self):
        with pytest.raises(ValueError, match="undefined rational"):
            parse_rational("7/0")


class TestClassify:
    """is_pole sorts arguments into the poles 0, -1, -2, ... and the rest."""

    @pytest.mark.parametrize(
        "r,pole",
        [
            (Fraction(0), True),
            (Fraction(-3), True),
            (Fraction(1), False),
            (Fraction(2), False),
            (Fraction(1, 2), False),
            (Fraction(7, 3), False),
            (Fraction(-7, 3), False),
            (0, True),
            (3, False),
        ],
    )
    def test_examples(self, r, pole):
        assert is_pole(r) is pole

    @given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
    def test_depends_only_on_value(self, num, den):
        assert is_pole(parse_rational(f"{num}/{den}")) is is_pole(
            parse_rational(f"{3 * num}/{3 * den}")
        )

    @given(st.fractions(min_value=-100, max_value=100, max_denominator=50))
    def test_exhaustive_and_exclusive(self, r):
        assert is_pole(r) == (r.denominator == 1 and r <= 0)
        if is_pole(r):
            with pytest.raises(PoleError):
                shift_decompose(r)
        else:
            assert 0 < shift_decompose(r).base <= 1


    @pytest.mark.parametrize(
        "entry",
        [
            psi_closed,
            shift_decompose,
            lambda r: oracle_psi_asymptotic(r, EvalContext(30)),
            log_sin,
            pi_cot,
        ],
        ids=["psi_closed", "shift_decompose", "oracle_psi_asymptotic", "log_sin", "pi_cot"],
    )
    @pytest.mark.parametrize("r", [0.5, True, False, Decimal("0.5"), "1/2"], ids=repr)
    def test_entry_points_reject_non_rationals(self, entry, r):
        # a bool is an int to isinstance, and a float has no denominator
        with pytest.raises(ValueError, match="must be an int or a Fraction") as info:
            entry(r)
        assert not isinstance(info.value, PoleError)

    def test_int_argument_accepted(self):
        assert psi_closed(3) == psi_closed(Fraction(3))


class TestShiftDecompose:
    def test_seven_thirds(self):
        sd = shift_decompose(Fraction(7, 3))
        assert sd.base == Fraction(1, 3)
        assert sd.correction == Fraction(15, 4)
        assert sd.step_count == 2

    def test_negative_seven_thirds(self):
        sd = shift_decompose(Fraction(-7, 3))
        assert sd.base == Fraction(2, 3)
        assert sd.correction == Fraction(117, 28)
        assert sd.step_count == 3

    def test_identity_on_unit_interval(self):
        sd = shift_decompose(Fraction(1, 2))
        assert (sd.base, sd.correction, sd.step_count) == (Fraction(1, 2), 0, 0)

    def test_one_is_its_own_base(self):
        sd = shift_decompose(Fraction(1))
        assert (sd.base, sd.correction, sd.step_count) == (Fraction(1), 0, 0)

    def test_positive_integer_gives_harmonic_correction(self):
        sd = shift_decompose(Fraction(5))
        assert sd.base == 1
        assert sd.correction == direct_harmonic(4) == Fraction(25, 12)
        assert sd.step_count == 4

    def test_pole_rejected(self):
        with pytest.raises(PoleError):
            shift_decompose(Fraction(-2))

    @settings(deadline=None)
    @given(st.fractions(min_value=-2000, max_value=2000, max_denominator=60))
    def test_base_in_unit_interval_and_consistent(self, r):
        if is_pole(r):
            return
        sd = shift_decompose(r)
        assert 0 < sd.base <= 1
        assert sd.step_count >= 0
        # the base differs from the input by exactly step_count unit shifts
        assert abs(r - sd.base) == sd.step_count
        # base, step count and the reduced correction of the defining sum
        assert sd == sequential_shift(r)

    @pytest.mark.parametrize("offset", [Fraction(1, 2), Fraction(7, 12), Fraction(1)])
    def test_every_step_count_to_300_matches_sequential_sum(self, offset):
        for n in range(301):
            for r in (offset + n, -offset - n):
                if r <= 0 and r.denominator == 1:
                    continue  # pole
                sd = shift_decompose(r)
                assert sd == sequential_shift(r), r
                assert sd.step_count == (n if r > 0 else n + 1)

    def test_defining_identity_numerically(self, ctx30):
        tol = comparison_tolerance(ctx30)
        for r in random_rationals(30, seed=4207):
            sd = shift_decompose(r)
            lhs = eval_closed_form(psi_closed(r), ctx30)
            rhs = eval_closed_form(psi_closed(sd.base), ctx30) + ctx30.from_fraction(
                sd.correction
            )
            assert abs(lhs - rhs) < tol


def digest(r: Fraction) -> str:
    return hashlib.sha256(f"{r.numerator:x}/{r.denominator:x}".encode()).hexdigest()


class TestUpwardSum:
    @settings(deadline=None)
    @given(
        st.fractions(min_value=-3000, max_value=3000, max_denominator=60),
        st.integers(0, 2000) | st.sampled_from([_LEAF - 1, _LEAF, _LEAF + 1, 2 * _LEAF + 1]),
    )
    def test_matches_sequential_sum(self, x, n):
        assume(not (x.denominator == 1 and x <= 0 and n > -x))  # a 1/0 term
        assert upward_sum(x, n) == sum((1 / (x + k) for k in range(n)), Fraction(0))

    # sha256 of the reduced sums as the earlier product-merging splitting gave them
    @pytest.mark.parametrize(
        "total,expected",
        [
            (
                lambda: upward_sum(Fraction(1, 3), 10**5),
                "78958dfee80e95d68475f3b1c21ab31bc68c26c8eef9b64357baa79e14804c23",
            ),
            (
                lambda: shift_decompose(Fraction(-400001, 4)).correction,
                "4828818989b692e0e58f8452aefa99c55b79baebb236d05a518f5b60750d1aea",
            ),
        ],
        ids=["from_1_3_by_1e5", "from_-400001_4_to_3_4"],
    )
    def test_large_shifts_match_pinned_digests(self, total, expected):
        assert digest(total()) == expected

    def test_top_denominator_is_near_the_reduced_one(self):
        # merging halves by the plain product gives 134,298 bits here
        reduced = upward_sum(Fraction(1, 3), 10**4).denominator
        assert reduced.bit_length() == 32445
        _, q = _reciprocal_sum(1, 3, 0, 10**4)
        assert q.bit_length() - reduced.bit_length() <= 64


class TestHarmonic:
    """H_n = 1 + 1/2 + ... + 1/n through ``harmonic_via_shift``."""

    def test_first_values(self):
        assert harmonic_via_shift(1) == Fraction(1)
        assert harmonic_via_shift(3) == Fraction(11, 6)

    def test_h10_against_direct_sum(self):
        assert direct_harmonic(10) == Fraction(7381, 2520)
        for n in range(101):
            assert harmonic_via_shift(n) == direct_harmonic(n)

    def test_difference_property(self):
        for n in range(2, 101):
            assert harmonic_via_shift(n) - harmonic_via_shift(n - 1) == Fraction(1, n)

    def test_requires_positive(self):
        assert harmonic_via_shift(0) == 0
        with pytest.raises(ValueError):
            harmonic_via_shift(-1)  # psi(0) is a pole

import math
import random
import sys
import threading
from fractions import Fraction

import mpmath
import pytest

from psiq import numerics
from psiq import (
    EvalContext,
    bernoulli_even,
    const_gamma,
    const_pi,
    eval_closed_form,
    format_decimal,
    oracle_psi_asymptotic,
    oracle_psi_series,
    psi_closed,
)
from psiq.closedform import ClosedForm
from psiq.numerics import comparison_tolerance
from psiq.rationals import PoleError

from conftest import machin_pi, mp_reference, random_rationals, reference_digamma

# first ten even-index Bernoulli numbers from the standard tables
BERNOULLI_TABLE = [
    Fraction(1, 6),
    Fraction(-1, 30),
    Fraction(1, 42),
    Fraction(-1, 30),
    Fraction(5, 66),
    Fraction(-691, 2730),
    Fraction(7, 6),
    Fraction(-3617, 510),
    Fraction(43867, 798),
    Fraction(-174611, 330),
]


def recurrence_bernoulli(m_max: int) -> list[Fraction]:
    """B_0..B_{m_max} by the binomial recurrence
    B_m = -1/(m+1) sum_{j<m} C(m+1, j) B_j, an independent reference."""
    b = [Fraction(1)]
    for m in range(1, m_max + 1):
        b.append(-sum((math.comb(m + 1, j) * b[j] for j in range(m)), Fraction(0)) / (m + 1))
    return b


def mpmath_bernoulli_even(k: int) -> Fraction:
    return Fraction(*(int(part) for part in mpmath.bernfrac(2 * k)))


@pytest.fixture
def cleared_bernoulli():
    """Start from an empty Bernoulli cache; later requests refill it."""
    with numerics._bernoulli_lock:
        numerics._bernoulli.clear()


class TestEvalContext:
    def test_minimum_digits(self):
        with pytest.raises(ValueError):
            EvalContext(14)

    def test_guard_digits(self):
        ctx = EvalContext(20)
        assert ctx.workdps == 35

    def test_contexts_shared_per_precision(self):
        assert EvalContext(30).mp is EvalContext(30).mp


class TestConstants:
    def test_pi_strings(self):
        assert format_decimal(const_pi(EvalContext(15)), 15) == "3.14159265358979"
        assert (
            format_decimal(const_pi(EvalContext(30)), 30)
            == "3.14159265358979323846264338328"
        )

    def test_pi_against_machin(self, ctx50):
        value, scale = machin_pi(50)
        independent = ctx50.mp.mpf(value) / scale
        assert abs(const_pi(ctx50) - independent) < ctx50.mp.mpf(10) ** -48

    def test_gamma_strings(self):
        assert format_decimal(const_gamma(EvalContext(15)), 15) == "0.577215664901533"
        assert (
            format_decimal(const_gamma(EvalContext(39)), 39)
            == "0.577215664901532860606512090082402431042"
        )

    def test_gamma_against_series_accelerated_method(self, ctx50):
        independent = +mp_reference(70).euler  # Brent-McMillan inside mpmath
        assert abs(const_gamma(ctx50) - independent) < ctx50.mp.mpf(10) ** -45

    def test_gamma_thousand_digits_against_mpmath(self):
        ctx = EvalContext(1000)
        independent = +mp_reference(1030).euler
        assert abs(const_gamma(ctx) - independent) < ctx.mp.mpf(10) ** -990


class TestBernoulli:
    def test_first_even_values(self):
        assert bernoulli_even(1) == Fraction(1, 6)
        assert bernoulli_even(2) == Fraction(-1, 30)
        assert bernoulli_even(5) == Fraction(5, 66)

    def test_first_ten_tabulated(self):
        assert [bernoulli_even(k) for k in range(1, 11)] == BERNOULLI_TABLE

    def test_requires_positive_index(self):
        with pytest.raises(ValueError):
            bernoulli_even(0)

    def test_matches_mpmath_up_to_b800(self):
        assert all(bernoulli_even(k) == mpmath_bernoulli_even(k) for k in range(1, 401))

    def test_matches_binomial_recurrence_up_to_b120(self):
        reference = recurrence_bernoulli(120)
        assert [bernoulli_even(k) for k in range(1, 61)] == reference[2:121:2]

    def test_large_request_first(self, cleared_bernoulli):
        high, low = bernoulli_even(300), bernoulli_even(3)
        assert (high, low) == (mpmath_bernoulli_even(300), Fraction(1, 42))

    def test_ascending_requests_from_empty_cache(self, cleared_bernoulli):
        values = [bernoulli_even(k) for k in range(1, 301)]
        assert values == [mpmath_bernoulli_even(k) for k in range(1, 301)]

    def test_concurrent_requests_agree(self, cleared_bernoulli):
        ks = list(range(1, 301, 7)) + [300, 1, 150]
        results: list[list[Fraction]] = [[] for _ in range(8)]

        def work(i: int) -> None:
            order = random.Random(i).sample(ks, len(ks))
            got = {k: bernoulli_even(k) for k in order}
            results[i] = [got[k] for k in ks]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [[mpmath_bernoulli_even(k) for k in ks]] * 8


class TestEvalClosedForm:
    def test_psi_half_thirty_digits(self, ctx30):
        value = eval_closed_form(psi_closed(Fraction(1, 2)), ctx30)
        # reference: -(gamma + 2 ln 2) by independent constant arithmetic
        m = mp_reference(60)
        reference = -(m.euler + 2 * m.log(2))
        assert abs(value - reference) < ctx30.mp.mpf(10) ** -28
        assert format_decimal(value, 30) == "-1.96351002602142347944097633300"

    def test_empty_form_is_zero(self, ctx30):
        assert eval_closed_form(ClosedForm(), ctx30) == 0

    def test_psi_one_fifteen_digits(self):
        ctx = EvalContext(15)
        value = eval_closed_form(psi_closed(Fraction(1)), ctx)
        assert format_decimal(value, 15) == "-0.577215664901533"

    def test_precision_monotonicity(self):
        lo = eval_closed_form(psi_closed(Fraction(1, 3)), EvalContext(30))
        hi = eval_closed_form(psi_closed(Fraction(1, 3)), EvalContext(60))
        assert format_decimal(lo, 25) == format_decimal(hi, 25)


def cache_size() -> int:
    return numerics._constant.cache_info().currsize


class TestValueCache:
    @pytest.fixture(scope="class")
    def sweep(self):
        """Evaluate psi(1/2999) from an empty cache, then six more forms at
        q near 3000 (about 3000 entries each), then psi(1/2999) again."""
        ctx = EvalContext(20)
        numerics._constant.cache_clear()
        first = psi_closed(Fraction(1, 2999))
        cold = eval_closed_form(first, ctx)
        sizes = []
        for q in (3001, 3011, 3019, 3023, 3037, 3041):
            eval_closed_form(psi_closed(Fraction(2, q)), ctx)
            sizes.append(cache_size())
        misses = numerics._constant.cache_info().misses
        recomputed = eval_closed_form(first, ctx)
        return cold, sizes, numerics._constant.cache_info().misses - misses, recomputed

    def test_size_never_exceeds_bound(self, sweep):
        _, sizes, _, _ = sweep
        assert max(sizes) <= numerics._VALUE_CACHE_SIZE
        assert sizes[-1] == numerics._VALUE_CACHE_SIZE  # the sweep did fill it

    def test_recomputed_value_equals_cold_value(self, sweep):
        cold, _, misses, recomputed = sweep
        assert misses >= 2 * 1499  # its ln sin and cosine values were evicted
        assert recomputed == cold

    def test_threads_match_serial_run(self):
        # eight forms of about 3000 entries each overflow the cache, so the
        # threads evict one another's entries
        ctx = EvalContext(20)
        qs = (2999, 3001, 3011, 3019, 3023, 3037, 3041, 3049)
        forms = [psi_closed(Fraction(i + 1, q)) for i, q in enumerate(qs)]
        numerics._constant.cache_clear()
        serial = [eval_closed_form(form, ctx) for form in forms]
        numerics._constant.cache_clear()
        results: list[list] = [[] for _ in forms]

        def work(i: int) -> None:
            results[i] = [eval_closed_form(forms[i], ctx) for _ in range(2)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(forms))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [[value] * 2 for value in serial]
        assert cache_size() == numerics._VALUE_CACHE_SIZE


class TestSeriesOracle:
    def test_telescoping_at_one(self):
        ctx = EvalContext(15)
        n = 10**5
        value, bound = oracle_psi_series(Fraction(1), n, ctx)
        # the partial sum telescopes to -gamma - 1/(n+1) exactly
        gap = abs(value - (-const_gamma(ctx)))
        expected_gap = ctx.mp.mpf(1) / (n + 1)
        assert abs(gap - expected_gap) < ctx.mp.mpf(10) ** -12
        assert gap < bound

    def test_half_against_closed_form(self, ctx30):
        value, bound = oracle_psi_series(Fraction(1, 2), 10**5, ctx30)
        exact = eval_closed_form(psi_closed(Fraction(1, 2)), ctx30)
        assert abs(value - exact) < bound
        assert bound < ctx30.mp.mpf(10) ** -4

    def test_bound_valid_for_tiny_term_count(self, ctx30):
        value, bound = oracle_psi_series(Fraction(1, 2), 10, ctx30)
        exact = eval_closed_form(psi_closed(Fraction(1, 2)), ctx30)
        assert abs(value - exact) <= bound

    def test_negative_argument_shifts_first(self, ctx30):
        value, bound = oracle_psi_series(Fraction(-7, 3), 10**5, ctx30)
        assert abs(value - reference_digamma(Fraction(-7, 3))) < bound

    def test_positive_arguments_summed_directly(self, ctx30):
        value, bound = oracle_psi_series(Fraction(7, 3), 10**5, ctx30)
        assert abs(value - reference_digamma(Fraction(7, 3))) < bound
        # direct bound is r/N
        assert abs(bound - ctx30.from_fraction(Fraction(7, 3)) / 10**5) == 0

    def test_preconditions(self, ctx30):
        with pytest.raises(PoleError):
            oracle_psi_series(Fraction(0), 100, ctx30)
        with pytest.raises(ValueError):
            oracle_psi_series(Fraction(19, 2), 50, ctx30)  # needs >= 100 terms


class TestAsymptoticOracle:
    def test_value_at_one(self, ctx30):
        value = oracle_psi_asymptotic(Fraction(1), ctx30)
        assert format_decimal(value, 30) == "-0.577215664901532860606512090082"

    def test_half_matches_closed_form(self, ctx30):
        value = oracle_psi_asymptotic(Fraction(1, 2), ctx30)
        closed = eval_closed_form(psi_closed(Fraction(1, 2)), ctx30)
        assert abs(value - closed) < ctx30.mp.mpf(10) ** -25

    def test_negative_matches_closed_form(self, ctx30):
        value = oracle_psi_asymptotic(Fraction(-7, 3), ctx30)
        closed = eval_closed_form(psi_closed(Fraction(-7, 3)), ctx30)
        assert abs(value - closed) < ctx30.mp.mpf(10) ** -25

    def test_pole_rejected(self, ctx30):
        with pytest.raises(PoleError):
            oracle_psi_asymptotic(Fraction(-4), ctx30)

    def test_agreement_with_closed_forms_on_random_sample(self, ctx50):
        tol = comparison_tolerance(ctx50)
        for r in random_rationals(25, seed=1234):
            closed = eval_closed_form(psi_closed(r), ctx50)
            oracle = oracle_psi_asymptotic(r, ctx50)
            assert abs(closed - oracle) < tol, f"disagreement at {r}"

    def test_agreement_with_external_reference(self, ctx50):
        # belt-and-braces: a third, fully external digamma implementation
        for r in random_rationals(10, seed=77):
            assert abs(
                oracle_psi_asymptotic(r, ctx50) - reference_digamma(r)
            ) < ctx50.mp.mpf(10) ** -45


class TestFormatDecimal:
    def test_zero(self):
        assert format_decimal(mpmath.mpf(0), 20) == "0"

    def test_trailing_zeros_kept(self, ctx30):
        text = format_decimal(ctx30.mp.mpf(3) / 4, 10)
        assert text == "0.7500000000"

    def test_exponent_notation_for_extremes(self, ctx30):
        big = ctx30.mp.mpf(10) ** 40 / 3
        assert "e" in format_decimal(big, 10)

    def test_significant_digit_count(self, ctx50):
        text = format_decimal(const_pi(ctx50), 50)
        digits = [c for c in text if c.isdigit()]
        assert len(digits) == 50

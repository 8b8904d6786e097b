import copy
import functools
import hashlib
import math
import pickle
import random
import re
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
from psiq.closedform import (
    GAMMA,
    UNIT,
    ClosedForm,
    CosineCombination,
    log_prime,
    log_sin,
    pi_cot,
)
from psiq.formulas import gauss_1813, gr_variant, murty_saradha, nielsen, reflect
from psiq.numerics import comparison_tolerance, eval_cosine_combination
from psiq.rationals import PoleError, upward_sum

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


def sequential_upward_sum(r: Fraction, steps: int) -> Fraction:
    """sum of 1/(r + k) for k < steps one Fraction at a time, as the asymptotic
    oracle once summed its shift correction: the reference for binary splitting."""
    return sum((Fraction(1, 1) / (r + k) for k in range(steps)), Fraction(0))


def mpmath_bernoulli_even(k: int) -> Fraction:
    return Fraction(*(int(part) for part in mpmath.bernfrac(2 * k)))


def run_threads(work, count: int, timeout: float) -> None:
    """Run work(0) .. work(count - 1) in threads at a 1 us switch interval and
    check that every one finished."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(count)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=timeout)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)


@pytest.fixture
def cleared_bernoulli():
    """Start from an empty Bernoulli cache; later requests refill it."""
    with numerics._bernoulli_lock:
        numerics._bernoulli.clear()


class TestEvalContext:
    def test_minimum_digits(self):
        with pytest.raises(ValueError):
            EvalContext(14)
        # only an int is a digit count: 15.5 would work at 30.5 digits
        for digits in (15.5, 50.0, True, "20", None):
            with pytest.raises(ValueError, match=re.escape(repr(digits))):
                EvalContext(digits)

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

        run_threads(work, 8, timeout=60)
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


# The evaluation the fixed-point tables replaced: an mpmath cos, log(sin) and
# pi*cot per angle at the working precision, summed term by term in mpf.
_reference_values: dict = {}
_reference_context = functools.lru_cache(maxsize=None)(mp_reference)


def reference_basis(kind: str, arg, dps: int):
    key = (dps, kind, arg)
    if key not in _reference_values:
        m = _reference_context(dps)
        x = m.mpf(arg[0]) / arg[1] if kind != "logprime" else m.mpf(arg)
        if kind == "cos2pi":
            value = m.cos(2 * m.pi * x)
        elif kind == "logsin":
            value = m.log(m.sin(m.pi * x))
        elif kind == "picot":
            value = m.pi * m.cot(m.pi * x)
        else:
            value = m.log(x)
        _reference_values[key] = value
    return _reference_values[key]


def reference_eval(form: ClosedForm, ctx: EvalContext):
    m = _reference_context(ctx.workdps)
    total = m.mpf(0)
    for term, coeff in form.coefficients:
        c = m.mpf(coeff.rational.numerator) / coeff.rational.denominator
        for k, weight in coeff.cosines:
            c += m.mpf(weight.numerator) / weight.denominator * reference_basis(
                "cos2pi", (k, coeff.denominator), ctx.workdps
            )
        if term.kind == "unit":
            basis = m.mpf(1)
        elif term.kind == "gamma":
            basis = m.mpf(const_gamma(ctx))
        else:
            basis = reference_basis(term.kind, term.arg, ctx.workdps)
        total += c * basis
    return total


def coprime_pairs(qmax):
    for q in range(2, qmax + 1):
        for p in range(1, q):
            if math.gcd(p, q) == 1:
                yield p, q


class TestFixedPointEvaluator:
    @pytest.mark.parametrize("digits", [30, 479])
    def test_every_reduced_pair_to_q60_matches_per_term_evaluation(self, digits):
        ctx = EvalContext(digits)
        limit = ctx.mp.mpf(10) ** -(digits + 5)
        for p, q in coprime_pairs(60):
            form = psi_closed(Fraction(p, q))
            assert abs(eval_closed_form(form, ctx) - reference_eval(form, ctx)) < limit, (p, q)

    @pytest.mark.parametrize("q", [2999, 3000])
    def test_large_denominators_match_per_term_evaluation(self, q, ctx50):
        limit = ctx50.mp.mpf(10) ** -55
        for p in (1, 7, q - 1):
            form = psi_closed(Fraction(p, q))
            assert abs(eval_closed_form(form, ctx50) - reference_eval(form, ctx50)) < limit, p

    @pytest.mark.parametrize(
        "form",
        [
            ClosedForm.build({log_sin(Fraction(2, 7)): CosineCombination.from_cos(Fraction(3, 5))}),
            ClosedForm.build({pi_cot(Fraction(5, 12)): 1}),
            ClosedForm.build({log_sin(Fraction(1, 1000003)): 1}),
            # common denominator near 10^12: only the blocks used are filled
            ClosedForm.build(
                {log_sin(Fraction(1, 1000003)): CosineCombination.from_cos(Fraction(1, 999983))}
            ),
        ],
        ids=["cos-3/5-logsin-2/7", "picot-5/12", "logsin-1/1000003", "coprime-large-q"],
    )
    def test_forms_that_callers_build(self, form, ctx50):
        limit = ctx50.mp.mpf(10) ** -55
        assert abs(eval_closed_form(form, ctx50) - reference_eval(form, ctx50)) < limit
        assert numerics._values.slots <= numerics._SLOT_BUDGET

    def test_cosine_combination(self, ctx50):
        c = CosineCombination.from_cos(Fraction(3, 5), Fraction(7, 3)) + CosineCombination.from_rational(
            Fraction(-1, 9)
        )
        m = mp_reference(80)
        reference = m.mpf(7) / 3 * m.cos(6 * m.pi / 5) - m.mpf(1) / 9
        assert abs(eval_cosine_combination(c, ctx50) - reference) < ctx50.mp.mpf(10) ** -60

    @pytest.mark.parametrize(
        "q, slots",
        [
            (7, None),
            (60, None),
            (65, None),  # block 0 holds 33 slots: its chain is the one slot j = 32
            (97, None),
            (128, None),  # its last block holds the one slot j = 64
            (2999, None),
            (3001, None),
            # blocks 0 and 1, a middle block and the last, short one
            (30011, [*range(128), *range(117 * 64, 118 * 64), *range(234 * 64, 15006)]),
        ],
        ids=["7", "60", "65", "97", "128", "2999", "3001", "30011-four-blocks"],
    )
    def test_every_table_slot_within_documented_bound(self, q, slots, ctx50):
        prec = mpmath.libmp.dps_to_prec(ctx50.workdps) + 32
        table = numerics._SineTable(q, prec)
        m = mp_reference(ctx50.workdps + 20)
        unit = m.mpf(2) ** -prec
        for j in range(q // 2 + 1) if slots is None else slots:
            exact = m.sin(m.pi * j / q)
            sine = table._fill(j // numerics._BLOCK)[j % numerics._BLOCK] * unit
            assert abs(sine - exact) <= m.mpf("0.51") * unit, j
            assert abs(table.cos2(j) * unit - m.cos(2 * m.pi * j / q)) <= 3 * unit, j
            if j:
                # slots from 32 on are chained: rounded to nearest, within 2^-8
                # of the log of the rounded sine before
                rounding = 1 if j < numerics._DIRECT else m.mpf(0.5) + m.mpf(2) ** -8
                log = table.log_sin(j) * unit
                assert abs(log - m.log(sine)) <= rounding * unit, j
                assert abs(log - m.log(exact)) <= (rounding + m.mpf(q) / (3 * j)) * unit, j


class TestPinnedValues:
    """Values over the first round of the benchmark's tabulate workload at
    seed 1 (p/q + k, q in [2000, 3500)), pinned as sha256 digests so that a
    faster table fill is held to the same outputs."""

    ARGUMENTS = [
        "4277/2199", "6425/2412", "3016/2251", "4490/2729", "7825/2599", "6405/3358",
        "3511/2504", "6561/2170", "7516/2821", "9013/3415", "7634/2789", "11839/3159",
        "5677/2007", "10397/2663", "5051/2938", "4622/2927", "4947/2081", "6334/2319",
        "10637/3050", "8705/3246", "9634/3081", "6857/2442", "7967/3476", "10613/3188",
    ]
    TEXT_DIGEST = "903565e61131a446ce289b97941bbd384b77e12c591f7385c7f409391dcf5ade"
    REPR_DIGEST = "30df3716a4c1aa6525dc556634becd9b432eb6d07c4b91e29aaaa7dc11e4a7a3"

    @pytest.fixture(scope="class")
    def values(self):
        ctx = EvalContext(50)
        return [eval_closed_form(psi_closed(Fraction(arg)), ctx) for arg in self.ARGUMENTS]

    @staticmethod
    def digest(lines) -> str:
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()

    def test_formatted_values(self, values):
        assert self.digest(format_decimal(value, 50) for value in values) == self.TEXT_DIGEST

    def test_working_precision_values(self, values):
        # repr shows every bit of the value rounded to the working precision
        assert self.digest(repr(value) for value in values) == self.REPR_DIGEST


def reference_fixed_sum(form: ClosedForm, ctx: EvalContext):
    """The fixed-point evaluator as it was before its loop was specialised:
    every rational and cosine weight goes through ``_scaled``, every cosine
    through ``cos2`` and every ln sin through ``log_sin`` of the same cached
    table, and the exact sum is rounded once."""
    q = 1
    for term, coeff in form.coefficients:
        q = math.lcm(q, term.arg[1] if term.kind == "logsin" else 1, coeff.denominator)
    work = mpmath.libmp.dps_to_prec(ctx.workdps)
    prec = work + numerics._EXTRA_BITS
    one = 1 << prec
    table = (
        numerics._values.get((prec, q), lambda: numerics._SineTable(q, prec))
        if q > 1
        else None
    )
    total = 0
    for term, coeff in form.coefficients:
        c = numerics._scaled(coeff.rational, one)
        lift = q // coeff.denominator
        for k, weight in coeff.cosines:
            c += numerics._scaled(weight, table.cos2(k * lift))
        if term.kind == "unit":
            basis = one
        elif term.kind == "logsin":
            m, d = term.arg
            j = m * (q // d)
            basis = table.log_sin(min(j, q - j))
        elif term.kind == "gamma":
            basis = mpmath.libmp.to_fixed(const_gamma(ctx)._mpf_, prec)
        else:
            basis = mpmath.libmp.to_fixed(numerics._basis_value(term, ctx.workdps), prec)
        total += c * basis
    rounded = mpmath.libmp.from_man_exp(total, -2 * prec, work, mpmath.libmp.round_nearest)
    return ctx.mp.make_mpf(rounded)


def eager_copy(form: ClosedForm) -> ClosedForm:
    """The form of the same records with no deferred half sum."""
    return ClosedForm(form.coefficients)


def is_built(form: ClosedForm) -> bool:
    """Whether a deferred form's records exist, read from the slot without building them."""
    try:
        ClosedForm.coefficients.__get__(form)
    except AttributeError:
        return False
    return True


class TestBitIdenticalToReference:
    """eval_closed_form gives every bit of the reference evaluator."""

    @staticmethod
    def assert_identical(forms, ctx):
        for label, form in forms:
            value = eval_closed_form(form, ctx)
            assert value._mpf_ == reference_fixed_sum(form, ctx)._mpf_, label
            # a theorem form's deferred half sum gives its eager copy's bits
            assert value._mpf_ == eval_closed_form(eager_copy(form), ctx)._mpf_, label

    def test_every_construction_to_q40(self, ctx50):
        forms = [
            ((fn.__name__, p, q), fn(p, q))
            for p, q in coprime_pairs(40)
            for fn in (murty_saradha, gauss_1813, nielsen, gr_variant)
        ]
        self.assert_identical(forms, ctx50)

    def test_shifted_and_reflected_to_q40(self, ctx50):
        arguments = [Fraction(p, q) for p, q in coprime_pairs(40)]
        forms = [(x + n, psi_closed(x + n)) for x in arguments for n in (-3, 3)]
        forms += [(1 - x, reflect(psi_closed(x), x)) for x in arguments]
        self.assert_identical(forms, ctx50)

    def test_built_forms_with_other_weights_and_rationals(self, ctx50):
        weighted = CosineCombination.from_cos(Fraction(3, 5), Fraction(7, 3))
        ninth = CosineCombination.from_rational(Fraction(-1, 9))
        eighth = Fraction(1, 8)
        forms = [
            ClosedForm.build({log_sin(Fraction(2, 7)): weighted + ninth}),
            ClosedForm.build(
                {
                    UNIT: Fraction(1, 3),
                    GAMMA: Fraction(-5, 7),
                    pi_cot(Fraction(5, 12)): Fraction(3, 4),
                    log_prime(3): CosineCombination.from_cos(eighth, Fraction(-2, 5)),
                    log_sin(Fraction(1, 6)): weighted + CosineCombination.from_cos(eighth, 3),
                }
            ),
            ClosedForm.build({UNIT: weighted}),
            # int weights other than the theorem forms' 2, and a rational 1/2
            ClosedForm.build(
                {log_sin(Fraction(1, 6)): CosineCombination(Fraction(1, 2), 5, ((1, 3), (2, -1)))}
            ),
        ]
        self.assert_identical(list(enumerate(forms)), ctx50)

    @pytest.mark.parametrize("digits", [15, 50, 479])
    def test_pinned_arguments(self, digits):
        forms = [(arg, psi_closed(Fraction(arg))) for arg in TestPinnedValues.ARGUMENTS]
        self.assert_identical(forms, EvalContext(digits))


class TestDeferredHalfSum:
    """A theorem form holds its ln sin half sum as (p, q): it evaluates to
    every bit of its eager copy without building the half sum's records, and
    equals, hashes, prints, copies and pickles as that copy, before and
    after its records are first read."""

    @staticmethod
    def assert_identical(forms, ctx):
        for label, form in forms:
            value = eval_closed_form(form, ctx)
            assert value._mpf_ == eval_closed_form(eager_copy(form), ctx)._mpf_, label

    @pytest.mark.parametrize("digits, qmax", [(15, 60), (50, 60), (479, 24)])
    def test_both_constructions_at_every_reduced_pair(self, digits, qmax):
        forms = [
            ((construction.__name__, p, q), construction(p, q))
            for p, q in coprime_pairs(qmax)
            for construction in (murty_saradha, gauss_1813)
        ]
        self.assert_identical(forms, EvalContext(digits))

    def test_shifted_arguments(self, ctx50):
        arguments = [Fraction(p, q) + n for p, q in coprime_pairs(60) for n in (-3, 3)]
        self.assert_identical([(x, psi_closed(x)) for x in arguments], ctx50)

    @pytest.mark.parametrize("q", [2310, 3001, 30011])
    def test_sampled_numerators_at_large_denominators(self, q, ctx50):
        rng = random.Random(q)
        numerators = [p for p in (1, q - 1, *rng.sample(range(2, q - 1), 6)) if math.gcd(p, q) == 1]
        forms = [
            ((construction.__name__, p), construction(p, q))
            for p in numerators
            for construction in (murty_saradha, gauss_1813)
        ]
        self.assert_identical(forms, ctx50)

    def test_evaluation_builds_no_half_sum_record(self, ctx50):
        forms = [psi_closed(Fraction(1234, 3001) + 2), psi_closed(Fraction(-5, 12))]
        forms += [construction(7, 60) for construction in (murty_saradha, gauss_1813, nielsen, gr_variant)]
        for form in forms:
            eval_closed_form(form, ctx50)
            assert not is_built(form), form._half[1:]

    @pytest.mark.parametrize("read_first", [False, True], ids=["unbuilt", "built"])
    def test_record_behaviour_is_the_eager_copy(self, read_first):
        makers = [
            lambda: murty_saradha(3, 20),
            lambda: gauss_1813(7, 17),
            lambda: psi_closed(Fraction(7, 17) - 3),  # keeps its base form's half sum deferred
        ]
        checks = {
            "eq": lambda f, e: f == e and e == f and not f != e,
            "hash": lambda f, e: hash(f) == hash(e) and len({f, e}) == 1,
            "repr": lambda f, e: repr(f) == repr(e),
            "pickle": lambda f, e: all(
                pickle.dumps(f, n) == pickle.dumps(e, n) and pickle.loads(pickle.dumps(f, n)) == e
                for n in range(pickle.HIGHEST_PROTOCOL + 1)
            ),
            "copy": lambda f, e: copy.copy(f) == e and copy.deepcopy(f) == e,
        }
        for index, make in enumerate(makers):
            eager = eager_copy(make())
            for name, check in checks.items():
                form = make()
                if read_first:
                    assert form.coefficients == eager.coefficients
                assert is_built(form) == read_first
                assert check(form, eager), (index, name)

    def test_deferred_slot_is_immutable(self):
        forms = [murty_saradha(1234, 3001), psi_closed(Fraction(1234, 3001) + 2)]
        for form in forms:
            hash(form._half)  # raises TypeError for a mutable part
        form = forms[1]
        before = copy.deepcopy(form._half)
        start = threading.Barrier(4)

        def work(i: int) -> None:
            start.wait(timeout=60)
            form.coefficients

        run_threads(work, 4, timeout=60)
        assert is_built(form) and form._half == before

    def test_threads_fill_in_one_form_as_one(self):
        form = psi_closed(Fraction(1234, 3001) + 2)
        expected = eager_copy(psi_closed(Fraction(1234, 3001) + 2)).coefficients
        start = threading.Barrier(4)
        read: list = [None] * 4

        def work(i: int) -> None:
            start.wait(timeout=60)
            read[i] = form.coefficients

        run_threads(work, 4, timeout=60)
        assert all(records == expected for records in read)
        assert all(records == expected for records in (form.coefficients, eager_copy(form).coefficients))


class TestValueCache:
    """The one value cache of tables and constants, with its budget lowered
    to three tables at q near 3000."""

    BUDGET = 6000
    QS = (3001, 3011, 3019, 3023, 3037, 3041)

    @pytest.fixture
    def small_budget(self, monkeypatch):
        monkeypatch.setattr(numerics, "_SLOT_BUDGET", self.BUDGET)
        numerics._values.clear()
        yield
        numerics._values.clear()

    @pytest.fixture(scope="class")
    def sweep(self):
        """Evaluate psi(1/2999) from an empty cache, then six more forms at
        q near 3000 (about 1500 slots each), then psi(1/2999) again."""
        ctx = EvalContext(20)
        built = []
        table = numerics._SineTable

        def counted_table(q, prec):
            built.append(q)
            return table(q, prec)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(numerics, "_SLOT_BUDGET", self.BUDGET)
            patch.setattr(numerics, "_SineTable", counted_table)
            numerics._values.clear()
            first = psi_closed(Fraction(1, 2999))
            cold = eval_closed_form(first, ctx)
            sizes = []
            for q in self.QS:
                eval_closed_form(psi_closed(Fraction(2, q)), ctx)
                sizes.append(numerics._values.slots)
            builds = len(built)
            recomputed = eval_closed_form(first, ctx)
            rebuilt = built[builds:]
            numerics._values.clear()
        return cold, sizes, rebuilt, recomputed

    def test_size_never_exceeds_bound(self, sweep):
        _, sizes, _, _ = sweep
        assert max(sizes) <= self.BUDGET
        # the sweep did fill it: no further table of this size fits
        assert sizes[-1] > self.BUDGET - (max(self.QS) // 2 + 1)

    def test_recomputed_value_equals_cold_value(self, sweep):
        cold, _, rebuilt, recomputed = sweep
        assert rebuilt == [2999]  # its table was evicted; tables only
        assert recomputed == cold

    def test_threads_match_serial_run(self, small_budget):
        # eight forms of about 1500 slots each overflow the cache, so the
        # threads evict one another's tables
        ctx = EvalContext(20)
        qs = (2999, 3001, 3011, 3019, 3023, 3037, 3041, 3049)
        forms = [psi_closed(Fraction(i + 1, q)) for i, q in enumerate(qs)]
        serial = [eval_closed_form(form, ctx) for form in forms]
        numerics._values.clear()
        results: list[list] = [[] for _ in forms]

        def work(i: int) -> None:
            results[i] = [eval_closed_form(forms[i], ctx) for _ in range(2)]

        run_threads(work, len(forms), timeout=120)
        assert results == [[value] * 2 for value in serial]
        assert self.BUDGET - 1525 < numerics._values.slots <= self.BUDGET

    def test_threads_fill_one_table_as_a_serial_run(self, ctx50):
        # two threads read every ln sin of one fresh table, in opposite
        # orders, so they meet in the middle of blocks the other is filling
        prec = mpmath.libmp.dps_to_prec(ctx50.workdps) + 32
        q = 3001
        slots = range(1, q // 2 + 1)
        serial = numerics._SineTable(q, prec)
        expected = [serial.log_sin(j) for j in slots]
        shared = numerics._SineTable(q, prec)
        orders = [list(slots), list(reversed(slots))]
        read: list[dict] = [{}, {}]

        def work(i: int) -> None:
            read[i] = {j: shared.log_sin(j) for j in orders[i]}

        run_threads(work, 2, timeout=120)
        assert [read[0][j] for j in slots] == expected
        assert [read[1][j] for j in slots] == expected
        assert [shared.log_sin(j) for j in slots] == expected

    def test_shared_constants_under_concurrent_misses(self, small_budget):
        # the three constructions at one p/q share their pi*cot and ln p
        # entries, which eight threads compute at once from an empty cache
        ctx = EvalContext(30)
        forms = [
            construction(p, q)
            for p, q in ((1, 60), (7, 60), (5, 84), (11, 84), (3, 97))
            for construction in (gauss_1813, nielsen, murty_saradha)
        ]
        serial = [eval_closed_form(form, ctx) for form in forms]
        start = threading.Barrier(8)

        def work(i: int) -> None:
            start.wait(timeout=60)
            results[i] = [eval_closed_form(form, ctx) for form in forms]

        for _ in range(5):
            numerics._values.clear()
            results: list[list] = [[] for _ in range(8)]
            run_threads(work, 8, timeout=120)
            assert results == [serial] * 8
            entries = numerics._values._entries
            assert numerics._values.slots == sum(slots for _, slots in entries.values())
            # tables at q = 60, 84, 97; gamma, ln 2, 3, 5, 7, 97; 5 pi*cot entries
            assert len(entries) == 3 + 6 + 5

    def test_constants_cross_threads_in_the_asking_context(self, small_budget):
        ctx = EvalContext(40)
        serial = (const_pi(ctx), const_gamma(ctx))
        numerics._values.clear()
        computed = []
        run_threads(lambda i: computed.extend((const_pi(ctx), const_gamma(ctx))), 1, timeout=60)
        misses = numerics._values.misses
        mine = (const_pi(ctx), const_gamma(ctx))
        assert numerics._values.misses == misses  # both came from the cache
        assert all(v.context is not ctx.mp for v in computed)
        assert all(v.context is ctx.mp for v in mine)
        assert mine == tuple(computed) == serial

    def test_keys_hold_only_ints_and_strings(self, small_budget, ctx50):
        for construction in (murty_saradha, gauss_1813, nielsen, gr_variant):
            eval_closed_form(construction(5, 12), ctx50)
        eval_closed_form(psi_closed(Fraction(-7, 30)), ctx50)
        const_pi(ctx50)
        keys = list(numerics._values._entries)
        assert {key[1] for key in keys} >= {"gamma", "pi", "picot", "logprime"}
        assert all(type(part) in (int, str) for key in keys for part in key)

    def test_table_over_the_budget_evicts_nothing(self, ctx50):
        # a lone ln sin(pi/1000003) needs 500002 slots, more than the budget
        numerics._values.clear()
        try:
            for q in (7, 11, 13):
                eval_closed_form(psi_closed(Fraction(1, q)), ctx50)
            kept = list(numerics._values._entries)
            # tables of 4 + 6 + 7 slots; gamma, ln 2, and pi*cot and ln q of each q
            assert (len(kept), numerics._values.slots) == (3 + 8, 17 + 8)
            misses = numerics._values.misses
            eval_closed_form(ClosedForm.build({log_sin(Fraction(1, 1000003)): 1}), ctx50)
            assert numerics._values.misses == misses + 1
            assert list(numerics._values._entries) == kept
            assert numerics._values.slots == 25
        finally:
            numerics._values.clear()

    def test_second_evaluation_at_q30011_builds_no_table(self, ctx50):
        form = psi_closed(Fraction(1, 30011))
        first = eval_closed_form(form, ctx50)
        misses = numerics._values.misses
        assert eval_closed_form(form, ctx50) == first
        assert numerics._values.misses == misses


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

    @pytest.mark.parametrize("digits", [30, 479, 1000])
    @pytest.mark.parametrize(
        "r", [Fraction(1), Fraction(1, 3), Fraction(-7, 3), Fraction(25, 2), Fraction(100)]
    )
    def test_shift_correction_matches_sequential_sum(self, r, digits, monkeypatch):
        calls = []

        def recorded(x, n):
            calls.append((x, n, upward_sum(x, n)))
            return calls[-1][2]

        monkeypatch.setattr(numerics, "upward_sum", recorded)
        oracle_psi_asymptotic(r, EvalContext(digits))
        [(x, steps, correction)] = calls
        # the documented shift rule: x = r + steps >= 4D
        assert (x, steps) == (r, max(0, math.ceil(4 * digits - r)))
        assert correction == sequential_upward_sum(r, steps)

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


ORACLE_CASES = [
    (r, digits)
    for digits in (30, 479)
    for r in (Fraction(1, 3), Fraction(-7, 3), Fraction(25, 2), Fraction(100))
]


def working_bits(digits: int) -> int:
    return mpmath.libmp.dps_to_prec(digits + numerics.GUARD_DIGITS)


def rounded_reference(compute, digits: int, extra: int = 200) -> tuple:
    """mpmath's value ``compute(m)`` at W + extra bits, rounded to nearest at
    the W working bits of D digits, as a raw libmp value."""
    work = working_bits(digits)
    m = mpmath.mp.clone()
    m.prec = work + extra
    return mpmath.libmp.mpf_pos(compute(m)._mpf_, work, mpmath.libmp.round_nearest)


def mpmath_digamma(r: Fraction):
    return lambda m: m.digamma(m.mpf(r.numerator) / r.denominator)


def shifted(r: Fraction, digits: int) -> Fraction:
    """The point the asymptotic oracle expands at, by its documented rule."""
    return r + max(0, math.ceil(4 * digits - r))


class TestCorrectRounding:
    """gamma and the asymptotic oracle are the W-bit values rounded to
    nearest; mpmath serves only as the reference."""

    @pytest.mark.parametrize("digits", [15, 30, 39, 50, 60, 400, 479, 1000, 3000])
    def test_gamma(self, digits):
        reference = rounded_reference(lambda m: +m.euler, digits)
        assert const_gamma(EvalContext(digits))._mpf_ == reference

    @pytest.mark.parametrize("r, digits", ORACLE_CASES)
    def test_oracle(self, r, digits):
        reference = rounded_reference(mpmath_digamma(r), digits)
        assert oracle_psi_asymptotic(r, EvalContext(digits))._mpf_ == reference

    @pytest.mark.parametrize("r, digits", ORACLE_CASES)
    def test_first_omitted_term_below_truncation_bound(self, r, digits):
        prec = working_bits(digits) + 64
        x = shifted(r, digits)
        count = numerics._term_count(x, prec)
        k = count + 1
        omitted = abs(mpmath_bernoulli_even(k)) / (2 * k * x ** (2 * k))
        assert omitted <= Fraction(1, 2 ** (prec + 1))

    @pytest.mark.parametrize("digits", [30, 479])
    def test_cold_build_is_exactly_the_term_count(self, digits, cleared_bernoulli):
        oracle_psi_asymptotic(Fraction(1), EvalContext(digits))
        count = numerics._term_count(shifted(Fraction(1), digits), working_bits(digits) + 64)
        assert len(numerics._bernoulli) == count

    def test_forced_retry_keeps_the_value(self, monkeypatch):
        ctx, r = EvalContext(479), Fraction(1, 3)
        expected = oracle_psi_asymptotic(r, ctx)
        precisions = []
        rounded, de_moivre = numerics._rounded, numerics._de_moivre

        def first_ambiguous(total, error, prec, work):
            return rounded(total, error, prec, work) if precisions[1:] else None

        def recorded(x, count, prec):
            precisions.append(prec)
            return de_moivre(x, count, prec)

        monkeypatch.setattr(numerics, "_rounded", first_ambiguous)
        monkeypatch.setattr(numerics, "_de_moivre", recorded)
        assert oracle_psi_asymptotic(r, ctx) == expected
        assert precisions == [working_bits(479) + 64, working_bits(479) + 128]

    def test_near_the_root_retries_and_shifts_further(self, monkeypatch):
        # psi(r) ~ 2e-201 at this 200-digit r: about 670 bits cancel, beyond
        # what the expansion at x = 60.46... reaches, so x doubles
        m = mp_reference(250)
        root = m.findroot(m.digamma, 1.46)
        r = Fraction(int(m.nint(root * 10**200)), 10**200)
        points = []
        de_moivre = numerics._de_moivre

        def recorded(x, count, prec):
            points.append(x)
            return de_moivre(x, count, prec)

        monkeypatch.setattr(numerics, "_de_moivre", recorded)
        value = oracle_psi_asymptotic(r, EvalContext(15))
        assert value._mpf_ == rounded_reference(mpmath_digamma(r), 15, extra=1200)
        assert len(points) > 2 and points[0] == shifted(r, 15) and points[-1] > points[0]


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

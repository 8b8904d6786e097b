"""The immutable value records psiq defines: closed-form parts, shift
decompositions, evaluation contexts, expression nodes and tokens, and
verification reports.  Each compares, hashes, prints, copies and pickles by
its fields in order, refuses assignment and deletion, and is built from
positional or keyword arguments with the same defaults."""

import copy
import pickle
from fractions import Fraction

import mpmath
import pytest

from psiq.closedform import BasisTerm, ClosedForm, CosineCombination
from psiq.expressions import BinOp, Call, Name, Neg, Number, _Token
from psiq.formulas import murty_saradha
from psiq.numerics import EvalContext
from psiq.rationals import ShiftDecomposition
from psiq.verification import CaseResult, ComparisonReport, TableEntry

_GAMMA_TERM = (BasisTerm("gamma"), CosineCombination(Fraction(-1)))
_CASE = CaseResult("1/2", "gauss", "nielsen", mpmath.mpf("0.25"), True)
# a theorem form defers its ln sin half sum; its sample is built afresh by
# murty_saradha (make below), and its fields and repr are its eager copy's
_DEFERRED = (murty_saradha(1, 3).coefficients,)

# class, its fields in order, one sample's field values, and that sample's repr
RECORDS = [
    (
        CosineCombination,
        ("rational", "denominator", "cosines"),
        (Fraction(1, 2), 5, ((1, Fraction(2, 3)), (2, -1))),
        "CosineCombination(rational=Fraction(1, 2), denominator=5,"
        " cosines=((1, Fraction(2, 3)), (2, -1)))",
    ),
    (
        BasisTerm,
        ("kind", "arg"),
        ("logsin", (1, 3)),
        "BasisTerm(kind='logsin', arg=(1, 3))",
    ),
    (
        ClosedForm,
        ("coefficients",),
        ((_GAMMA_TERM,),),
        "ClosedForm(coefficients=((BasisTerm(kind='gamma', arg=None),"
        " CosineCombination(rational=Fraction(-1, 1), denominator=1, cosines=())),))",
    ),
    (
        ClosedForm,
        ("coefficients",),
        _DEFERRED,
        "ClosedForm(coefficients=((BasisTerm(kind='gamma', arg=None),"
        " CosineCombination(rational=Fraction(-1, 1), denominator=1, cosines=())),"
        " (BasisTerm(kind='picot', arg=(1, 3)),"
        " CosineCombination(rational=Fraction(-1, 2), denominator=1, cosines=())),"
        " (BasisTerm(kind='logprime', arg=2),"
        " CosineCombination(rational=Fraction(-1, 1), denominator=1, cosines=())),"
        " (BasisTerm(kind='logprime', arg=3),"
        " CosineCombination(rational=Fraction(-1, 1), denominator=1, cosines=())),"
        " (BasisTerm(kind='logsin', arg=(1, 3)),"
        " CosineCombination(rational=Fraction(0, 1), denominator=3, cosines=((1, 2),)))))",
    ),
    (
        ShiftDecomposition,
        ("base", "correction", "step_count"),
        (Fraction(1, 3), Fraction(3, 4), 2),
        "ShiftDecomposition(base=Fraction(1, 3), correction=Fraction(3, 4), step_count=2)",
    ),
    (EvalContext, ("digits",), (30,), "EvalContext(digits=30)"),
    (Number, ("value",), (Fraction(3, 4),), "Number(value=Fraction(3, 4))"),
    (Name, ("name",), ("pi",), "Name(name='pi')"),
    (Neg, ("operand",), (Name("gamma"),), "Neg(operand=Name(name='gamma'))"),
    (
        BinOp,
        ("op", "left", "right"),
        ("+", Number(Fraction(1)), Name("pi")),
        "BinOp(op='+', left=Number(value=Fraction(1, 1)), right=Name(name='pi'))",
    ),
    (
        Call,
        ("func", "arg"),
        ("ln", Number(Fraction(2))),
        "Call(func='ln', arg=Number(value=Fraction(2, 1)))",
    ),
    (
        _Token,
        ("kind", "text", "position"),
        ("number", "12", 3),
        "_Token(kind='number', text='12', position=3)",
    ),
    (
        TableEntry,
        ("label", "argument", "expr", "expr_text", "source"),
        ("psi(1/2)", Fraction(1, 2), Neg(Call("ln", Number(Fraction(2)))), "-ln(2)", "A&S 6.3.3"),
        "TableEntry(label='psi(1/2)', argument=Fraction(1, 2),"
        " expr=Neg(operand=Call(func='ln', arg=Number(value=Fraction(2, 1)))),"
        " expr_text='-ln(2)', source='A&S 6.3.3')",
    ),
    (
        CaseResult,
        ("argument", "formula_a", "formula_b", "abs_diff", "passed"),
        ("1/2", "gauss", "nielsen", mpmath.mpf("0.25"), True),
        "CaseResult(argument='1/2', formula_a='gauss', formula_b='nielsen',"
        " abs_diff=mpf('0.25'), passed=True)",
    ),
    (
        ComparisonReport,
        ("title", "digits", "cases", "notes"),
        ("sweep", 30, (_CASE,), ("a note",)),
        "ComparisonReport(title='sweep', digits=30, cases=(CaseResult(argument='1/2',"
        " formula_a='gauss', formula_b='nielsen', abs_diff=mpf('0.25'), passed=True),),"
        " notes=('a note',))",
    ),
]

IDS = [cls.__name__ + ("-deferred" if v is _DEFERRED else "") for cls, _, v, _ in RECORDS]


def make(cls, values):
    """The sample record of ``values``: the deferred one with its records unbuilt."""
    return murty_saradha(1, 3) if values is _DEFERRED else cls(*values)


def test_every_record_class_is_listed():
    assert len({cls for cls, _, _, _ in RECORDS}) == 14


@pytest.mark.parametrize("cls, fields, values, text", RECORDS, ids=IDS)
class TestRecord:
    def test_positional_and_keyword_construction(self, cls, fields, values, text):
        record = make(cls, values)
        assert tuple(getattr(record, f) for f in fields) == values
        assert cls(**dict(zip(fields, values))) == record
        assert cls(values[0], **dict(zip(fields[1:], values[1:]))) == record

    def test_wrong_arguments_raise_type_error(self, cls, fields, values, text):
        with pytest.raises(TypeError):
            cls(*values, values[-1])
        with pytest.raises(TypeError):
            cls(*values, no_such_field=1)
        with pytest.raises(TypeError):
            cls(*values, **{fields[0]: values[0]})

    def test_value_equality_and_hash(self, cls, fields, values, text):
        record, twin = make(cls, values), cls(*copy.deepcopy(values))
        assert record == twin and not record != twin
        assert hash(record) == hash(twin) == hash(values)
        assert record != values
        assert record.__eq__(values) is NotImplemented

    def test_inequality_across_classes(self, cls, fields, values, text):
        record = make(cls, values)
        others = [other(*v) for other, _, v, _ in RECORDS if other is not cls]
        assert all(record != other and not record == other for other in others)

    def test_repr(self, cls, fields, values, text):
        assert repr(make(cls, values)) == text

    def test_assignment_and_deletion_raise(self, cls, fields, values, text):
        record = make(cls, values)
        for field in fields:
            with pytest.raises(AttributeError):
                setattr(record, field, values[0])
            with pytest.raises(AttributeError):
                delattr(record, field)
        with pytest.raises(AttributeError):
            record.no_such_field = 1
        assert tuple(getattr(record, f) for f in fields) == values

    def test_pickle_and_copy_round_trip(self, cls, fields, values, text):
        record = make(cls, values)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(record, protocol))
            assert type(back) is cls and back == record
        for clone in (copy.copy(record), copy.deepcopy(record)):
            assert type(clone) is cls and clone == record
            assert repr(clone) == text


def test_one_field_nodes_differ_by_class():
    """Two one-field nodes over the same value are different expressions."""
    x = Fraction(3)
    assert Neg(x) != Number(x)
    assert Name("pi") != Number("pi")
    assert Call("ln", x) != BinOp("ln", x, x)
    assert len({Neg(x), Number(x)}) == 2


def test_defaults():
    assert EvalContext().digits == 50
    assert ComparisonReport("sweep", 30, (_CASE,)).notes == ()
    assert CosineCombination() == CosineCombination(Fraction(0), 1, ())
    assert BasisTerm("unit").arg is None
    assert ClosedForm().coefficients == ()


def test_validation_runs_on_every_path():
    """Checks run on positional and keyword construction alike."""
    with pytest.raises(ValueError):
        EvalContext(digits=14)
    with pytest.raises(ValueError):
        BasisTerm(kind="logsin", arg=(2, 4))
    with pytest.raises(ValueError):
        CosineCombination(denominator=4, cosines=((1, 1),))


def test_real_results_pickle():
    """A built closed form and a shift decomposition survive pickle."""
    from psiq import psi_closed, shift_decompose

    form = psi_closed(Fraction(7, 3))
    assert pickle.loads(pickle.dumps(form)) == form
    shift = shift_decompose(Fraction(-7, 3))
    assert pickle.loads(pickle.dumps(shift)) == shift

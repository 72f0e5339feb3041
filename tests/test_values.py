"""Behaviour of the frozen value classes: equality, hashing, printed form,
immutability, pickling and constructor checks."""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

from christoffel import (
    ChristoffelParams,
    Composition,
    ContinuedFraction,
    DeterminantalVector,
    FactorMatrix,
    FieldScalar,
    GroupTriple,
    IetPermutation,
    Permutation,
    SlopeRatio,
    SturmianSlope,
    Word,
)
from christoffel.contfrac import StandardSplitMatrix
from christoffel.errors import (
    EmptyCompositionError,
    InvalidCFError,
    InvalidSlopeError,
    NonInvertibleRowSumError,
    NotCoprimeError,
    OutOfRangeError,
)
from christoffel.fibonacci import FibPrediction
from christoffel.fixtures import FixtureResult
from christoffel.sturmian import DetContext, GChainStep

ONE, TWO = FieldScalar(1), FieldScalar(2)
CF = ContinuedFraction((0, 2, 3))
FACTORS = FactorMatrix(2, (Word((1, 0)), Word((0, 1)), Word((0, 0))), (0, 2, 4))

# (class, field values, the same class with one field changed, repr text).
VALUES = [
    (ChristoffelParams, (7, ONE, TWO, 2), (7, ONE, TWO, 3),
     "ChristoffelParams(n=7, a=FieldScalar(1), b=FieldScalar(2), r=2)"),
    (GroupTriple, (7, ONE, TWO, 2), (7, TWO, ONE, 2),
     "GroupTriple(n=7, c=FieldScalar(1), d=FieldScalar(2), r=2)"),
    (ContinuedFraction, ((0, 2, 3),), ((0, 2, 4),),
     "ContinuedFraction(quotients=(0, 2, 3))"),
    (StandardSplitMatrix, (((1, 2), (3, 5)), True), (((1, 2), (3, 5)), False),
     "StandardSplitMatrix(matrix=((1, 2), (3, 5)), m_even=True)"),
    (FibPrediction, (5, 3, 2, (1, 2, 3), (-1, 1, 2), (1, 2)),
     (5, 3, 2, (1, 2, 3), (-1, 1, 2), (1, 3)),
     "FibPrediction(n=5, nu=3, i=2, composition=(1, 2, 3), alphabet=(-1, 1, 2), "
     "values=(1, 2))"),
    (FixtureResult, ("bw-matrix-order7", True, "table"), ("bw-matrix-order7", False, "table"),
     "FixtureResult(fixture='bw-matrix-order7', passed=True, detail='table')"),
    (Composition, ((1, 0, 2),), ((1, 2),), "Composition(parts=(1, 0, 2))"),
    (IetPermutation, (Permutation((1, 0)), Composition((1, 1))),
     (Permutation((2, 0, 1)), Composition((1, 2))),
     "IetPermutation(sigma=Permutation([1, 0]), composition=Composition(parts=(1, 1)))"),
    (SturmianSlope, (CF,), (ContinuedFraction((0, 2)),),
     "SturmianSlope(cf=ContinuedFraction(quotients=(0, 2, 3)))"),
    (FactorMatrix, (2, (Word((1, 0)), Word((0, 1)), Word((0, 0))), (0, 2, 4)),
     (2, (Word((1, 0)), Word((0, 1)), Word((0, 0))), (0, 2, 5)),
     "FactorMatrix(n=2, rows=(Word(10), Word(01), Word(00)), origin=(0, 2, 4))"),
    (DetContext, (2, 7, 4, -1, 3, (1, 4, 2), (-1, 1, 2)),
     (2, 7, 4, 1, 3, (1, 4, 2), (-1, 1, 2)),
     "DetContext(nu=2, word_length=7, i=4, epsilon=-1, t=3, composition=(1, 4, 2), "
     "alphabet=(-1, 1, 2))"),
    (GChainStep, (FACTORS, 3), (FACTORS, None),
     "GChainStep(matrix=FactorMatrix(n=2, rows=(Word(10), Word(01), Word(00)), "
     "origin=(0, 2, 4)), merge_row=3)"),
    (SlopeRatio, (2, 5), (5, 2), "SlopeRatio(ones=2, zeros=5)"),
]
IDS = [cls.__name__ for cls, *_ in VALUES]


def stored(value):
    """The slots of a value, in their order."""
    return tuple(getattr(value, name) for name in type(value).__slots__)


@pytest.mark.parametrize("cls, fields, other, text", VALUES, ids=IDS)
class TestValueClass:
    def test_equality_and_hash_follow_the_fields(self, cls, fields, other, text):
        """Equality and hashing read the stored slots, which are the fields
        themselves unless the class lists ``_field_names``."""
        value = cls(*fields)
        assert value == cls(*fields) and not value != cls(*fields)
        assert hash(value) == hash(cls(*fields)) == hash(stored(value))
        assert value != cls(*other) and hash(cls(*other)) == hash(stored(cls(*other)))
        assert value != fields and len({value, cls(*fields), cls(*other)}) == 2
        if not cls._field_names:
            assert stored(value) == fields and stored(cls(*other)) == other

    def test_repr(self, cls, fields, other, text):
        assert repr(cls(*fields)) == text

    def test_fields_cannot_be_assigned_or_deleted(self, cls, fields, other, text):
        value = cls(*fields)
        first = text[len(cls.__name__) + 1:].split("=")[0]
        with pytest.raises(AttributeError):
            setattr(value, first, other[0])
        with pytest.raises(AttributeError):
            delattr(value, first)
        with pytest.raises(AttributeError):
            value.unknown_field = 1
        assert value == cls(*fields)

    def test_pickle_and_deepcopy_round_trip(self, cls, fields, other, text):
        value = cls(*fields)
        for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value),
                     copy.copy(value)):
            assert type(twin) is cls and twin == value and repr(twin) == text


def test_classes_with_equal_fields_differ():
    """Equality needs the same class, not only equal field values."""
    p = ChristoffelParams(7, ONE, TWO, 2)
    t = GroupTriple(7, ONE, TWO, 2)
    assert p != t and t != p and not p == t


def test_keyword_construction():
    assert DetContext(nu=2, word_length=7, i=4, epsilon=-1, t=3, composition=(1, 4, 2),
                      alphabet=(-1, 1, 2)) == DetContext(2, 7, 4, -1, 3, (1, 4, 2), (-1, 1, 2))
    assert SlopeRatio(zeros=5, ones=2) == SlopeRatio(2, 5)


def test_constructors_coerce():
    assert ChristoffelParams(7, 0, 1, 2).a == FieldScalar(0)
    assert isinstance(ChristoffelParams(7, 0, 1, 2).b, FieldScalar)
    assert ContinuedFraction([0, 2, 3]).quotients == (0, 2, 3)
    assert Composition([1, 0, 2]).parts == (1, 0, 2)


@pytest.mark.parametrize("make, error", [
    (lambda: SlopeRatio(2, 4), InvalidSlopeError),
    (lambda: SlopeRatio(-1, 2), InvalidSlopeError),
    (lambda: SlopeRatio(0, 0), InvalidSlopeError),
    (lambda: ContinuedFraction(()), InvalidCFError),
    (lambda: ContinuedFraction((1, 0)), InvalidCFError),
    (lambda: Composition(()), EmptyCompositionError),
    (lambda: Composition((0, 0)), EmptyCompositionError),
    (lambda: Composition((1.5, 2)), EmptyCompositionError),
    (lambda: Composition(("a",)), EmptyCompositionError),
    (lambda: Composition((Fraction(3), 1)), EmptyCompositionError),
    (lambda: ChristoffelParams(1, 0, 1, 1), OutOfRangeError),
    (lambda: ChristoffelParams(6, 0, 1, 2), NotCoprimeError),
    (lambda: GroupTriple(7, FieldScalar(0), ONE, 2), NonInvertibleRowSumError),
    (lambda: GroupTriple(7, ONE, FieldScalar(0), 2), NonInvertibleRowSumError),
    (lambda: GroupTriple(1, 1, 2, 0), OutOfRangeError),
    (lambda: GroupTriple(-7, 1, 2, 1), OutOfRangeError),
    (lambda: GroupTriple(0, 1, 2, 0), OutOfRangeError),
], ids=["slope-not-lowest", "slope-negative", "slope-0/0", "cf-empty", "cf-zero-quotient",
        "composition-empty", "composition-zero-sum", "composition-float",
        "composition-string", "composition-fraction", "params-order", "params-coprime",
        "triple-c", "triple-d", "triple-order-1", "triple-order-negative", "triple-order-0"])
def test_constructors_validate(make, error):
    with pytest.raises(error):
        make()


def test_composition_parts_are_ints():
    """A float part fails in the constructor, with the message of a
    negative part, not later in ``build_sigma``; bools are ints, as for
    ``Permutation``."""
    with pytest.raises(EmptyCompositionError, match=r"^invalid composition \[1\.5, 2\]$"):
        Composition((1.5, 2))
    assert Composition((True, 2)).parts == (True, 2)


@pytest.mark.parametrize("n", [1, 0, -7])
def test_triple_order_message_is_the_params_one(n):
    for make in (ChristoffelParams, GroupTriple):
        with pytest.raises(OutOfRangeError, match=rf"^order must be >= 2, got {n}$"):
            make(n, 1, 2, 1)


def test_determinantal_vector_stays_a_dataclass():
    """The benchmark's self-test alters a vector with ``dataclasses.replace``."""
    v = DeterminantalVector((1, -2, 1))
    w = dataclasses.replace(v, components=(1, 2, 1))
    assert w == DeterminantalVector((1, 2, 1)) and w.context is None

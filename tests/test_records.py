"""The package's records are plain classes with value semantics: equality and
repr over their fields, frozen records hashable and read-only, and the two
mutable records (`ExtremalSequence`, `ExtremalTarget`) unhashable."""
import copy
import pickle
from fractions import Fraction

import pytest

from conic_approx.extremal import ExtremalSequence, Window, seed_triple
from conic_approx.limit import CertifiedVec3
from conic_approx.minpoints import ExponentReport, MinimalPointRecord, RigidityReport
from conic_approx.numerics import CertifiedReal, Dyadic
from conic_approx.pell import PellSolution
from conic_approx.quadform import CanonicalReduction, TernaryQuadraticForm
from conic_approx.records import FrozenRecord
from conic_approx.targets import ExtremalTarget, SqrtPairTarget

FORM = TernaryQuadraticForm(1, -2, -3)
HALF = CertifiedReal(Dyadic(1, -1), Dyadic(1, -1), 1)
MINUS_HALF = CertifiedReal(Dyadic(-1, -1), Dyadic(-1, -1), 1)
IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))

# each frozen record twice from equal fields, and once with one field changed
FROZEN = {
    "Dyadic": (lambda: Dyadic(3, -5), lambda: Dyadic(3, -4)),
    "CertifiedReal": (lambda: CertifiedReal(Dyadic(1, -1), Dyadic(3, -1), 1), lambda: HALF),
    "PellSolution": (lambda: PellSolution(3, 2, 2), lambda: PellSolution(17, 12, 2)),
    "TernaryQuadraticForm": (
        lambda: TernaryQuadraticForm(1, -2, -3),
        lambda: TernaryQuadraticForm(1, -2, -5),
    ),
    "CanonicalReduction": (
        lambda: CanonicalReduction("anisotropic", IDENTITY, Fraction(1), 2, 3),
        lambda: CanonicalReduction("anisotropic", IDENTITY, Fraction(1, 2), 2, 3),
    ),
    "CertifiedVec3": (
        lambda: CertifiedVec3(HALF, HALF, HALF),
        lambda: CertifiedVec3(HALF, HALF, MINUS_HALF),
    ),
    "MinimalPointRecord": (
        lambda: MinimalPointRecord((1, 1, 2), 1, HALF),
        lambda: MinimalPointRecord((1, 1, 2), 1, MINUS_HALF),
    ),
    "SqrtPairTarget": (lambda: SqrtPairTarget(2, 3), lambda: SqrtPairTarget(2, 5)),
    "ExponentReport": (
        lambda: ExponentReport([(1, 0.5)], 0.5, 0.1, 0.2, [1], 0.3),
        lambda: ExponentReport([(1, 0.5)], 0.5, 0.1, 0.2, [1, 2], 0.3),
    ),
    "RigidityReport": (
        lambda: RigidityReport([1], False, [(1, True)], 1),
        lambda: RigidityReport([1], True, [(1, True)], 1),
    ),
}
# records whose fields hold lists, so hashing them fails
HOLDS_LISTS = {"ExponentReport", "RigidityReport"}
MUTABLE = {
    "ExtremalSequence": (
        lambda: ExtremalSequence(FORM, [], [], 0),
        lambda: ExtremalSequence(FORM, [], [], 1),
    ),
    "ExtremalTarget": (lambda: ExtremalTarget(2, 3), lambda: ExtremalTarget(2, 5)),
}
ALL = {**FROZEN, **MUTABLE}


@pytest.mark.parametrize("name", sorted(ALL))
class TestValueSemantics:
    def test_equal_fields_make_equal_records(self, name):
        make, other = ALL[name]
        assert make() == make() and not make() != make()
        assert make() != other() and not make() == other()

    def test_a_record_never_equals_another_class(self, name):
        make, _ = ALL[name]
        record = make()
        fields = tuple(getattr(record, f) for f in type(record).__slots__ if f != "__dict__")
        assert record != fields and record != object()

    def test_repr_names_the_class(self, name):
        make, _ = ALL[name]
        assert repr(make()).startswith(f"{name}(")


@pytest.mark.parametrize("name", sorted(FROZEN))
class TestFrozen:
    def test_hash_follows_equality(self, name):
        make, other = FROZEN[name]
        if name in HOLDS_LISTS:
            with pytest.raises(TypeError, match="unhashable type: 'list'"):
                hash(make())
        else:
            assert hash(make()) == hash(make())
            assert len({make(), make(), other()}) == 2

    def test_fields_cannot_be_assigned_or_deleted(self, name):
        record = FROZEN[name][0]()
        field = type(record).__slots__[0]
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(record, field, 0)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(record, field)
        with pytest.raises(AttributeError):
            record.extra = 0

    def test_copy_and_pickle_rebuild_an_equal_record(self, name):
        record = FROZEN[name][0]()
        assert copy.copy(record) == record
        assert copy.deepcopy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record


@pytest.mark.parametrize("name", sorted(MUTABLE))
class TestMutable:
    def test_unhashable(self, name):
        with pytest.raises(TypeError, match="unhashable"):
            hash(MUTABLE[name][0]())

    def test_fields_can_be_assigned(self, name):
        record = MUTABLE[name][0]()
        field = type(record).__slots__[0]
        setattr(record, field, 7)
        assert getattr(record, field) == 7


class TestReprs:
    def test_generated_form(self):
        assert repr(PellSolution(3, 2, 2)) == "PellSolution(m=3, n=2, b=2)"
        assert repr(SqrtPairTarget(2, 3)) == "SqrtPairTarget(a=2, b=3)"
        assert repr(HALF) == "CertifiedReal(lo=Dyadic(1, -1), hi=Dyadic(1, -1), precision=1)"

    def test_extremal_target_hides_its_caches(self):
        target = ExtremalTarget(2, 3)
        target.limit(64)
        assert target._seq is not None and target._limit is not None
        assert repr(target) == "ExtremalTarget(b=2, c=3)"


class TestDefaults:
    def test_form_coefficients_default_to_zero(self):
        assert FORM == TernaryQuadraticForm(1, -2, -3, 0, 0, 0)
        form = TernaryQuadraticForm(a00=1, a11=-2, a22=-3, a12=4)
        assert (form.a01, form.a02, form.a12) == (0, 0, 4)

    def test_reduction_b_and_c_default_to_zero(self):
        red = CanonicalReduction("parabola", IDENTITY, Fraction(-1))
        assert (red.b, red.c) == (0, 0)

    def test_window_starts_unproved(self):
        assert Window(ExtremalSequence(FORM, [], [], 1), 1).proved == 0


class TestInstanceDict:
    """Records with a cached property, and the plain `Window`, keep a
    `__dict__`; the others have only their slots."""

    def test_cached_properties_are_computed_once(self):
        form = TernaryQuadraticForm(1, -2, -3)
        assert "gram_det" not in form.__dict__
        assert form.gram_det == 48 == form.__dict__["gram_det"]
        seq = seed_triple(2, 3)
        window = Window(seq, 2)
        assert window.t_product == seq.t(1) * seq.t(0) == window.__dict__["t_product"]

    def test_a_target_has_only_its_slots(self):
        target = ExtremalTarget(2, 3)
        assert not hasattr(target, "__dict__")
        with pytest.raises(AttributeError):
            target.enclosure = lambda bits: (HALF, HALF)

    def test_a_target_equals_a_fresh_one_whatever_it_cached(self):
        # equality and the repr read `_fields`, not the caches `_seq` and `_limit`
        target = ExtremalTarget(2, 3)
        target.limit(64)
        assert target == ExtremalTarget(2, 3) and not target != ExtremalTarget(2, 3)
        assert repr(target) == "ExtremalTarget(b=2, c=3)"

    @pytest.mark.parametrize("name", ["Dyadic", "CertifiedReal", "MinimalPointRecord"])
    def test_records_built_most_often_have_no_dict(self, name):
        assert not hasattr(FROZEN[name][0](), "__dict__")


class TestOneConstructor:
    """`Record.__init__` sets the fields of `_fields` in order, and counts its
    values first, so no field is left unset and no value is dropped."""

    @pytest.mark.parametrize("values", [(3,), (3, -5, 0)], ids=["too-few", "too-many"])
    def test_a_plain_record_refuses_a_wrong_count(self, values):
        with pytest.raises(TypeError, match=rf"^Dyadic takes 2 values, not {len(values)}$"):
            Dyadic(*values)

    @pytest.mark.parametrize(
        "values", [(HALF.lo, HALF.hi), (HALF.lo, HALF.hi, 1, 1)], ids=["too-few", "too-many"]
    )
    def test_a_checked_record_refuses_a_wrong_count(self, values):
        with pytest.raises(TypeError, match="CertifiedReal"):
            CertifiedReal(*values)
        # the count is checked again past the record's own check, as
        # `formats` builds a claimed enclosure
        claimed = object.__new__(CertifiedReal)
        with pytest.raises(TypeError, match=rf"^CertifiedReal takes 3 values, not {len(values)}$"):
            FrozenRecord.__init__(claimed, *values)


class TestValidation:
    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError, match="empty interval"):
            CertifiedReal(Dyadic(3, -1), Dyadic(1, -1), 1)

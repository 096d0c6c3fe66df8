"""The package's immutable value types: construction, checks, repr, pickling.

SweepConfig, IdentityPoint, VerifyReport, MapCountSpec and FallingPoly are
validated on construction, compare by value, hash by their fields and
cannot be changed once built.
"""

import pickle
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypident import identity
from hypident.cli import SweepConfig
from hypident.factorial_basis import FallingPoly
from hypident.identity import (
    CellReport,
    IdentityPoint,
    MapCountSpec,
    VerifyReport,
    mapcount_spec_from_obj,
)

POINT = IdentityPoint(3, 2)

VALUES = [
    (SweepConfig(1, 2, 3, 4),
     "SweepConfig(j_min=1, j_max=2, n_min=3, n_max=4, mode='fast', parallelism=1, "
     "fmt='plain', timings=False)"),
    (SweepConfig(0, 5, 1, 9, mode="cross", parallelism=2, fmt="json", timings=True),
     "SweepConfig(j_min=0, j_max=5, n_min=1, n_max=9, mode='cross', parallelism=2, "
     "fmt='json', timings=True)"),
    (POINT, "IdentityPoint(N=3, j=2)"),
    (VerifyReport(POINT, 6, 7, False),
     "VerifyReport(point=IdentityPoint(N=3, j=2), lhs=6, rhs=7, equal=False)"),
    (MapCountSpec(2, 1, 1, ("1/2", 0, -3)),
     "MapCountSpec(nu=2, g=1, j=1, a=(Fraction(1, 2), Fraction(0, 1), Fraction(-3, 1)))"),
    (FallingPoly([1, 0, 2, 0]), "FallingPoly(coeffs=(1, 0, 2))"),
]

IDS = [text.split("(", 1)[0] for _, text in VALUES]


@pytest.mark.parametrize("value, text", VALUES, ids=IDS)
def test_repr(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("value, text", VALUES, ids=IDS)
def test_fields_cannot_be_assigned(value, text):
    field = text.split("(", 1)[1].split("=", 1)[0]
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("value, text", VALUES, ids=IDS)
def test_pickle_round_trip(value, text):
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is type(value)
    assert copy == value and hash(copy) == hash(value)
    assert repr(copy) == text


def test_equality_and_hash_follow_the_fields():
    assert IdentityPoint(3, 2) == POINT and IdentityPoint(2, 3) != POINT
    assert hash(IdentityPoint(N=3, j=2)) == hash(POINT) == hash((3, 2))
    assert {POINT: "a"}[IdentityPoint(3, 2)] == "a"
    report = VerifyReport(point=POINT, lhs=6, rhs=7, equal=False)
    assert pickle.loads(pickle.dumps([report, report])) == [report, report]
    assert report.point is POINT and report.rhs == 7


def test_sweep_config_defaults_and_checks():
    config = SweepConfig(j_min=1, j_max=3, n_min=2, n_max=5)
    assert (config.mode, config.parallelism) == ("fast", 1)
    assert (config.fmt, config.timings) == ("plain", False)
    assert config == SweepConfig(1, 3, 2, 5, "fast", 1, "plain", False)
    assert config == SweepConfig(1, 3, 2, 5, "fast", 1)
    for args, message in (
        ((-1, 3, 1, 5), "j = -1 must be >= 0"),
        ((4, 3, 1, 5), "bad j range 4..3"),
        ((1, 3, 0, 5), r"N = 0 is outside the identity's domain \(N >= 1\)"),
        ((1, 3, 6, 5), "bad N range 6..5"),
        ((1, 3, 1, 5, "fast", 0), "parallelism must be >= 1"),
    ):
        with pytest.raises(ValueError, match=message):
            SweepConfig(*args)


def test_sweep_config_declares_its_defaults_in_its_named_tuple():
    assert SweepConfig._field_defaults == {
        "mode": "fast", "parallelism": 1, "fmt": "plain", "timings": False,
    }
    assert VerifyReport._fields == ("point", "lhs", "rhs", "equal")
    assert CellReport._fields == ("j", "n_min", "lhs", "rhs", "equal")


def test_cell_report_is_a_named_tuple_of_columns():
    """A cell holds lists, so it is not hashable, but its fields are
    fixed like every other value type's."""
    values = [6, 16]
    cell = CellReport(1, 1, values, values, [True, True])
    assert repr(cell) == "CellReport(j=1, n_min=1, lhs=[6, 16], rhs=[6, 16], equal=[True, True])"
    assert pickle.loads(pickle.dumps(cell)) == cell
    with pytest.raises(AttributeError):
        cell.lhs = []
    with pytest.raises(AttributeError):
        cell.extra = 1


def test_checks_run_again_on_unpickling(monkeypatch):
    seen = []
    monkeypatch.setattr(identity, "_check_run", lambda *run: seen.append(run))
    assert pickle.loads(pickle.dumps(POINT)) == POINT
    assert seen == [(2, 3, 3)]


# -- FallingPoly -------------------------------------------------------------

def test_falling_poly_trims_any_iterable():
    assert FallingPoly([3, 0, 5, 0, 0]).coeffs == (3, 0, 5)
    assert FallingPoly(coeffs=iter([0, 0])).coeffs == ()
    assert FallingPoly((0, 0, 7)).coeffs == (0, 0, 7)
    assert FallingPoly([1, 2, 0]) == FallingPoly((1, 2))
    assert hash(FallingPoly([1, 2, 0])) == hash(FallingPoly((1, 2)))
    assert FallingPoly([1, 2, 0]).degree == 1
    assert type(FallingPoly([1]).coeffs) is tuple


# -- MapCountSpec against the coefficient-file loader ------------------------

JSON_SCALARS = st.one_of(
    st.integers(-3, 6),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-9, 9), st.integers(-2, 9)),
    st.text(alphabet="0123456789/-. xe", max_size=5),
)
JSON_VALUES = st.one_of(JSON_SCALARS, st.lists(JSON_SCALARS, max_size=2))
ANY_OBJECT = st.fixed_dictionaries(
    {"nu": JSON_VALUES, "g": JSON_VALUES, "a": st.lists(JSON_SCALARS, max_size=7)}
)
WEIGHTS = st.one_of(
    st.integers(-9, 9),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-9, 9), st.integers(1, 9)),
)
VALID_OBJECT = st.integers(1, 2).flatmap(lambda g: st.fixed_dictionaries({
    "nu": st.integers(2, 5),
    "g": st.just(g),
    "a": st.lists(WEIGHTS, min_size=3 * g, max_size=3 * g),
}))


def _outcome(build):
    try:
        return "ok", build()
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@given(obj=st.one_of(VALID_OBJECT, ANY_OBJECT), j=st.integers(-1, 4))
def test_spec_from_obj_agrees_with_map_count_spec(obj, j):
    """The loader accepts exactly what MapCountSpec accepts and fails with
    the same exception and message, except that the caller's j is checked
    first: a bad j fails as MapCountSpec fails for that j alone."""
    direct = _outcome(lambda: MapCountSpec(2, 1, j, (0, 0, 0)))
    if direct[0] == "ok":
        direct = _outcome(lambda: MapCountSpec(obj["nu"], obj["g"], j, tuple(obj["a"])))
    assert _outcome(lambda: mapcount_spec_from_obj(obj, j)) == direct
    if direct[0] == "ok":
        spec = direct[1]
        assert (spec.nu, spec.g, spec.j) == (obj["nu"], obj["g"], j)
        assert all(type(w) is Fraction for w in spec.a)
        assert spec.a == tuple(Fraction(w) for w in obj["a"])


def test_no_package_code_bypasses_the_checks():
    """_make and _replace build an instance without running its checks."""
    src = Path(__file__).parents[1] / "src" / "hypident"
    for path in src.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        assert "._make(" not in text and "._replace(" not in text, path.name

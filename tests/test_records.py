"""The package's records: equality and hash by value, refused assignment, and
pickling, which the worker processes of ``verify --all --jobs N`` rely on."""

import pickle
from fractions import Fraction

import pytest

from qtheta.chars import PeriodicFunction, psi_basis
from qtheta.cyclo import CycloNumber
from qtheta.identities import IdentityRecord
from qtheta.report import VerificationReport
from qtheta.series import Monomial, ProductSum, QSeries
from qtheta.wrt import Prefactor


def _lead(n):
    return n * n


def _factors(n):
    return ((n, 1, -1),) if n else ()


def _runner(truncation):
    return VerificationReport("", "pass", truncation)


#: (record, an equal record built another way, a field) per frozen class
VALUES = [
    (CycloNumber.root_of_unity(12, 5), CycloNumber.root_of_unity(24, 10), "order"),
    (Monomial.q(Fraction(3, 2), -2), Monomial(-2, num=6, den=4), "num"),
    (psi_basis(5, 2), PeriodicFunction(10, (0, 0, 1, 0, 0, 0, 0, 0, -1, 0)), "values"),
    (Prefactor(Fraction(1, 2), ((8, 1),), ((5, 2),)),
     Prefactor(minus_one=((5, 2),), roots=((8, 1),), scalar=Fraction(1, 2)), "scalar"),
    (IdentityRecord("id", "a record", 10, _runner, frozenset({"tag"})),
     IdentityRecord("id", "a record", 10, runner=_runner, tags=frozenset({"tag"})), "tags"),
    (ProductSum(_lead, _factors), ProductSum(_lead, _factors, start=0, constant=0), "lead"),
]


@pytest.mark.parametrize("record, twin, field", VALUES,
                         ids=[type(v[0]).__name__ for v in VALUES])
def test_frozen_records_are_values(record, twin, field):
    assert record is not twin and record == twin and hash(record) == hash(twin)
    assert repr(record) == repr(twin)
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is before
    copy = pickle.loads(pickle.dumps(record))
    assert copy == record and hash(copy) == hash(record)


def test_series_compare_by_identity():
    series = QSeries.make(1, 5, {0: 1, 3: Fraction(-2, 3)})
    twin = QSeries.make(1, 5, {0: 1, 3: Fraction(-2, 3)})
    assert series == series and series != twin and hash(series) != hash(twin)
    with pytest.raises(AttributeError):
        series.trunc = 6
    copy = pickle.loads(pickle.dumps(series))
    assert copy is not series and copy.text() == series.text()
    assert copy.first_mismatch(series) is None


def test_verification_report_is_a_mutable_value():
    report = VerificationReport("x", "fail", 12, Fraction(7), "detail")
    twin = VerificationReport(id="x", status="fail", truncation=12,
                              first_mismatch=Fraction(7), detail="detail")
    assert report == twin and report != VerificationReport("x", "fail")
    with pytest.raises(TypeError):
        hash(report)
    assert pickle.loads(pickle.dumps(report)) == report
    report.id = "y"  # IdentityRecord.run names the report after its record
    assert report.id == "y" and report != twin


def test_record_constructor_checks_its_fields():
    assert IdentityRecord("id", "a record", 10, _runner).tags == frozenset()
    with pytest.raises(TypeError, match="missing field 'runner'"):
        IdentityRecord("id", "a record", 10)
    with pytest.raises(TypeError, match="has no field 'tag'"):
        IdentityRecord("id", "a record", 10, _runner, tag=frozenset())
    with pytest.raises(TypeError, match="got 'id' twice"):
        IdentityRecord("id", "a record", 10, _runner, id="other")
    with pytest.raises(TypeError, match="at most 5 fields"):
        IdentityRecord("id", "a record", 10, _runner, frozenset(), None)

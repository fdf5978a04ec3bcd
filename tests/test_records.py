"""The seven record classes: frozen, built by position or keyword, shown,
compared and hashed on their fields, and checked by their guards."""

import pytest

from tdpair121 import (
    AdmissibilityReport,
    DerivedParams,
    EigenData,
    EtaVectors,
    Field,
    Matrix,
    ParameterArray,
    QQ,
    TDSystem,
    VerificationReport,
)

F7 = Field(7)
I7 = Matrix.identity(F7, 4)
D7 = Matrix.diagonal(F7, [1, 2, 2, 3])
T7 = (F7(1), F7(2), F7(3))
Q4 = (QQ(1), QQ(-2), QQ(1) / QQ(3), QQ(0))

# each class: field names, the values of one record and of another that
# differs from it, the record's repr, and a list of values its guards refuse
# with the error they raise (None where the class has no guard)
RECORDS = [
    (EigenData, ("eigenvalues", "multiplicities", "eigenspaces", "diagonalizable"),
     ((QQ(1), QQ(2)), (1, 3), (), False), ((QQ(1), QQ(2)), (3, 1), (), False),
     "EigenData(eigenvalues=(Q(1), Q(2)), multiplicities=(1, 3), eigenspaces=(), "
     "diagonalizable=False)", None),
    (TDSystem, ("A", "Astar", "theta", "thetastar", "E", "Estar"),
     (D7, I7, T7, T7, (), ()), (I7, D7, T7, T7, (), ()),
     "TDSystem(A=Matrix[1 0 0 0; 0 2 0 0; 0 0 2 0; 0 0 0 3], "
     "Astar=Matrix[1 0 0 0; 0 1 0 0; 0 0 1 0; 0 0 0 1], theta=(F7(1), F7(2), F7(3)), "
     "thetastar=(F7(1), F7(2), F7(3)), E=(), Estar=())",
     ((D7, I7, list(T7), T7, (), ()), TypeError, "expected a tuple, got list")),
    (VerificationReport, ("diagonalizable_a", "diagonalizable_astar", "tridiagonal_astar_e",
                          "tridiagonal_a_estar", "irreducible", "shape", "witness", "skipped"),
     (True, True, False, True, False, None, None, ("irreducible",)),
     (True, True, True, True, True, (1, 2, 1), None, ()),
     "VerificationReport(diagonalizable_a=True, diagonalizable_astar=True, "
     "tridiagonal_astar_e=False, tridiagonal_a_estar=True, irreducible=False, shape=None, "
     "witness=None, skipped=('irreducible',))", None),
    (ParameterArray, ("field", "theta", "thetastar", "varphi", "phi"),
     (F7, T7, T7[::-1], F7(4), F7(5)), (F7, T7, T7, F7(4), F7(5)),
     "ParameterArray(field=GF(7), theta=(F7(1), F7(2), F7(3)), "
     "thetastar=(F7(3), F7(2), F7(1)), varphi=F7(4), phi=F7(5))",
     ((F7, T7, T7, F7(4), QQ(5)), TypeError, r"expected an element of GF\(7\), got one of QQ")),
    (DerivedParams, ("varphi1", "varphi2", "phi1", "phi2"), Q4, Q4[::-1],
     "DerivedParams(varphi1=Q(1), varphi2=Q(-2), phi1=Q(1/3), phi2=Q(0))", None),
    (AdmissibilityReport, ("ok", "failed"), (False, ("(i)", "(iii)")), (True, ()),
     "AdmissibilityReport(ok=False, failed=('(i)', '(iii)'))", None),
    (EtaVectors, ("eta0star", "eta0", "eta2", "eta2star"), (Q4, Q4, Q4, Q4[::-1]),
     (Q4, Q4, Q4, Q4), "EtaVectors(eta0star=(Q(1), Q(-2), Q(1/3), Q(0)), "
     "eta0=(Q(1), Q(-2), Q(1/3), Q(0)), eta2=(Q(1), Q(-2), Q(1/3), Q(0)), "
     "eta2star=(Q(0), Q(1/3), Q(-2), Q(1)))", None),
]


@pytest.mark.parametrize("cls, names, values, other, text, guard", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_records_are_frozen_values(cls, names, values, other, text, guard):
    record = cls(*values)
    assert repr(record) == text
    assert tuple(getattr(record, n) for n in names) == values
    by_keyword = cls(**dict(zip(names, values)))
    mixed = cls(*values[:1], **dict(zip(names[1:], values[1:])))
    assert record == by_keyword == mixed and not record != by_keyword
    assert hash(record) == hash(by_keyword) == hash(mixed)
    different = cls(*other)
    assert record != different and not record == different
    # a record equals no other class's value, its tuple of fields included
    assert record != values and record != object()
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == text and record == by_keyword
    if guard is not None:
        bad, error, message = guard
        with pytest.raises(error, match=f"^{message}$"):
            cls(*bad)


def test_cached_values_stay_out_of_equality_hash_and_repr():
    pa = ParameterArray.make(F7, (1, 2, 3), (3, 2, 1), 4, 5)
    fresh = ParameterArray(*(getattr(pa, n) for n in ("field", "theta", "thetastar",
                                                      "varphi", "phi")))
    text = repr(pa)
    assert pa._admissibility.ok and "_admissibility" in vars(pa)
    assert pa == fresh and hash(pa) == hash(fresh) and repr(pa) == text == repr(fresh)

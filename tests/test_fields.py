import copy
import pickle
from fractions import Fraction

import pytest

import oracle
from tdpair121 import Field, FieldElement, Matrix, QQ, field_arith, parse_element


def test_parse_reduces_fractions():
    assert str(QQ.parse("3/6")) == "1/2"
    assert str(QQ.parse("-4/6")) == "-2/3"
    assert str(QQ.parse("7")) == "7"


def test_parse_prime_field_residues():
    f13 = Field(13)
    assert str(f13.parse("5")) == "5"
    assert str(f13.parse("-1")) == "12"
    # a/b means a * b^-1
    assert f13.parse("7/2") == f13(oracle.divide_mod(7, 2, 13))


def test_parse_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        QQ.parse("1/0")
    with pytest.raises(ZeroDivisionError):
        Field(13).parse("1/0")


def test_parse_denominator_divisible_by_p():
    with pytest.raises(ZeroDivisionError):
        Field(13).parse("1/26")


def test_parse_malformed():
    for text in ("", "a", "1/2/3", "1.5", "--3"):
        with pytest.raises(ValueError):
            QQ.parse(text)


def test_parse_accepts_only_ascii_digit_strings():
    # int() alone would read all of these as 10
    for text in ("1_0", "\u0661\u0660", "\uff11\uff10", "1/1_0", "10/\u0661"):
        for field in (QQ, Field(13)):
            with pytest.raises(ValueError):
                field.parse(text)
    for value in (2, Fraction(1, 2), 2.0, None, ["1"]):
        for field in (QQ, Field(13)):
            with pytest.raises(ValueError):
                field.parse(value)
    # the leniencies that stay: a sign, a non-canonical fraction, -1 mod p
    assert QQ.parse("-3/6") == QQ(Fraction(-1, 2))
    assert Field(13).parse("-1") == Field(13)(12)


def test_parse_refuses_whitespace_and_plus_signs():
    # int() alone would take all of these; " +1 / -2 " used to parse as -1/2
    for text in (" +1 / -2 ", " 1", "1 ", "+1", "1/+2", "1 /2", "1/ 2", "\t1", "1\n", "- 1"):
        for field in (QQ, Field(13)):
            with pytest.raises(ValueError):
                field.parse(text)
    # the grammar is ["-"] digits ["/" ["-"] digits]
    assert QQ.parse("3/6") == QQ(Fraction(1, 2))
    assert QQ.parse("007/-014") == QQ(Fraction(-1, 2))
    assert Field(7).parse("-1") == Field(7)(6)


def test_format_parse_roundtrip(rng):
    for field in (QQ, Field(13), Field(2)):
        for _ in range(200):
            if field.p:
                x = field(rng.randrange(field.p))
            else:
                x = field(Fraction(rng.randint(-40, 40), rng.randint(1, 12)))
            assert field.parse(str(x)) == x


def test_rational_arithmetic_examples():
    assert QQ(Fraction(1, 2)) + QQ(Fraction(1, 3)) == QQ(Fraction(5, 6))
    assert field_arith(QQ("1/2"), QQ("1/3"), "add") == QQ("5/6")
    assert field_arith(QQ("1/2"), QQ("1/3"), "sub") == QQ("1/6")
    assert field_arith(QQ("-1/2"), QQ("1/3"), "mul") == QQ("-1/6")
    assert QQ("-1/2") < QQ("1/3") and not QQ("1/3") < QQ("1/3")
    assert [bool(x) for x in (QQ("1/3"), QQ(0), Field(13)(1), Field(13)(13))] == \
        [True, False, True, False]


def test_prime_field_division_matches_exhaustive_search():
    f13 = Field(13)
    expected = oracle.divide_mod(7, 2, 13)
    assert field_arith(f13(7), f13(2), "div") == f13(expected)
    assert expected == 10


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        field_arith(QQ(1), QQ(0), "div")
    with pytest.raises(ZeroDivisionError):
        Field(13)(5) / Field(13)(0)


def test_descriptor_mismatch():
    with pytest.raises(ValueError):
        QQ(1) + Field(13)(1)
    with pytest.raises(ValueError):
        Field(5)(1) * Field(7)(1)
    with pytest.raises(ValueError):
        QQ(1) < Field(13)(2)


def test_characteristic_must_be_prime():
    for p in (1, 4, 6, 9, 100):
        with pytest.raises(ValueError):
            Field(p)
    assert [Field(p).characteristic for p in (2, 3, 97)] == [2, 3, 97]
    assert QQ.characteristic == 0


def test_primality_matches_sieve():
    from tdpair121.fields import _is_prime
    n = 20000
    sieve = [False, False] + [True] * (n - 2)
    for i in range(2, n):
        if sieve[i]:
            for j in range(i * i, n, i):
                sieve[j] = False
    assert [k for k in range(n) if _is_prime(k)] == [k for k in range(n) if sieve[k]]


def test_characteristic_rejects_pseudoprimes():
    # Carmichael numbers, and a strong pseudoprime to the bases 2, 3, 5, 7
    for n in (561, 41041, 3215031751):
        with pytest.raises(ValueError):
            Field(n)


def test_large_prime_characteristic_is_fast():
    import time
    t0 = time.perf_counter()
    assert Field(10**16 + 61).p == 10**16 + 61
    Field(2**61 - 1)
    assert time.perf_counter() - t0 < 1.0


def test_characteristic_beyond_certified_range_rejected():
    from tdpair121.fields import _is_prime
    limit = 3317044064679887385961981  # a strong pseudoprime to all 13 bases
    assert _is_prime(limit - 1) is False
    for n in (limit, 2**127 - 1):
        with pytest.raises(ValueError):
            Field(n)


def test_field_axioms_random_triples(rng):
    for field in (QQ, Field(13), Field(2), Field(3)):
        for _ in range(150):
            if field.p:
                a, b, c = (field(rng.randrange(field.p)) for _ in range(3))
            else:
                a, b, c = (field(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
                           for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a + b == b + a
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert a + (-a) == field.zero
            if not b.is_zero:
                assert (a + b) - b == a
                assert (a * b) / b == a
                assert b * b.inverse() == field.one


def test_exactness_no_drift():
    x = QQ(Fraction(1, 3))
    acc = QQ.zero
    for _ in range(300):
        acc = acc + x
    assert acc == QQ(100)


def test_descriptor_json_roundtrip():
    for field in (QQ, Field(13), Field(2)):
        assert Field.from_json(field.to_json()) == field
    assert QQ.to_json() == {"kind": "Q"}
    assert Field(13).to_json() == {"kind": "Fp", "p": 13}
    with pytest.raises(ValueError):
        Field.from_json({"kind": "R"})


def test_canonical_form_unique(rng):
    # equal elements built along different routes have identical reprs
    f13 = Field(13)
    assert str(f13(20)) == str(f13(7)) == "7"
    a = QQ("2/4") + QQ("0")
    b = QQ("1/2") * QQ("1")
    assert str(a) == str(b) == "1/2"


def test_unknown_arith_op():
    with pytest.raises(ValueError):
        field_arith(QQ(1), QQ(1), "pow")


def test_parse_element_helper():
    assert parse_element("3/6", QQ) == QQ("1/2")


def test_field_is_interned_through_pickle_and_copy():
    assert Field(0) is QQ
    for p in (0, 2, 101, 2**31 - 1):
        field = Field(p)
        assert Field(p) is field
        assert pickle.loads(pickle.dumps(field)) is field
        assert copy.copy(field) is field and copy.deepcopy(field) is field
        with pytest.raises(AttributeError):
            field.p = 11
        assert field.p == p
        m = Matrix(field, [[1, 2], [3, 4]])
        for clone in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m)):
            assert clone.field is field and clone == m
            assert all(x.field is field for r in clone.rows for x in r)


@pytest.mark.parametrize("value", [2.5, 2.0, 0.1, True, False])
def test_coercion_rejects_inexact_and_foreign_values(value):
    for field in (QQ, Field(7)):
        with pytest.raises(TypeError):
            field(value)


@pytest.mark.parametrize("p", [7.0, 7.9, "7", True, None])
def test_characteristic_must_be_an_int(p):
    with pytest.raises(TypeError):
        Field(p)
    with pytest.raises(ValueError):
        Field.from_json({"kind": "Fp", "p": p})
    # a rejected float never takes the place of the int characteristic
    assert type(Field(7).p) is int


@pytest.mark.parametrize("field", [QQ, Field(7)])
@pytest.mark.parametrize("value", [
    3, -10, Fraction(5, 3), Fraction(1, 7), "4/6", "-2", QQ(2), Field(7)(3), Field(5)(1),
    "1/0", "1.5", " 3", True, 1.5, None, [1],
])
def test_field_element_constructor_coerces_and_raises_as_the_field(field, value):
    # FieldElement(field, value) is field(value) in another spelling: the
    # same element, or the same exception type and message
    try:
        want = field(value)
    except Exception as exc:
        with pytest.raises(type(exc)) as info:
            FieldElement(field, value)
        assert type(info.value) is type(exc) and str(info.value) == str(exc)
    else:
        got = FieldElement(field, value)
        assert type(got) is FieldElement and got == want and got.field is field
        assert type(got.val) is type(want.val) and got.val == want.val

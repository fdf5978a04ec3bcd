"""The documented errors of the public API, each checked for its type and
its exact message."""

import pytest

from tdpair121 import (
    BasisId,
    D4Word,
    Decomposition,
    Field,
    Matrix,
    ParameterArray,
    QQ,
    Subspace,
    TDSystem,
    admissible,
    basis_matrix,
    canonical_matrices,
    canonical_seed,
    charpoly,
    common_invariant_subspace,
    construct,
    derived_of_relative_consistency,
    derived_params,
    eigen_data,
    eta_vectors,
    extract_parameter_array,
    find_td_orderings,
    parse_element,
    poly_roots,
    primitive_idempotents,
    relative,
    represent,
    represent_formula,
    shape,
    split_decomposition,
    transition_formula,
    transition_numeric,
    verify_split_actions,
    verify_td_system,
)

P0 = ParameterArray.make(QQ, (1, 0, -1), (1, 0, -1), 2, 1)
TDS = construct(P0)
A, ASTAR, THETA = TDS.A, TDS.Astar, TDS.theta
GRID = [[1, 0, 0, 0]] * 4  # a grid of a Matrix's shape that is no Matrix
D = Matrix.diagonal(QQ, [1, 2, 2, 3])
SZD, SZZ = BasisId.SPLIT_ZD, BasisId.SPLIT_ZZ
GF7_TDS = construct(ParameterArray.make(Field(7), (1, 2, 3), (4, 5, 6), 3, 2))
F7 = GF7_TDS.field
NO_ESTAR0 = dict(Estar=(Matrix(F7, [[0] * 4] * 4), *GF7_TDS.Estar[1:]))
F101 = Field(101)
GF101_PA = ParameterArray.make(F101, (1, 2, 3), (5, 7, 11), 13, 17)
GF101_A, GF101_ASTAR = canonical_matrices(GF101_PA)
GF101_REST = (GF101_PA.thetastar, GF101_PA.varphi, GF101_PA.phi)


def _system(**fields):
    """GF7_TDS with the given fields replaced, built field by field."""
    t = GF7_TDS
    return TDSystem(*(fields.get(k, getattr(t, k))
                      for k in ("A", "Astar", "theta", "thetastar", "E", "Estar")))


@pytest.mark.parametrize("call, message", [
    (lambda: represent(TDS, "B", BasisId.SPLIT_ZD), "operator must be 'A' or 'Astar'"),
    (lambda: represent_formula(P0, "B", BasisId.SPLIT_ZD), "operator must be 'A' or 'Astar'"),
    (lambda: basis_matrix(TDS, "x"), "unknown basis 'x'"),
    (lambda: Matrix.identity(QQ, 4).apply((1, 2, 3)), "vector length does not match the matrix"),
    (lambda: charpoly(Matrix(QQ, [[1, 2, 3], [4, 5, 6]])),
     "characteristic polynomial of a non-square matrix"),
    (lambda: poly_roots(QQ, [0, 0]), "the zero polynomial has every element as a root"),
    (lambda: split_decomposition(TDS, "[0D]"), "unknown decomposition '[0D]'"),
    (lambda: ParameterArray.make(QQ, (1, 2), (1, 2, 3), 1, 1),
     "eigenvalue sequences must have length 3"),
    (lambda: D4Word("x"), "unknown generator 'x'"),
    (lambda: eta_vectors(TDS, (1, 2)), "seed vector must have 4 coordinates"),
    (lambda: Subspace.zero(QQ, 4).matrix(), "the zero subspace has no basis matrix"),
    (lambda: QQ.elements(), "cannot enumerate the rationals"),
    (lambda: eta_vectors(TDSystem.from_matrices(D, D, (1, 2, 3), (1, 2, 3))),
     "chain vector eta2 vanished; input is not a shape-(1,2,1) system"),
    (lambda: Subspace(QQ, -1, []), "ambient dimension must not be negative"),
    # thetastar[0] = 0 is no eigenvalue of A*, whose V*_0 is then zero; the
    # message named a zero projector, where such a system holds none
    (lambda: extract_parameter_array(
        _system(thetastar=(F7(0), *GF7_TDS.thetastar[1:]), E=(), Estar=())),
     "thetastar[0] is not an eigenvalue of A*: its eigenspace V*_0 is zero"),
    (lambda: canonical_seed(_system(**NO_ESTAR0)), "zero projector"),
    (lambda: eta_vectors(_system(**NO_ESTAR0)), "zero projector"),
    (lambda: basis_matrix(_system(**NO_ESTAR0), SZD), "zero projector"),
    # a string row was read as its characters: ["12", "34"] was [[1, 2],
    # [3, 4]], ["1000", "0200", "0030", "0004"] diag(1, 2, 3, 4), and "ab"
    # failed as the malformed element 'a'
    (lambda: Matrix.from_json(QQ, ["12", "34"]),
     "a matrix is a JSON list of lists, got ['12', '34']"),
    (lambda: Matrix.from_json(QQ, ["1000", "0200", "0030", "0004"]),
     "a matrix is a JSON list of lists, got ['1000', '0200', '0030', '0004']"),
    (lambda: Matrix.from_json(QQ, "ab"), "a matrix is a JSON list of lists, got 'ab'"),
    (lambda: Matrix.from_json(QQ, [["1"], "2"]),
     "a matrix is a JSON list of lists, got [['1'], '2']"),
    # a missing key raised a bare KeyError('phi')
    (lambda: ParameterArray.from_json({k: v for k, v in P0.to_json().items() if k != "phi"}),
     "a parameter array needs the key 'phi'"),
    (lambda: ParameterArray.from_json({}), "a parameter array needs the key 'field'"),
    (lambda: Field.from_json({"kind": "Fp"}), "an Fp field descriptor needs the key 'p'"),
])
def test_documented_value_errors(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError and str(info.value) == message


@pytest.mark.parametrize("junk", [None, GRID])
@pytest.mark.parametrize("call", [
    lambda x: verify_td_system(x, ASTAR, THETA, THETA),
    lambda x: verify_td_system(A, x, THETA, THETA),
    lambda x: find_td_orderings(x, ASTAR),
    lambda x: find_td_orderings(A, x),
    lambda x: common_invariant_subspace(x, ASTAR),
    lambda x: common_invariant_subspace(A, x),
    lambda x: TDSystem.from_matrices(x, ASTAR, THETA, THETA),
    lambda x: TDSystem.from_matrices(A, x, THETA, THETA),
    lambda x: eigen_data(x),
    lambda x: charpoly(x),
    lambda x: primitive_idempotents(x, [1]),
])
def test_calls_on_a_non_matrix_fail_closed(call, junk):
    # each raised AttributeError, which no documented error covers
    with pytest.raises(TypeError, match=f"^expected a Matrix, got {type(junk).__name__}$"):
        call(junk)


@pytest.mark.parametrize("call, expected, junk", [
    (lambda x: shape(x), "TDSystem", None),
    (lambda x: split_decomposition(x, Decomposition.Z_D), "TDSystem", None),
    (lambda x: verify_split_actions(x), "TDSystem", None),
    (lambda x: extract_parameter_array(x), "TDSystem", None),
    (lambda x: eta_vectors(x), "TDSystem", None),
    (lambda x: canonical_seed(x), "TDSystem", None),
    (lambda x: basis_matrix(x, SZD), "TDSystem", None),
    (lambda x: represent(x, "A", SZD), "TDSystem", None),
    (lambda x: transition_numeric(x, SZD, SZZ), "TDSystem", None),
    (lambda x: construct(x), "ParameterArray", None),
    (lambda x: admissible(x), "ParameterArray", None),
    (lambda x: derived_params(x), "ParameterArray", None),
    (lambda x: canonical_matrices(x), "ParameterArray", None),
    (lambda x: derived_of_relative_consistency(x), "ParameterArray", None),
    (lambda x: represent_formula(x, "A", SZD), "ParameterArray", None),
    (lambda x: transition_formula(x, SZD, SZZ), "ParameterArray", None),
    (lambda x: relative(x, "d"), "ParameterArray", None),
    (lambda x: D4Word("d") * x, "D4Word", "d"),
    (lambda x: Matrix.identity(x, 2), "Field", None),
    (lambda x: Matrix.zeros(x, 2, 2), "Field", None),
    (lambda x: Matrix.from_json(x, [["1"]]), "Field", None),
    (lambda x: Subspace(x, 4, []), "Field", None),
    (lambda x: Subspace.zero(x, 4), "Field", None),
    (lambda x: Subspace.column_space(x), "Matrix", None),
    (lambda x: poly_roots(x, []), "Field", None),
    (lambda x: poly_roots(x, ()), "Field", "1/2"),
    (lambda x: poly_roots(x, [1]), "Field", None),
    # a list was kept, so the array could not be hashed and compared
    # unequal to the one ParameterArray.make builds
    pytest.param(lambda x: ParameterArray(F101, x, *GF101_REST), "tuple",
                 list(GF101_PA.theta), id="ParameterArray-theta-list"),
    pytest.param(lambda x: ParameterArray(F101, GF101_PA.theta, x, *GF101_REST[1:]), "tuple",
                 list(GF101_PA.thetastar), id="ParameterArray-thetastar-list"),
])
def test_calls_on_the_wrong_type_fail_closed(call, expected, junk):
    # each raised AttributeError, which no documented error covers, or for
    # poly_roots with coefficients "'NoneType' object is not callable"
    with pytest.raises(TypeError, match=f"^expected a {expected}, got {type(junk).__name__}$"):
        call(junk)


@pytest.mark.parametrize("call", [
    lambda: Matrix(QQ, ["12", "34"]),
    lambda: Matrix(Field(7), "12"),
    lambda: Matrix.from_columns(QQ, ["12"]),
    lambda: Matrix.diagonal(QQ, "12"),
    lambda: Matrix.identity(QQ, 2).apply("12"),
    lambda: poly_roots(QQ, "12"),
    lambda: Subspace(QQ, 2, ["12"]),
    lambda: Subspace(QQ, 2).contains("12"),
    lambda: eta_vectors(TDS, "1234"),
    lambda: verify_td_system(GF101_A, GF101_ASTAR, "123", "579"),
    lambda: TDSystem.from_matrices(GF101_A, GF101_ASTAR, "123", "579"),
    lambda: primitive_idempotents(GF101_A, "123"),
    lambda: ParameterArray.make(F101, "123", "579", 13, 17),
])
def test_a_str_is_not_a_vector(call):
    # a string was read as the sequence of its characters: Matrix(QQ, ["12",
    # "34"]) was [[1, 2], [3, 4]] and poly_roots(QQ, "12") the root -1/2;
    # as a list of eigenvalues, "579" was (5, 7, 9), so verify_td_system
    # reported on theta* = (5, 7, 9) and ParameterArray.make built it
    with pytest.raises(TypeError, match="^expected a vector, got str$"):
        call()


@pytest.mark.parametrize("call, expected, junk", [
    (lambda x: Subspace(QQ, x, []), "an int", None),
    (lambda x: Subspace(QQ, x, []), "an int", True),
    (lambda x: parse_element("1", x), "a Field", None),
    (lambda x: basis_matrix(TDS, SZD, x), "an EtaVectors", (1, 2)),
    (lambda x: represent(TDS, "A", SZD, x), "an EtaVectors", (1, 2)),
    (lambda x: ParameterArray(x, (1, 0, -1), (1, 0, -1), 2, 1), "a Field", None),
    # None was called on the eigenvalues: "'NoneType' object is not callable"
    pytest.param(lambda x: ParameterArray.make(x, (1, 2, 3), (5, 7, 11), 13, 17), "a Field",
                 None, id="make-field"),
    (lambda x: admissible(ParameterArray(QQ, (x, 0, -1), (1, 0, -1), 2, 1)), "a FieldElement", 1),
    # True was read as the size 1
    pytest.param(lambda x: Matrix.identity(QQ, x), "an int", True, id="identity-size"),
    pytest.param(lambda x: Matrix.zeros(QQ, x, 2), "an int", True, id="zeros-nrows"),
    pytest.param(lambda x: Matrix.zeros(QQ, 2, x), "an int", True, id="zeros-ncols"),
])
def test_argument_checks_name_the_expected_type(call, expected, junk):
    # each raised AttributeError or nothing, which no documented error covers
    with pytest.raises(TypeError, match=f"^expected {expected}, got {type(junk).__name__}$"):
        call(junk)


@pytest.mark.parametrize("word", [None, ["d"], ("d",), 1])
def test_relative_takes_only_a_str_or_a_d4word(word):
    with pytest.raises(TypeError, match=f"^expected a str or a D4Word, got {type(word).__name__}$"):
        relative(P0, word)
    assert relative(P0, "d") == relative(P0, D4Word("d"))


def test_parameter_array_holds_elements_of_its_field():
    # an element of another field raised nothing until a formula mixed them
    with pytest.raises(TypeError, match=r"^expected an element of QQ, got one of GF\(5\)$"):
        ParameterArray(QQ, P0.theta, P0.thetastar, Field(5)(2), P0.phi)


@pytest.mark.parametrize("fields, error, message", [
    (dict(theta=(1, 2, 3)), TypeError, "expected a FieldElement, got int"),
    (dict(theta=list(GF7_TDS.theta)), TypeError, "expected a tuple, got list"),
    (dict(A=None), TypeError, "expected a Matrix, got NoneType"),
    (dict(E=list(GF7_TDS.E)), TypeError, "expected a tuple, got list"),
    (dict(Estar=(None,) * 3), TypeError, "expected a Matrix, got NoneType"),
    (dict(thetastar=GF7_TDS.thetastar[:2]), ValueError, "eigenvalue lists must have length 3"),
    (dict(theta=(QQ(1), QQ(2), QQ(3))), ValueError, "element of QQ is not in GF(7)"),
    (dict(A=Matrix.identity(Field(7), 3)), ValueError, "both matrices must be 4x4"),
    (dict(Astar=Matrix.identity(QQ, 4)), ValueError, "matrices live over different fields"),
    (dict(E=GF7_TDS.E[:2]), ValueError,
     "E and Estar must each be () or three 4x4 matrices over the field of A"),
    (dict(Estar=(Matrix.identity(QQ, 4),) * 3), ValueError,
     "E and Estar must each be () or three 4x4 matrices over the field of A"),
], ids=["int-theta", "list-theta", "no-A", "list-E", "no-Estar", "short-thetastar",
        "theta-of-QQ", "3x3-A", "mixed-fields", "two-E", "Estar-of-QQ"])
def test_system_built_field_by_field_fails_closed(fields, error, message):
    # each was accepted, and every system function then raised an
    # undocumented AttributeError, IndexError, TypeError or SingularMatrixError
    with pytest.raises(error) as info:
        _system(**fields)
    assert type(info.value) is error and str(info.value) == message


def test_system_built_field_by_field_keeps_its_idempotents_optional():
    assert _system(E=(), Estar=()).to_json() == GF7_TDS.to_json()
    assert _system() == GF7_TDS

import pytest

import oracle
from conftest import (
    random_admissible_array,
    random_array,
    random_array_with_denominators,
    random_boundary_array,
)
from tdpair121 import (
    D4Word,
    FLIP_DUAL,
    FLIP_PRIMARY,
    Matrix,
    ParameterArray,
    QQ,
    SWAP,
    admissible,
    canonical_matrices,
    construct,
    derived_of_relative_consistency,
    derived_params,
    extract_parameter_array,
    relative,
    verify_td_system,
)


def test_derived_params_worked_instance(p0):
    dp = derived_params(p0)
    assert (dp.varphi1.val, dp.varphi2.val, dp.phi1.val, dp.phi2.val) == oracle.P0_DERIVED
    assert oracle.derived_formulas(
        oracle.P0_THETA, oracle.P0_THETASTAR, oracle.P0_VARPHI, oracle.P0_PHI
    ) == oracle.P0_DERIVED


def test_derived_params_equal_split_scalars_case(rng):
    # with varphi == phi the difference quotient vanishes
    for _ in range(20):
        pa = random_array_with_denominators(rng, QQ)
        pa = ParameterArray(pa.field, pa.theta, pa.thetastar, pa.varphi, pa.varphi)
        dp = derived_params(pa)
        assert dp.varphi1 == -(pa.theta[0] - pa.theta[1]) * (pa.thetastar[0] - pa.thetastar[1])


def test_derived_params_denominator_errors(p0):
    bad = ParameterArray(QQ, (p0.theta[0], p0.theta[1], p0.theta[0]),
                         p0.thetastar, p0.varphi, p0.phi)
    with pytest.raises(ValueError):
        derived_params(bad)
    bad = ParameterArray(QQ, p0.theta,
                         (p0.thetastar[2], p0.thetastar[1], p0.thetastar[2]),
                         p0.varphi, p0.phi)
    with pytest.raises(ValueError):
        derived_params(bad)


def test_derived_params_divide_once(monkeypatch, rng, gf101):
    # the four scalars share d = (phi - varphi)/((t0 - t2)(s0 - s2)), the
    # one field division (the four quotients of the paper took four), and
    # still agree with the oracle's direct evaluation of those quotients
    from tdpair121.fields import FieldElement

    calls = []
    real = FieldElement.__truediv__
    monkeypatch.setattr(FieldElement, "__truediv__", lambda a, b: calls.append(b) or real(a, b))
    for field in (QQ, gf101):
        for _ in range(40):
            pa = random_array_with_denominators(rng, field)
            calls.clear()
            dp = derived_params(pa)
            assert len(calls) == 1
            got = (dp.varphi1.val, dp.varphi2.val, dp.phi1.val, dp.phi2.val)
            args = ([x.val for x in pa.theta], [x.val for x in pa.thetastar],
                    pa.varphi.val, pa.phi.val)
            assert got == (oracle.derived_formulas_mod(field.p, *args) if field.p
                           else oracle.derived_formulas(*args))


def test_product_identity_random(rng, gf101):
    for field in (QQ, gf101):
        for _ in range(300):
            pa = random_array_with_denominators(rng, field)
            dp = derived_params(pa)
            assert pa.varphi - dp.varphi1 * dp.varphi2 == pa.phi - dp.phi1 * dp.phi2


def test_product_identity_value_at_p0(p0):
    dp = derived_params(p0)
    gap = p0.varphi - dp.varphi1 * dp.varphi2
    assert gap.val == oracle.P0_IDENTITY_SIDES
    assert (p0.phi - dp.phi1 * dp.phi2).val == oracle.P0_IDENTITY_SIDES


def test_admissible_worked_instance(p0):
    report = admissible(p0)
    assert report.ok and report.failed == ()
    dp = derived_params(p0)
    assert (dp.varphi1 * dp.varphi2).val == oracle.P0_VARPHI1_VARPHI2


def test_admissible_condition_i(p0):
    bad = ParameterArray(QQ, (p0.theta[0], p0.theta[0], p0.theta[2]),
                         p0.thetastar, p0.varphi, p0.phi)
    report = admissible(bad)
    assert not report.ok and report.failed == ("(i)",)


def test_admissible_condition_ii(p0):
    bad = ParameterArray(QQ, p0.theta, p0.thetastar, QQ.zero, p0.phi)
    report = admissible(bad)
    assert not report.ok and "(ii)" in report.failed


def test_admissible_condition_iii(rng):
    pa = random_boundary_array(rng, QQ)
    assert admissible(pa).failed == ("(iii)",)


def test_construct_worked_instance_matrices(p0):
    tds = construct(p0)
    assert tds.A == Matrix(QQ, oracle.P0_A_ROWS)
    assert tds.Astar == Matrix(QQ, oracle.P0_ASTAR_ROWS)


def test_construct_estar2_column(p0):
    # single nonzero column, computed independently by squaring-checkable
    # direct product in the oracle constants
    tds = construct(p0)
    estar2 = tds.Estar[2]
    for j in range(4):
        expected = oracle.P0_ESTAR2_COLUMN if j == 3 else (0, 0, 0, 0)
        assert estar2.col(j) == tuple(QQ(x) for x in expected)
    assert estar2 * estar2 == estar2


def test_construct_rejects_inadmissible(p0):
    bad = ParameterArray(QQ, p0.theta, p0.thetastar, QQ.zero, p0.phi)
    with pytest.raises(ValueError):
        construct(bad)


def test_canonical_matrices_available_on_boundary(rng):
    pa = random_boundary_array(rng, QQ)
    a, astar = canonical_matrices(pa)
    report = verify_td_system(a, astar, pa.theta, pa.thetastar)
    assert not report.irreducible and report.witness is not None


def test_extract_roundtrip(p0):
    assert extract_parameter_array(construct(p0)) == p0


def test_extract_roundtrip_random(rng, gf101):
    for field in (QQ, gf101):
        for _ in range(10):
            pa = random_admissible_array(rng, field)
            assert extract_parameter_array(construct(pa)) == pa


def test_extract_invariant_under_conjugation(rng, p0):
    from conftest import random_invertible
    from tdpair121 import TDSystem
    tds = construct(p0)
    for _ in range(5):
        s = random_invertible(rng, QQ, Matrix)
        si = s.invert()
        conj = TDSystem.from_matrices(s * tds.A * si, s * tds.Astar * si,
                                      tds.theta, tds.thetastar)
        assert extract_parameter_array(conj) == p0


def test_extract_read_once_per_system(rng, gf101):
    for field in (QQ, gf101):
        tds = construct(random_admissible_array(rng, field))
        first = extract_parameter_array(tds)
        again = extract_parameter_array(tds)
        assert again == first
        assert again is first


def test_failed_extraction_raises_on_every_call():
    # cached_property stores no exception, so a failure is not remembered
    # as a result: the second call raises too
    from tdpair121 import TDSystem
    a = Matrix.diagonal(QQ, [0, 1, 1, 2])
    vanishing = TDSystem.from_matrices(a, Matrix.diagonal(QQ, [5, 3, 3, 0]),
                                       (0, 1, 2), (5, 3, 0))
    sa = Matrix(QQ, [[0, 0, -1, -1], [-1, -1, -1, -1], [-2, 2, -1, 0], [-2, 1, -1, 2]])
    ss = Matrix(QQ, [[-2, 0, -1, -2], [0, 1, 1, -1], [0, 0, -1, 1], [2, 2, 1, 0]])
    shearing = TDSystem.from_matrices(
        sa * a * sa.invert(), ss * Matrix.diagonal(QQ, [3, 3, 5, 7]) * ss.invert(),
        (0, 1, 2), (3, 5, 7))
    for tds, match in ((vanishing, "vanish"), (shearing, "as a scalar")):
        for _ in range(2):
            with pytest.raises(ValueError, match=match):
                extract_parameter_array(tds)


def test_extract_split_scalars_nonzero(rng, gf101):
    for field in (QQ, gf101):
        for _ in range(10):
            pa = random_admissible_array(rng, field)
            got = extract_parameter_array(construct(pa))
            assert not got.varphi.is_zero and not got.phi.is_zero


def test_extract_rejects_vanishing_split_scalar():
    a = Matrix.diagonal(QQ, [0, 1, 1, 2])
    astar = Matrix.diagonal(QQ, [5, 3, 3, 0])
    from tdpair121 import TDSystem
    tds = TDSystem.from_matrices(a, astar, (QQ(0), QQ(1), QQ(2)),
                                 (QQ(5), QQ(3), QQ(0)))
    with pytest.raises(ValueError, match="vanish"):
        extract_parameter_array(tds)


def test_extract_rejects_non_scalar_action():
    # first dual eigenspace is a plane the quartic product shears
    from tdpair121 import TDSystem
    sa = Matrix(QQ, [[0, 0, -1, -1], [-1, -1, -1, -1],
                     [-2, 2, -1, 0], [-2, 1, -1, 2]])
    ss = Matrix(QQ, [[-2, 0, -1, -2], [0, 1, 1, -1],
                     [0, 0, -1, 1], [2, 2, 1, 0]])
    a = sa * Matrix.diagonal(QQ, [0, 1, 1, 2]) * sa.invert()
    astar = ss * Matrix.diagonal(QQ, [3, 3, 5, 7]) * ss.invert()
    tds = TDSystem.from_matrices(a, astar, (QQ(0), QQ(1), QQ(2)),
                                 (QQ(3), QQ(5), QQ(7)))
    with pytest.raises(ValueError, match="does not act as a scalar"):
        extract_parameter_array(tds)


# -- dihedral action ----------------------------------------------------------

def test_relative_identity_word(p0):
    assert relative(p0, "") == p0
    assert relative(p0, D4Word()) == p0


def test_relative_flip_dual_worked_instance(p0):
    got = relative(p0, FLIP_DUAL)
    assert got == ParameterArray.make(QQ, (1, 0, -1), (-1, 0, 1), 1, 2)


def test_relative_generators_are_involutions(rng):
    for _ in range(50):
        pa = random_array(rng, QQ)
        for gen in (SWAP, FLIP_DUAL, FLIP_PRIMARY):
            assert relative(relative(pa, gen), gen) == pa


def test_word_reduction_canonical_forms():
    words = D4Word.all_elements()
    assert len(set(words)) == 8
    assert D4Word(SWAP + SWAP) == D4Word()
    assert D4Word(FLIP_PRIMARY + SWAP) == D4Word(SWAP + FLIP_DUAL)
    assert D4Word(FLIP_DUAL + SWAP) == D4Word(SWAP + FLIP_PRIMARY)
    assert D4Word(FLIP_DUAL + FLIP_PRIMARY) == D4Word(FLIP_PRIMARY + FLIP_DUAL)
    assert repr(D4Word()) == "D4Word(identity)"
    assert repr(D4Word(SWAP + FLIP_DUAL)) == "D4Word('D*')"
    # closure of the composition table
    for w1 in words:
        for w2 in words:
            assert w1 * w2 in set(words)


def test_reduced_word_action_matches_letterwise_action(rng):
    letters = (SWAP, FLIP_DUAL, FLIP_PRIMARY)
    for _ in range(40):
        pa = random_array(rng, QQ)
        raw = "".join(rng.choice(letters) for _ in range(rng.randint(0, 6)))
        stepwise = pa
        for letter in raw:
            stepwise = relative(stepwise, letter)
        assert relative(pa, raw) == stepwise


def test_admissibility_is_orbit_invariant(rng, gf101):
    for field in (QQ, gf101):
        for _ in range(40):
            pa = random_array(rng, field)
            ok = admissible(pa).ok
            for word in D4Word.all_elements():
                assert admissible(relative(pa, word)).ok == ok


def test_derived_of_relative_consistency_instances(monkeypatch, rng, p0, gf101):
    assert derived_of_relative_consistency(p0)
    for _ in range(25):
        assert derived_of_relative_consistency(
            random_admissible_array(rng, gf101))
    for _ in range(10):
        assert derived_of_relative_consistency(random_admissible_array(rng, QQ))
    # the check bites: with any one generator's permutation wrong, it fails
    from tdpair121 import params
    pa = random_admissible_array(rng, QQ)
    for letter, perm in list(params._DERIVED_SWAP.items()):
        with monkeypatch.context() as patch:
            patch.setitem(params._DERIVED_SWAP, letter, perm[::-1])
            assert not derived_of_relative_consistency(pa), letter


def test_centered_array_collapses_derived_params(rng):
    # equal split scalars with arithmetically centered sequences collapse
    # the four derived scalars into two opposite pairs
    for _ in range(20):
        mid = QQ(rng.randint(-4, 4))
        mids = QQ(rng.randint(-4, 4))
        h = QQ(rng.choice([x for x in range(-4, 5) if x]))
        k = QQ(rng.choice([x for x in range(-4, 5) if x]))
        vp = QQ(rng.randint(1, 5))
        sym = ParameterArray(QQ, (mid + h, mid, mid - h),
                             (mids + k, mids, mids - k), vp, vp)
        dp = derived_params(sym)
        assert dp.varphi1 == dp.varphi2
        assert dp.phi1 == dp.phi2
        assert dp.phi1 == -dp.varphi1


def test_parameter_array_json_roundtrip(p0, rng, gf101):
    assert ParameterArray.from_json(p0.to_json()) == p0
    pa = random_array(rng, gf101)
    assert ParameterArray.from_json(pa.to_json()) == pa

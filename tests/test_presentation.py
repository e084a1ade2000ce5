import random
from fractions import Fraction

import pytest

from conftest import GENERAL_DATA

from bskit.affine import AffineElement, aff_compose, j_affine
from bskit.arith import ConfigurationError, IntMatrix, Lattice
from bskit.embedding import enumerate_ball, properness_profile
from bskit.presentation import (GroupSpec, make_bs, make_matrix_group,
                                spec_from_dict)
from bskit.tree import BASE, neighbors
from bskit.words import T, X, britton_reduce, parse_word


def test_make_bs_23():
    spec = make_bs(2, 3)
    assert spec.n == 1
    assert spec.A.rows == ((2,),)
    assert spec.B.rows == ((3,),)
    assert spec.lam_scalar == Fraction(2, 3)
    assert abs(spec.A.det) + abs(spec.B.det) == 5  # tree degree


def test_make_bs_11_accepted():
    spec = make_bs(1, 1)
    assert spec.lam_scalar == 1
    assert abs(spec.A.det) + abs(spec.B.det) == 2  # tree degree


def test_make_bs_12_ascending_degrees():
    spec = make_bs(1, 2)
    assert spec.lam_scalar == Fraction(1, 2)
    assert abs(spec.A.det) == 1 and abs(spec.B.det) == 2
    # up-degree 1, down-degree 2 by neighbor enumeration
    nbrs = neighbors(BASE, spec)
    assert len(nbrs) == 3
    assert len(set(nbrs)) == 3


def test_make_bs_zero_rejected():
    with pytest.raises(ConfigurationError):
        make_bs(0, 3)
    with pytest.raises(ConfigurationError):
        make_bs(2, 0)


def test_matrix_group_ascending():
    spec = make_matrix_group([[2, 1], [0, 2]], [[1, 0], [0, 1]])
    assert abs(spec.A.det) + abs(spec.B.det) == 5  # tree degree
    assert len(neighbors(BASE, spec)) == 5


def test_matrix_group_identity_identity():
    spec = make_matrix_group([[1, 0], [0, 1]], [[1, 0], [0, 1]])
    # every t-pinch applies: t v[1,1] t^-1 is trivial against v[1,1]
    w = parse_word("t v[1,1] t^-1 v[-1,-1]", spec)
    assert britton_reduce(w, spec).is_identity


def test_matrix_group_rejects_bad_input():
    with pytest.raises(ConfigurationError):
        make_matrix_group([[1, 2], [2, 4]], [[1, 0], [0, 1]])
    with pytest.raises(ConfigurationError):
        make_matrix_group([[2]], [[1, 0], [0, 1]])
    # entries are integers, never truncated floats or bools
    for A, B in (([[2.7]], [[3]]), ([[2]], [[True]])):
        with pytest.raises(ConfigurationError, match="not an integer"):
            make_matrix_group(A, B)
    with pytest.raises(ConfigurationError, match="not an integer"):
        make_bs(2.0, 3)


def test_constructor_consistency():
    s1 = make_bs(2, 3)
    s2 = make_matrix_group([[2]], [[3]])
    for text in ("t x^3 t^-1", "x^5 t", "t^-1 x^4 t"):
        w1 = britton_reduce(parse_word(text, s1), s1)
        w2 = britton_reduce(parse_word(text, s2), s2)
        assert w1 == w2
    for lat1, lat2 in ((s1.lattice_a, s2.lattice_a),
                       (s1.lattice_b, s2.lattice_b)):
        assert lat1.residues() == lat2.residues()


def test_residue_sizes_match_determinants():
    spec = make_matrix_group([[2, 1], [0, 2]], [[3, 0], [0, 1]])
    assert len(spec.lattice_a.residues()) == 4
    assert len(spec.lattice_b.residues()) == 3


def test_residues_are_built_on_first_read(monkeypatch):
    # |det A| + |det B| residues may not fit in memory (BS(10^8, 3)): only
    # the tree's neighbours read them, once per lattice per call, and no
    # datum holds them
    calls = []
    original = Lattice.residues
    monkeypatch.setattr(Lattice, "residues",
                        lambda lat: calls.append(lat.det) or original(lat))
    for spec in (make_bs(2, 3),
                 make_matrix_group([[2, 1], [0, 2]], [[1, 1], [1, -1]])):
        word = [T(1), X((1,) * spec.n), T(-1), X((2,) * spec.n), T(1)]
        britton_reduce(word, spec)
        j_affine(word, spec)
        enumerate_ball(3, spec)
        properness_profile(3, [1, 2], spec)
        assert calls == []
        neighbors(BASE, spec)
        neighbors(BASE, spec)
        assert calls == [spec.A.det, spec.B.det] * 2
        calls.clear()


def test_lambda_powers_through_compose():
    # aff_compose applies Lambda^k from the integer pairs: j(t^k) j(x)
    # is (k; lambda^k)
    spec = make_bs(2, 3)
    x = j_affine(parse_word("x", spec), spec)
    for k in range(-6, 7):
        tk = j_affine(parse_word(f"t^{k}", spec), spec)
        assert aff_compose(tk, x, spec) == AffineElement(
            k, (Fraction(2, 3) ** k,))


def test_lambda_pairs_match_a_b_inverse():
    # Lambda = A B^-1 = M/d and Lambda^-1 = B A^-1 = M'/d' as integer
    # pairs over positive denominators: M B = d A and M' A = d' B
    for A, B in (([[2]], [[3]]), ([[1]], [[-1]]), ([[-2]], [[-3]]),
                 ([[2, 1], [0, 2]], [[1, 1], [1, -1]]),
                 ([[3, 1], [1, 2]], [[-2, 1], [0, 1]]),
                 ([[1, 2], [3, 1]], [[2, 0], [1, 1]])):  # det A = -5
        spec = make_matrix_group(A, B)
        for (M, d), P, Q in ((spec.lam_int[1], spec.B, spec.A),
                             (spec.lam_int[-1], spec.A, spec.B)):
            assert d > 0
            assert (M @ P).rows == tuple(tuple(d * x for x in r)
                                         for r in Q.rows)
        if spec.n > 1:  # lambda is a fraction only for n = 1
            with pytest.raises(ConfigurationError, match="requires n = 1"):
                spec.lam_scalar
    # the sign moves into M: lambda keeps its value
    for (p, q), lam in (((2, -2), -1), ((1, -2), Fraction(-1, 2)),
                        ((-2, 3), Fraction(-2, 3))):
        assert make_bs(p, q).lam_scalar == lam


def test_carry_matrices_fold_the_unimodular_factor():
    # C_1 = B U_A and C_-1 = A U_B: the carry of a split read straight
    # off the Hermite quotients k equals B h resp. A h for h = U k
    rng = random.Random(5)
    for name, spec in GENERAL_DATA.items():
        for _ in range(50):
            k = tuple(rng.randrange(-10 ** 12, 10 ** 12)
                      for _ in range(spec.n))
            assert spec.carry[1].apply(k) == spec.B.apply(
                spec.lattice_a.unimodular.apply(k)), name
            assert spec.carry[-1].apply(k) == spec.A.apply(
                spec.lattice_b.unimodular.apply(k)), name


def test_stable_relation_under_reduction_and_affine():
    from oracles import invert_letters
    spec = make_matrix_group([[2, 1], [0, 2]], [[1, 1], [1, -1]])
    for z in [(1, 0), (0, 1), (3, -2), (-5, 7)]:
        lhs = [T(1), X(spec.B.apply(z)), T(-1)]
        rhs = [X(spec.A.apply(z))]
        word = lhs + invert_letters(rhs)
        assert britton_reduce(word, spec).is_identity
        assert j_affine(lhs, spec) == j_affine(rhs, spec)


def test_spec_from_dict_roundtrip():
    spec = spec_from_dict({"n": 2, "A": [[2, 1], [0, 2]],
                           "B": [[1, 0], [0, 1]]})
    assert isinstance(spec, GroupSpec)
    assert spec.A == IntMatrix.from_rows([[2, 1], [0, 2]])
    with pytest.raises(ConfigurationError):
        spec_from_dict({"n": 3, "A": [[2]], "B": [[1]]})
    with pytest.raises(ConfigurationError):
        spec_from_dict({"A": [[2]]})

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import hermite_normal_form

from conftest import GENERAL_DATA
from oracles import in_lattice

from bskit.arith import ConfigurationError, IntMatrix, Lattice, column_hnf
from bskit.presentation import make_bs

M22 = IntMatrix.from_rows([[2, 1], [0, 2]])


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def rat_inverse(M: IntMatrix):
    """Reference: exact inverse of a nonsingular integer matrix by
    Gauss-Jordan over Fraction, independent of the adjugate solve."""
    n = M.n
    a = [[Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(n)]
         for i, r in enumerate(M.rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ConfigurationError(f"singular matrix: {M}")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return tuple(tuple(row[n:]) for row in a)


def rat_apply(P, a):
    """Reference: a rational matrix (tuple of Fraction rows) times a vector."""
    if len(a) != len(P):
        raise ConfigurationError("dimension mismatch in rational apply")
    return tuple(sum(r[j] * a[j] for j in range(len(r))) for r in P)


def brute_force_decompose(z, M, box=12):
    """Oracle: search all h in a box for z - M h among the canonical reps."""
    reps = set(Lattice(M).residues())
    hits = []
    for h in itertools.product(range(-box, box + 1), repeat=M.n):
        r = vec_sub(z, M.apply(h))
        if r in reps:
            hits.append((r, h))
    return hits


def identity(n):
    return IntMatrix(tuple(tuple(int(i == j) for j in range(n))
                           for i in range(n)))


def test_decompose_zero_scalar():
    assert Lattice(IntMatrix.scalar(2)).decompose((0,), identity(1)) == \
        ((0,), (0,))


def test_decompose_four_mod_two():
    assert Lattice(IntMatrix.scalar(2)).decompose((4,), identity(1)) == \
        ((0,), (2,))


def test_decompose_2d_matches_brute_force():
    z = (5, 3)
    lat = Lattice(M22)
    r, h = lat.decompose(z, lat.unimodular)
    hits = brute_force_decompose(z, M22)
    assert hits == [(r, h)]  # unique and identical
    # z = M h + r componentwise: 5 - r1 = 2 h1 + h2, 3 - r2 = 2 h2
    assert 5 - r[0] == 2 * h[0] + h[1]
    assert 3 - r[1] == 2 * h[1]


def test_in_lattice_examples():
    assert in_lattice(Lattice(M22), (4, 0))
    assert Lattice(M22).solve((4, 0)) == (2, 0)
    assert not in_lattice(Lattice(IntMatrix.scalar(3)), (1,))
    assert in_lattice(Lattice(M22), (0, 0))


def test_residues_scalar():
    assert Lattice(IntMatrix.scalar(3)).residues() == ((0,), (1,), (2,))
    assert Lattice(IntMatrix.scalar(2)).residues() == ((0,), (1,))
    # negative entry: the lattice mZ = |m|Z
    assert Lattice(IntMatrix.scalar(-3)).residues() == ((0,), (1,), (2,))


def test_residues_2d_count_and_distinctness():
    reps = Lattice(M22).residues()
    assert len(reps) == 4 == abs(M22.det)
    assert reps[0] == (0, 0)
    lat = Lattice(M22)
    for a, b in itertools.combinations(reps, 2):
        assert not in_lattice(lat, vec_sub(a, b))


def test_mat_apply_examples():
    assert IntMatrix.scalar(2).apply((3,)) == (6,)
    assert M22.apply((1, 1)) == (3, 2)
    inv3 = rat_inverse(IntMatrix.scalar(3))
    assert rat_apply(inv3, (2,)) == (Fraction(2, 3),)


def test_singular_matrix_rejected():
    sing = IntMatrix.from_rows([[1, 2], [2, 4]])
    with pytest.raises(ConfigurationError):
        Lattice(sing)
    with pytest.raises(ConfigurationError):
        rat_inverse(sing)


def test_dimension_mismatch_rejected():
    with pytest.raises(ConfigurationError):
        M22.apply((1,))
    with pytest.raises(ConfigurationError):
        IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])


def test_hnf_is_lower_triangular_with_positive_pivots():
    for rows in ([[2, 1], [0, 2]], [[3, 5], [1, 2]], [[-2, 7], [4, 1]]):
        M = IntMatrix.from_rows(rows)
        H = column_hnf(M)
        for i in range(2):
            assert H.rows[i][i] > 0
            for j in range(i + 1, 2):
                assert H.rows[i][j] == 0
        assert abs(H.det) == abs(M.det)


small_int = st.integers(min_value=-30, max_value=30)
entry = st.integers(min_value=-5, max_value=5)


def nonsingular_2x2():
    return (st.tuples(entry, entry, entry, entry)
            .filter(lambda e: e[0] * e[3] - e[1] * e[2] != 0)
            .map(lambda e: IntMatrix.from_rows([[e[0], e[1]],
                                                [e[2], e[3]]])))


@given(st.tuples(small_int, small_int), nonsingular_2x2())
@settings(max_examples=120, deadline=None)
def test_decompose_reconstructs_exactly(z, M):
    lat = Lattice(M)
    r, k = lat.decompose(z, identity(2))
    assert vec_sub(z, lat.hnf.apply(k)) == r  # z = H k + r
    assert vec_sub(z, M.apply(lat.unimodular.apply(k))) == r  # H = M U
    # r is among the canonical representatives and is idempotent
    assert r in lat.residues()
    assert lat.decompose(r, identity(2)) == (r, (0, 0))


@given(st.tuples(small_int, small_int), nonsingular_2x2())
@settings(max_examples=60, deadline=None)
def test_rational_inverse_roundtrip(z, M):
    back = rat_apply(rat_inverse(M), M.apply(z))
    assert back == tuple(Fraction(c) for c in z)


@st.composite
def matrix_and_vector(draw):
    nonzero = entry.filter(lambda m: m != 0)
    M = draw(st.one_of(nonzero.map(IntMatrix.scalar), nonsingular_2x2()))
    return M, draw(st.tuples(*[small_int] * M.n))


NEG_DET = IntMatrix.from_rows([[1, 1], [1, -1]])


@given(matrix_and_vector())
@example((IntMatrix.scalar(-3), (-6,)))
@example((IntMatrix.scalar(-3), (7,)))
@example((NEG_DET, (3, 1)))
@example((NEG_DET, (1, 0)))
@settings(max_examples=200, deadline=None)
def test_solve_and_decompose_match_rational_reference(case):
    M, z = case
    lat = Lattice(M)
    exact = rat_apply(rat_inverse(M), z)
    if all(x.denominator == 1 for x in exact):
        assert lat.solve(z) == tuple(int(x) for x in exact)
    else:
        assert lat.solve(z) is None
    r, h = lat.decompose(z, lat.unimodular)
    assert rat_apply(rat_inverse(M), vec_sub(z, r)) == h
    assert r in lat.residues()


GENERAL_MATRICES = {f"{name}.{side}": M for name, spec in GENERAL_DATA.items()
                    for side, M in (("A", spec.A), ("B", spec.B))}


def test_unimodular_factor_and_decompose_on_general_data():
    # H = M U with U unimodular, and the one-pass decompose agrees with
    # the brute-force search, on every matrix of the general data
    for name, M in GENERAL_MATRICES.items():
        lat = Lattice(M)
        assert abs(lat.unimodular.det) == 1, name
        assert M @ lat.unimodular == lat.hnf, name
        box = 12 if M.n < 3 else 8  # every h below is inside the box
        for z in itertools.product((-2, 0, 1), repeat=M.n):
            assert brute_force_decompose(z, M, box) == \
                [lat.decompose(z, lat.unimodular)], name


SPLIT_DATA = {**GENERAL_DATA, "bs12": make_bs(1, 2), "bs2m3": make_bs(2, -3)}


@pytest.mark.parametrize("name", sorted(SPLIT_DATA))
def test_fused_carry_matches_the_two_step_split(name):
    # decompose(z, C) folds C k into the pivot pass; the reference takes
    # the quotients k (C = I) and applies the carry matrix afterwards
    spec = SPLIT_DATA[name]
    rng = random.Random(20)
    for eps, lat, M in ((1, spec.lattice_a, spec.A),
                        (-1, spec.lattice_b, spec.B)):
        C = spec.carry[eps]
        for _ in range(200):
            z = tuple(rng.randrange(-10 ** 30 + 1, 10 ** 30)
                      for _ in range(spec.n))
            r, k = lat.decompose(z, identity(spec.n))
            assert lat.decompose(z, C) == (r, C.apply(k)), (eps, z)
            r_h, h = lat.decompose(z, lat.unimodular)
            assert r_h == r
            assert tuple(map(sum, zip(M.apply(h), r))) == z, (eps, z)
        for bad in ((1,) * (spec.n + 1), (1,) * (spec.n - 1)):
            with pytest.raises(ConfigurationError, match="dimension mismatch"):
                lat.decompose(bad, C)


def in_column_span(S: Matrix, v) -> bool:
    """Is v an integer combination of the columns of S? (sympy, exact)"""
    return all(x.is_integer for x in S.LUsolve(Matrix(v)))


@given(st.one_of(st.sampled_from(sorted(GENERAL_MATRICES.values(), key=str)),
                 nonsingular_2x2(),
                 st.lists(entry, min_size=9, max_size=9)
                 .filter(lambda e: Matrix(3, 3, e).det() != 0)
                 .map(lambda e: IntMatrix.from_rows([e[:3], e[3:6], e[6:]]))))
@settings(max_examples=80, deadline=None)
def test_column_hnf_matches_sympy_lattice(M):
    # the conventions differ (sympy's is upper triangular), so compare
    # the lattices: equal index, and each basis inside the other's span
    ours = Matrix(column_hnf(M).rows)
    theirs = hermite_normal_form(Matrix(M.rows))
    assert abs(ours.det()) == abs(theirs.det()) == abs(M.det)
    for j in range(M.n):
        assert in_column_span(theirs, ours[:, j])
        assert in_column_span(ours, theirs[:, j])

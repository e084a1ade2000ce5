import itertools
import math
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bskit.embedding
from bskit.affine import AffineElement, ball_images, j_affine
from bskit.arith import IntMatrix
from bskit.embedding import (GroupBall, check_injectivity, check_stabilizer,
                             enumerate_ball, generator_letters,
                             properness_profile)
from bskit.haagerup import c0_profile
from bskit.presentation import make_bs, make_matrix_group
from bskit.tree import ResourceBoundError, vertex_of
from bskit.words import (NormalForm, britton_reduce, nf_append, nf_invert,
                         nf_multiply, parse_word, sphere_key)
from conftest import ASC2, GENERAL_DATA, IMAGE_DATA
from oracles import (affine_model_spheres, nf_letters, reference_spheres,
                     sublevel_counts)


def test_ball_radius_zero(bs23):
    b = enumerate_ball(0, bs23)
    assert len(b) == 1 and b.elements[0].is_identity


def test_ball_radius_one(bs23):
    b = enumerate_ball(1, bs23)
    assert len(b) == 5
    names = {str(nf) for nf in b.elements}
    assert names == {"1", "x^1", "x^-1", "t", "t^-1"}


# BS(2,3), BS(1,2) and the two Z^2 data of the ball_z2 benchmark workload
ORDER_DATA = {
    "bs23": make_bs(2, 3), "bs12": make_bs(1, 2),
    "z2_asc": make_matrix_group([[2, 1], [0, 2]], [[1, 0], [0, 1]]),
    "z2_nonasc": make_matrix_group([[2, 1], [0, 2]], [[1, 1], [1, -1]]),
}


@pytest.mark.parametrize("name", sorted(ORDER_DATA))
def test_spheres_are_sorted_by_str(name):
    # element order is output (gram samples draw from it): every sphere is
    # in str order, and the sort key is str itself
    spec = ORDER_DATA[name]
    ball = enumerate_ball(5 if spec.n == 1 else 4, spec)
    for sphere in ball.spheres:
        assert sphere == sorted(sphere, key=str)
    key = sphere_key()
    for nf in ball.elements:
        assert key(nf) == str(nf)


def test_sphere_key_text(bs12, bs23):
    key = sphere_key()
    assert [key(nf) for nf in enumerate_ball(2, bs12).spheres[2]] == [
        "t t", "t x^-1", "t x^-2", "t x^1", "t x^2", "t^-1 t^-1",
        "t^-1 x^-1", "t^-1 x^1", "x^-2", "x^1 t^-1", "x^1 t^-1 x^-1",
        "x^2"]
    key = sphere_key()
    assert [key(nf) for nf in enumerate_ball(2, bs23).spheres[2]] == [
        "t t", "t x^-1", "t x^1", "t^-1 t^-1", "t^-1 x^-1", "t^-1 x^1",
        "x^-2", "x^1 t", "x^1 t x^-3", "x^1 t^-1", "x^2", "x^2 t^-1 x^-2"]
    key = sphere_key()
    for nf, text in ((NormalForm((), (0, 0)), "1"),
                     (NormalForm((), (0, -3)), "v[0,-3]"),
                     (NormalForm(((1, (0, 0)),), (0, 0)), "t"),
                     (NormalForm(((-1, (1, 0)), (1, (0, 0))), (2, -1)),
                      "v[1,0] t^-1 t v[2,-1]")):
        assert key(nf) == str(nf) == text


def pairwise_ball_oracle(L, spec):
    """Oracle: enumerate raw words, dedupe by pairwise word-problem calls."""
    reps = []
    alphabet = generator_letters(spec)
    for k in range(L + 1):
        for word in itertools.product(alphabet, repeat=k):
            nf = britton_reduce(list(word), spec)
            if not any(nf_multiply(nf_invert(r, spec), nf, spec).is_identity
                       for r in reps):
                reps.append(nf)
    return reps


def test_ball_matches_pairwise_oracle_small(bs23):
    for L in range(4):
        assert len(enumerate_ball(L, bs23)) == len(pairwise_ball_oracle(L, bs23))


SPHERE_DATA = {**IMAGE_DATA, "asc2": ASC2}


@pytest.mark.parametrize("name", sorted(SPHERE_DATA))
def test_ball_spheres_match_plain_bfs_in_order(name):
    # skipping the moves back and the commuted x-letters, and the per-call
    # rendering memo, leave every sphere's content and str order as the
    # plain search makes them
    spec = SPHERE_DATA[name]
    L = 6 if spec.n == 1 else 4
    assert enumerate_ball(L, spec).spheres == reference_spheres(L, spec)


@st.composite
def small_data(draw):
    # n <= 3, entries in [-3, 3], 0 < |det| <= 6 for A and for B
    n = draw(st.integers(1, 3))
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    matrix = st.lists(row, min_size=n, max_size=n).filter(
        lambda rows: 0 < abs(IntMatrix.from_rows(rows).det) <= 6)
    return make_matrix_group(draw(matrix), draw(matrix))


@given(small_data())
@settings(max_examples=80, deadline=None)
def test_pruned_ball_equals_the_plain_search_on_generated_data(spec):
    L = 4 if spec.n < 3 else 3
    assert enumerate_ball(L, spec).spheres == reference_spheres(L, spec)


@pytest.mark.parametrize("name", sorted(IMAGE_DATA))
def test_ball_elements_round_trip_through_vertex_letters_and_image(name):
    # the vertex is read off the form, the letters reduce back to it, and
    # the per-vertex image of the ball pass is the letters' own image
    spec = IMAGE_DATA[name]
    ball = enumerate_ball(6 if spec.n == 1 else 4, spec)
    images = [i for sphere in ball_images(ball.spheres, spec) for i in sphere]
    for nf, (k, num, den) in zip(ball.elements, images, strict=True):
        assert vertex_of(nf, spec) == nf.vertex
        letters = nf_letters(nf)
        assert britton_reduce(letters, spec) == nf
        assert (AffineElement(k, tuple(Fraction(c, den) for c in num))
                == j_affine(letters, spec)), str(nf)


def _counted_appends(monkeypatch) -> list:
    """A one-entry list counting enumerate_ball's ``nf_append`` calls."""
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return nf_append(*args)

    monkeypatch.setattr(bskit.embedding, "nf_append", counting)
    return calls


def test_ball_never_appends_the_inverse_of_the_letter_that_led_there(
        bs12, monkeypatch):
    calls = _counted_appends(monkeypatch)
    ball = enumerate_ball(10, bs12)
    expanded = sum(len(s) for s in ball.spheres[:10])
    # 4 letters from each expanded element, less at least one skipped move
    # from each element but the root
    assert calls[0] <= 4 * expanded - (expanded - 1)


@pytest.mark.parametrize("spec, L, appends", [
    (ASC2, 6, 4233),                        # 4 776 skipping inverses only
    (GENERAL_DATA["z2_nonasc"], 6, 6418),   # 7 128
    (GENERAL_DATA["z3"], 4, 1418),          # 1 788
    (make_bs(1, 2), 10, 5937),              # n = 1: the inverse alone
], ids=["asc2", "z2_nonasc", "z3", "bs12"])
def test_ball_skips_the_x_letters_before_the_one_that_led_there(
        spec, L, appends, monkeypatch):
    # a form first reached by x-letter i skips the x-letters 0..i-1 besides
    # its inverse; t-letters skip only their inverse
    calls = _counted_appends(monkeypatch)
    enumerate_ball(L, spec)
    assert calls[0] == appends


@pytest.mark.parametrize("name", ["bs23", "z2_nonasc", "z3"])
def test_letter_i_xor_1_inverts_letter_i(name):
    spec = GENERAL_DATA[name]
    letters = generator_letters(spec)
    for g in enumerate_ball(3, spec).elements:
        for i, letter in enumerate(letters):
            there = nf_append(g, letter, spec)
            assert nf_append(there, letters[i ^ 1], spec) == g


def test_ball_strictly_increasing(bs23, bs12):
    for spec in (bs23, bs12):
        sizes = [len(enumerate_ball(L, spec)) for L in range(6)]
        assert all(a < b for a, b in zip(sizes, sizes[1:]))


def test_ball_closed_under_inversion(bs23):
    b = enumerate_ball(4, bs23)
    elems = set(b.elements)
    assert len({str(nf) for nf in elems}) == len(b)  # names are distinct
    for nf in elems:
        assert nf_invert(nf, bs23) in elems


def test_ball_resource_bound(bs23, monkeypatch):
    # the argument overrides BSK_MAX_BALL, so its refusal gives no advice to
    # set the variable; a bound that is not a nonnegative int is refused
    monkeypatch.setenv("BSK_MAX_BALL", "20")
    with pytest.raises(ResourceBoundError) as err:
        enumerate_ball(5, bs23, max_length=4)
    assert str(err.value) == "radius 5 exceeds bound 4"
    assert len(enumerate_ball(0, bs23, max_length=0)) == 1
    for bad in (-1, 0.5, "3", True):
        with pytest.raises(ValueError, match="is not a nonnegative int"):
            enumerate_ball(0, bs23, max_length=bad)
    # so is a radius that is not an int; a negative int keeps its own text
    for bad in ("3", 2.5, 1.0, True):
        with pytest.raises(ValueError) as err:
            enumerate_ball(bad, bs23)
        assert str(err.value) == f"radius {bad!r} is not a nonnegative int"
    with pytest.raises(ValueError, match="^radius must be nonnegative$"):
        enumerate_ball(-1, bs23)
    monkeypatch.setenv("BSK_MAX_BALL", "4")
    with pytest.raises(ResourceBoundError) as err:
        enumerate_ball(5, bs23)
    assert str(err.value) == "radius 5 exceeds bound 4 (set BSK_MAX_BALL)"


@pytest.mark.parametrize("spec, L", [
    (make_bs(1, 2), 9), (make_bs(1, 3), 7), (make_bs(2, 1), 8), (ASC2, 5),
], ids=["bs12", "bs13", "bs21", "asc2"])
def test_ball_images_equal_the_affine_model_search(spec, L):
    # an ascending datum embeds in Z x Q^n, so a search over exact images
    # that never reduces a word finds the same spheres
    ball = enumerate_ball(L, spec)
    model = affine_model_spheres(L, spec)
    assert [len(s) for s in model] == [len(s) for s in ball.spheres]
    for images, expected in zip(ball.images, model, strict=True):
        assert {(k, tuple(Fraction(c, den) for c in num))
                for k, num, den in images} == set(expected)


def test_injectivity_examples(bs23):
    b = enumerate_ball(3, bs23)
    report = check_injectivity(b, bs23)
    assert report.ok and report.checked == len(b)
    # each report holds a violations list of its own
    again = check_injectivity(b, bs23)
    again.violations.append("planted")
    assert report.violations == [] and report.ok and not again.ok


def test_injectivity_full_ball(bs23, bs23_ball6):
    assert check_injectivity(bs23_ball6, bs23).ok


def test_stabilizer_examples(bs23):
    from bskit.tree import BASE, act
    w = parse_word("t x t^-1", bs23)
    nf = britton_reduce(w, bs23)
    assert nf.t_length == 2 and act(nf, BASE, bs23) != BASE
    w2 = parse_word("t x^3 t^-1", bs23)
    nf2 = britton_reduce(w2, bs23)
    assert nf2.t_length == 0 and act(nf2, BASE, bs23) == BASE


def test_stabilizer_full_ball(bs23, bs23_ball6):
    assert check_stabilizer(bs23_ball6, bs23).ok


def test_profile_r_zero_counts_identity_only(bs23):
    profile = properness_profile(4, [0], bs23)
    assert profile.counts[0] == [1, 1, 1, 1, 1]
    assert profile.stabilized[0]


def test_profile_counts_match_per_element_reference(image_balls):
    grid = [0, 1, 2, 3, 5]
    for name, (spec, ball) in image_balls.items():
        profile = properness_profile(ball.radius, grid, spec, ball=ball)
        assert profile.counts == sublevel_counts(ball, grid, spec), name


BIG = 10 ** 12


@st.composite
def profile_cases(draw):
    # BS(p, q) with p and q of either sign, or a Z^2 datum; a grid of
    # distinct thresholds in drawn (unsorted) order, small, 0, 10^12, and
    # with `beyond` one R past the largest height in the ball
    nonzero = st.integers(-4, 4).filter(bool)
    spec = draw(st.one_of(
        st.builds(make_bs, nonzero, nonzero),
        st.sampled_from([ASC2, GENERAL_DATA["z2_nonasc"]])))
    L = draw(st.integers(0, 5 if spec.n == 1 else 3))
    grid = draw(st.lists(st.integers(0, 9) | st.sampled_from([0, BIG]),
                         unique=True, max_size=5))
    return spec, L, grid, draw(st.booleans())


@given(profile_cases())
@example((make_bs(2, -3), 4, [BIG, 3, 0], True))
@example((make_bs(-1, 2), 5, [], False))
@example((ASC2, 3, [2, 0, 5], True))
@settings(max_examples=60, deadline=None)
def test_profile_counts_equal_the_per_element_oracle(case):
    spec, L, grid, beyond = case
    ball = enumerate_ball(L, spec)
    if beyond:
        height = max(max(len(nf.vertex), abs(k), *map(math.ceil, map(abs, a)))
                     for nf in ball.elements for k, a in [j_affine(nf, spec)])
        grid = [*grid, height + 1] if height + 1 not in grid else grid
    profile = properness_profile(L, grid, spec, ball=ball)
    assert profile.r_grid == list(profile.counts) == grid
    assert profile.counts == sublevel_counts(ball, grid, spec)
    if beyond:  # every element counts for an R past every height
        assert profile.counts[height + 1] == list(
            itertools.accumulate(map(len, ball.spheres)))


def test_profile_memory_does_not_grow_with_r(bs12):
    # counts are kept per threshold, never per unit of R: a grid holding
    # R = 10^6 or 10^12 allocates no more than one of small thresholds
    ball = enumerate_ball(6, bs12)
    ball.images  # built once, outside the measured calls

    def peak(grid):
        tracemalloc.start()
        try:
            properness_profile(6, grid, bs12, ball=ball)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    peak([0, 1, 2])
    small = peak([0, 1, 2])
    for big in (10 ** 6, BIG):
        assert peak([0, 1, big]) < small + 16 * 1024, big


def test_profile_rejects_bad_thresholds(bs12):
    # a repeated R would be counted twice, a negative one counts nothing
    for grid in ([2, 2], [-1], [1, 2, 1], [1.5], [True], ["2"]):
        with pytest.raises(ValueError, match="distinct nonnegative"):
            properness_profile(2, grid, bs12)
    # any integer type is a threshold, e.g. a grid from numpy
    numpy = pytest.importorskip("numpy")
    profile = properness_profile(2, numpy.arange(3), bs12)
    assert profile.r_grid == [0, 1, 2]
    assert profile.counts == properness_profile(2, [0, 1, 2], bs12).counts


def test_profile_monotone_in_l_and_r(bs12, bs12_ball10):
    profile = properness_profile(10, [1, 2, 4], bs12, ball=bs12_ball10)
    for r in (1, 2, 4):
        counts = profile.counts[r]
        assert all(a <= b for a, b in zip(counts, counts[1:]))
    for L in range(11):
        assert (profile.counts[1][L] <= profile.counts[2][L]
                <= profile.counts[4][L])


def test_profile_bs12_r3_stabilizes(bs12, bs12_ball10):
    profile = properness_profile(10, [3], bs12, ball=bs12_ball10)
    assert profile.stabilized[3]


def test_profile_csv_shape(bs12, bs12_ball10):
    profile = properness_profile(10, [1, 2], bs12, ball=bs12_ball10)
    lines = profile.to_csv().strip().splitlines()
    assert lines[0] == "L,R,count,stabilized"
    assert len(lines) == 1 + 2 * 11


def test_profile_reads_lmax_spheres_of_a_given_ball(bs12, bs12_ball10):
    # a larger ball gives the profile of a fresh radius-lmax ball
    fresh = properness_profile(6, [1, 2, 4], bs12)
    given = properness_profile(6, [1, 2, 4], bs12, ball=bs12_ball10)
    assert given.lmax == fresh.lmax == 6
    assert given.to_csv() == fresh.to_csv()
    for lmax in (9, 11, -1):
        with pytest.raises(ValueError, match="outside 0..6"):
            properness_profile(lmax, [1, 2], bs12,
                               ball=enumerate_ball(6, bs12))


def test_profiles_share_one_image_pass_per_ball(bs12, monkeypatch):
    # the profiles read the ball's image column, built on first read
    calls = 0

    def counting(spheres, spec):
        nonlocal calls
        calls += 1
        return ball_images(spheres, spec)
    monkeypatch.setattr(bskit.embedding, "ball_images", counting)
    ball = enumerate_ball(6, bs12)
    first = properness_profile(6, [1, 2, 4], bs12, ball=ball).to_csv()
    c0_profile(6, 1.0, bs12, ball=ball)
    again = properness_profile(6, [1, 2, 4], bs12, ball=ball).to_csv()
    assert calls == 1 and again == first


def test_profiles_refuse_a_ball_of_another_datum(bs12, bs23):
    # the images come from the ball's own datum, so another spec would be
    # ignored; an equal datum built twice is the same group
    ball = enumerate_ball(3, make_bs(1, 2))
    for other in (bs23, make_bs(1, 3)):
        with pytest.raises(ValueError, match="given ball is of"):
            properness_profile(3, [1, 2], other, ball=ball)
        with pytest.raises(ValueError, match="given ball is of"):
            c0_profile(3, 1.0, other, ball=ball)
    twin = make_bs(1, 2)
    assert (properness_profile(3, [1, 2], twin, ball=ball).to_csv()
            == properness_profile(3, [1, 2], bs12).to_csv())
    assert c0_profile(3, 1.0, twin, ball=ball) == c0_profile(3, 1.0, bs12)


@pytest.mark.parametrize("check", [check_injectivity, check_stabilizer])
def test_checks_refuse_a_ball_of_another_datum(check, bs12, bs23):
    # checked as BS(2,3) a BS(1,2) ball passed, and checked as a Z^2 datum
    # it died in j_affine; an equal datum built twice is the same group
    ball = enumerate_ball(3, bs12)
    for other in (bs23, GENERAL_DATA["z2_nonasc"]):
        with pytest.raises(ValueError, match="given ball is of"):
            check(ball, other)
    assert check(ball, make_bs(1, 2)).ok


def test_profiles_refuse_a_ball_missing_a_parent(bs23):
    # a hand-built ball whose deep element has no parent vertex before it
    # is not a word-length ball; its image is not computed some other way
    deep = britton_reduce(parse_word("t x t", bs23), bs23)
    ball = GroupBall(1, [[britton_reduce([], bs23)], [deep]], bs23)
    for profile in (lambda: properness_profile(1, [1], bs23, ball=ball),
                    lambda: c0_profile(1, 1.0, bs23, ball=ball)):
        with pytest.raises(ValueError,
                           match="^" + re.escape(f"{deep}: the parent")):
            profile()


def test_profile_late_stabilization_r4(bs12):
    # R = 4 sublevel counts keep growing through L = 10 (elements such as
    # t^4 x^59 first appear at word length 10); the flag turns true at 12
    ball = enumerate_ball(12, bs12, max_length=12)
    profile = properness_profile(12, [4], bs12, ball=ball)
    assert profile.counts[4][10] == profile.counts[4][11] == profile.counts[4][12]
    assert profile.stabilized[4]

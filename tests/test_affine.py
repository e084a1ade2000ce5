import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import GENERAL_DATA, counting_spec
from oracles import aff_identity, ball_images, invert_letters, nf_letters

from bskit.affine import (AffineElement, aff_compose, aff_invert, ball_image,
                          j_affine, scaled)
from bskit.arith import ConfigurationError
from bskit.embedding import GroupBall, enumerate_ball, properness_profile
from bskit.haagerup import c0_profile, witness
from bskit.tree import vertex_of
from bskit.words import NormalForm, T, X, britton_reduce, parse_word


def w(text, spec):
    return parse_word(text, spec)


def j_affine_right_fold(word, spec):
    """Oracle: fold letters right-to-left instead of left-to-right."""
    acc = aff_identity(spec.n)
    for letter in reversed(word):
        if isinstance(letter, X):
            e = AffineElement(0, tuple(Fraction(c) for c in letter.z))
        else:
            e = AffineElement(letter.eps, (Fraction(0),) * spec.n)
        acc = aff_compose(e, acc, spec)
    return acc


def test_defining_relation_maps_to_identity(bs23):
    word = w("x^2", bs23) + invert_letters(w("t x^3 t^-1", bs23))
    assert j_affine(word, bs23).is_identity


def test_identity_word(bs23):
    assert j_affine([], bs23) == AffineElement(0, (Fraction(0),))


def test_txt_example(bs23):
    aff = j_affine(w("t x t", bs23), bs23)
    assert aff == AffineElement(2, (Fraction(2, 3),))
    assert aff == j_affine_right_fold(w("t x t", bs23), bs23)


def test_compose_examples(bs23):
    one_up = AffineElement(1, (Fraction(0),))
    xq = AffineElement(0, (Fraction(3),))
    assert aff_compose(one_up, xq, bs23) == AffineElement(1, (Fraction(2),))
    a = AffineElement(0, (Fraction(5, 3),))
    assert aff_invert(a, bs23) == AffineElement(0, (Fraction(-5, 3),))


def test_compose_invert_roundtrip(bs23):
    rng = random.Random(2)
    for _ in range(300):
        e = AffineElement(rng.randrange(-5, 6),
                          (Fraction(rng.randrange(-40, 40), 6),))
        assert aff_compose(e, aff_invert(e, bs23), bs23).is_identity


def test_associativity_random(bs23):
    rng = random.Random(4)
    def rand():
        return AffineElement(rng.randrange(-4, 5),
                             (Fraction(rng.randrange(-30, 30),
                                       6 ** rng.randrange(0, 3)),))
    for _ in range(2000):
        a, b, c = rand(), rand(), rand()
        assert (aff_compose(aff_compose(a, b, bs23), c, bs23)
                == aff_compose(a, aff_compose(b, c, bs23), bs23))


def test_homomorphism_and_britton_invariance(bs23):
    rng = random.Random(6)
    letters = [X((1,)), X((-1,)), X((3,)), T(1), T(-1)]
    for _ in range(500):
        u = [rng.choice(letters) for _ in range(rng.randrange(0, 8))]
        v = [rng.choice(letters) for _ in range(rng.randrange(0, 8))]
        assert j_affine(u + v, bs23) == aff_compose(
            j_affine(u, bs23), j_affine(v, bs23), bs23)
        assert j_affine(u, bs23) == j_affine(britton_reduce(u, bs23), bs23)


def test_height_equals_t_exponent_sum(bs23):
    rng = random.Random(8)
    letters = [X((1,)), T(1), T(-1)]
    for _ in range(200):
        word = [rng.choice(letters) for _ in range(rng.randrange(0, 10))]
        raw = sum(l.eps for l in word if isinstance(l, T))
        assert j_affine(word, bs23).k == raw


def test_relation_check_100_random_z(asc2):
    rng = random.Random(10)
    for _ in range(100):
        z = (rng.randrange(-50, 51), rng.randrange(-50, 51))
        lhs = [X(asc2.A.apply(z))]
        rhs = [T(1), X(asc2.B.apply(z)), T(-1)]
        assert j_affine(lhs, asc2) == j_affine(rhs, asc2)


def test_restriction_to_g_injective(bs23):
    for z in (-9, -1, 1, 14):
        aff = j_affine([X((z,))], bs23)
        assert aff == AffineElement(0, (Fraction(z),))
        assert not aff.is_identity


def test_denominators_divide_det_power(bs23, bs23_ball6):
    # images of the ball have denominators dividing a power of det A * det B
    for nf in bs23_ball6.elements:
        aff = j_affine(nf, bs23)
        for coord in aff.a:
            d = coord.denominator
            while d % 2 == 0:
                d //= 2
            while d % 3 == 0:
                d //= 3
            assert d == 1


def test_image_at_large_height_is_exact(bs23):
    # the fold keeps no Lambda^k table, so a height of 3000 needs no
    # 3000-deep chain of powers
    for text, k in (("t^3000 x", 3000), ("t^-3000 x", -3000)):
        aff = j_affine(w(text, bs23), bs23)
        assert aff == AffineElement(k, (Fraction(2, 3) ** k,))


def test_compose_with_inverse_at_large_height(bs23):
    # aff_compose/aff_invert step through Lambda^{+-1} iteratively: a
    # height of 1200 must not recurse 1200 frames deep
    identity = aff_identity(1)
    for text in ("t^1200 x", "t^-1200 x"):
        e = j_affine(w(text, bs23), bs23)
        assert aff_compose(e, aff_invert(e, bs23), bs23) == identity
        assert aff_compose(aff_invert(e, bs23), e, bs23) == identity
    x = j_affine(w("x", bs23), bs23)
    for k in (1200, -1201):
        tk = j_affine(w(f"t^{k}", bs23), bs23)
        assert aff_compose(tk, x, bs23) == AffineElement(
            k, (Fraction(2, 3) ** k,))


@pytest.fixture(scope="module")
def word_length_balls(image_balls, bs12, bs12_ball10, asc2):
    """The image balls, BS(1,2) at L = 10 and the two Z^2 data of the
    benchmark's ball_z2 workload at L = 6."""
    nonasc = GENERAL_DATA["z2_nonasc"]
    return {**image_balls, "bs12 L=10": (bs12, bs12_ball10),
            "asc2 L=6": (asc2, enumerate_ball(6, asc2)),
            "z2_nonasc L=6": (nonasc, enumerate_ball(6, nonasc))}


def test_every_vertex_parent_is_the_vertex_of_an_earlier_sphere(
        word_length_balls):
    # a geodesic word's prefixes walk the tree from the base to the
    # element's vertex: the premise of ball_image's one step per vertex
    for name, (spec, ball) in word_length_balls.items():
        held = set()
        for sphere in ball.spheres:
            vertices = {nf.vertex for nf in sphere}
            assert all(u[:-1] in held for u in vertices if u), name
            held |= vertices


def test_ball_images_equal_the_per_element_fold(word_length_balls):
    # one step per vertex against each element's own fold: the same
    # integers, not only the same fractions, read through the ball's own
    # memo after the profiles have partly filled it and from a fresh one
    for name, (spec, given) in word_length_balls.items():
        ball = GroupBall(given.keys, given.trie, spec)  # an empty memo
        properness_profile(ball.radius, [2], spec, ball=ball)
        if spec.n == 1:
            c0_profile(ball.radius, 1.0, spec, ball=ball)
        vertices = {nf.vertex for nf in ball.elements}
        assert 1 < len(ball.entries) < len(vertices), name
        own = [ball_image(key, ball) for s in ball.keys for key in s]
        fresh = [i for sphere in ball_images(ball.spheres, spec)
                 for i in sphere]
        assert own == fresh == [scaled(nf, spec) for nf in ball.elements], name
        assert len(ball.entries) == len(vertices), name


def test_ball_images_step_once_per_vertex(image_balls):
    # negative determinants, lambda < 0 and n = 3; each ball holds many
    # elements per vertex, at heights of both signs
    for name, (spec, ball) in image_balls.items():
        fresh = counting_spec(spec)
        per_sphere = list(ball_images(ball.spheres, fresh))
        assert list(map(len, per_sphere)) == list(map(len, ball.spheres))
        # one step along a tree edge per Bass-Serre vertex other than the
        # base
        vertices = {vertex_of(nf, spec) for nf in ball.elements}
        assert fresh.lam_int.lookups == len(vertices) - 1 < len(ball), name


def test_scaled_at_large_height_is_exact(bs23):
    # the fold holds no table of powers, and matches the compose fold
    for text in ("t^3000 x", "x t^-2500 x^5 t^400 x^-7"):
        nf = britton_reduce(w(text, bs23), bs23)
        assert nf.t_length >= 2900
        k, num, den = scaled(nf, bs23)
        assert (AffineElement(k, tuple(Fraction(c, den) for c in num))
                == j_affine_right_fold(nf_letters(nf), bs23)), text


def test_wrong_size_x_letter_is_refused(bs23, asc2):
    for spec, z in ((bs23, (1, 2)), (asc2, (3,))):
        for word in ([X(z)], [T(1), X(z)], [X(z), T(-1), X(z)]):
            with pytest.raises(ConfigurationError, match="dimension mismatch"):
                j_affine(word, spec)


def test_normal_forms_of_the_wrong_size_are_refused(bs23, asc2):
    # a bad tail at the base vertex, a bad tail off it, and a bad residue,
    # the empty vector among them; none is truncated or skipped
    for spec, good, too_long in ((bs23, (0,), (1, 2)), (asc2, (0, 0), (3,))):
        for bad in (too_long, ()):
            for nf in (NormalForm((), bad), NormalForm(((1, good),), bad),
                       NormalForm(((1, bad),), good)):
                for image in (j_affine, scaled,
                              lambda nf, spec: list(ball_images([[nf]], spec)),
                              lambda nf, spec: witness(nf, 1.0, spec)):
                    with pytest.raises(ConfigurationError,
                                       match="dimension mismatch"):
                        image(nf, spec)
            # a bad residue two edges deep, stepped from a held parent
            spheres = [[NormalForm(((1, good),), good)],
                       [NormalForm(((1, good), (1, bad)), good)]]
            with pytest.raises(ConfigurationError, match="dimension mismatch"):
                list(ball_images(spheres, spec))


def test_rendering(bs23):
    assert str(j_affine(w("t x t", bs23), bs23)) == "(2; 2/3)"


@st.composite
def spec_and_word(draw):
    """A datum and a raw word: single letters mixed with t^+-200 runs."""
    spec = GENERAL_DATA[draw(st.sampled_from(sorted(GENERAL_DATA)))]
    x = (st.tuples(*[st.integers(-5, 5)] * spec.n).filter(any)
         .map(lambda z: [X(z)]))
    t = st.sampled_from([[T(1)], [T(-1)]])
    run = st.sampled_from([[T(1)] * 200, [T(-1)] * 200])
    # single letters four times as likely as runs
    pieces = draw(st.lists(st.one_of(x, t, x, t, run), max_size=14))
    return spec, [letter for piece in pieces for letter in piece]


@given(spec_and_word())
@example((GENERAL_DATA["bs23"], [T(1)] * 200 + [X((1,))] + [T(-1)] * 200))
@example((GENERAL_DATA["z3"], [T(-1)] * 200 + [X((1, 0, -1))] + [T(1)] * 3))
@settings(max_examples=150, deadline=None)
def test_fraction_free_fold_matches_compose_fold(case):
    spec, word = case
    nf = britton_reduce(word, spec)
    image = j_affine(word, spec)
    assert image == j_affine_right_fold(word, spec)
    assert image == j_affine(nf, spec)
    assert j_affine(nf, spec) == j_affine_right_fold(nf_letters(nf), spec)
    assert aff_invert(image, spec) == j_affine(invert_letters(word), spec)

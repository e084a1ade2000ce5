"""Acceptance suite: one test per criterion, one PASS line each.

Shared balls come from session fixtures in conftest; every tolerance is
pinned here, not configurable.
"""

import itertools
import math
import random
import time
from collections import deque

from oracles import reduce_with_strategy

from bskit.affine import aff_compose, j_affine
from bskit.embedding import enumerate_ball, check_injectivity, \
    check_stabilizer, generator_letters, properness_profile
from bskit.haagerup import (c0_profile, cocycle, cocycle_identity_check,
                            tree_gram, witness, witness_gram)
from bskit.tree import BASE, act, ball, distance, neighbors
from bskit.words import (T, X, britton_reduce, nf_invert, nf_multiply,
                         parse_word, word_problem)


def _ok(num, label, detail=""):
    print(f"ACCEPTANCE {num:2d} PASS  {label}" + (f"  ({detail})" if detail else ""))


def test_criterion_01_relation_soundness(bs23, bs52):
    t0 = time.time()
    rng = random.Random(101)
    for spec, p, q in ((bs23, 2, 3), (bs52, 5, 2)):
        for _ in range(100):
            z = rng.randrange(-10 ** 6, 10 ** 6)
            word = parse_word(f"x^{p * z} t x^{-q * z} t^-1", spec)
            assert word_problem(word, spec)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _ok(1, "relation soundness, BS(2,3) and BS(5,2), 100 random z each",
        f"{elapsed:.2f}s")


def test_criterion_02_britton_uniqueness_probe(bs23):
    t0 = time.time()
    alphabet = [X((1,)), X((-1,)), T(1), T(-1)]
    count = 0
    for k in range(9):
        for word in itertools.product(alphabet, repeat=k):
            word = list(word)
            left = reduce_with_strategy(word, bs23, "leftmost")
            right = reduce_with_strategy(word, bs23, "rightmost")
            assert left == right == britton_reduce(word, bs23)
            count += 1
    elapsed = time.time() - t0
    assert elapsed <= 60.0
    _ok(2, f"pinch-strategy agreement on all {count} words of length <= 8",
        f"{elapsed:.1f}s")


def test_criterion_03_injectivity_shadow(bs23, bs23_ball6, asc2, asc2_ball5):
    t0 = time.time()
    r1 = check_injectivity(bs23_ball6, bs23)
    r2 = check_injectivity(asc2_ball5, asc2)
    assert r1.ok and r2.ok
    elapsed = time.time() - t0
    assert elapsed <= 60.0
    _ok(3, f"injectivity: 0 violations on {r1.checked} + {r2.checked} elements",
        f"{elapsed:.1f}s")


def test_criterion_04_stabilizer_identity(bs23, bs23_ball6, asc2, asc2_ball5):
    r1 = check_stabilizer(bs23_ball6, bs23)
    r2 = check_stabilizer(asc2_ball5, asc2)
    assert r1.ok and r2.ok
    _ok(4, f"stabilizer identity on {r1.checked} + {r2.checked} elements")


def test_criterion_05_tree_local_structure(bs23, asc2):
    assert len(set(neighbors(BASE, bs23))) == 5
    assert len(set(neighbors(BASE, asc2))) == 5
    assert len(ball(BASE, 2, bs23)) == 26
    _ok(5, "base degree 5 (BS(2,3) and ascending Z^2); |ball(2)| = 26")


def test_criterion_06_distance_consistency(bs23, bs23_ball6):
    # BFS level map of the tree ball, radius 6, independent of the lcp formula
    levels = {BASE: 0}
    frontier = deque([BASE])
    while frontier:
        u = frontier.popleft()
        if levels[u] >= 6:
            continue
        for w in neighbors(u, bs23):
            if w not in levels:
                levels[w] = levels[u] + 1
                frontier.append(w)
    for nf in bs23_ball6.elements:
        u = act(nf, BASE, bs23)
        d = distance(BASE, u)
        assert d == nf.t_length == levels[u]
    _ok(6, f"lcp distance = t-length = BFS level on {len(bs23_ball6)} elements")


def test_criterion_07_cocycle_identities(bs23, bs23_ball6):
    t0 = time.time()
    elements = bs23_ball6.elements
    for nf in elements:
        assert cocycle(nf, bs23).norm_sq() == distance(
            BASE, act(nf, BASE, bs23))
    rng = random.Random(107)
    for _ in range(10 ** 4):
        g = rng.choice(elements)
        d = rng.choice(elements)
        assert cocycle_identity_check(g, d, bs23)
    elapsed = time.time() - t0
    assert elapsed <= 60.0
    _ok(7, f"||b||^2 = d on {len(elements)} elements; cocycle law on 10^4 pairs",
        f"{elapsed:.1f}s")


def test_criterion_08_tree_kernel_psd(bs23, bs23_ball6):
    t0 = time.time()
    rng = random.Random(108)
    elements = bs23_ball6.elements
    worst = 0.0
    for _ in range(20):
        sample = rng.sample(elements, 40)
        for s in (0.1, 0.5, 1.0):
            report = tree_gram(sample, s, bs23)
            assert report.min_eigenvalue >= -1e-8 * 40
            worst = min(worst, report.min_eigenvalue)
    elapsed = time.time() - t0
    assert elapsed <= 10.0
    _ok(8, "tree kernel PSD on 20 x 3 reports of dimension 40",
        f"min eig >= {worst:.2e}, {elapsed:.1f}s")


def test_criterion_09_affine_layer(bs23):
    from bskit.affine import AffineElement
    from fractions import Fraction
    aff = j_affine(parse_word("t x t", bs23), bs23)
    assert aff == AffineElement(2, (Fraction(2, 3),))
    rng = random.Random(109)
    letters = [X((1,)), X((-1,)), X((2,)), T(1), T(-1)]
    for _ in range(10 ** 4):
        u = [rng.choice(letters) for _ in range(rng.randrange(0, 8))]
        v = [rng.choice(letters) for _ in range(rng.randrange(0, 8))]
        assert j_affine(u + v, bs23) == aff_compose(
            j_affine(u, bs23), j_affine(v, bs23), bs23)
        assert j_affine(u, bs23) == j_affine(britton_reduce(u, bs23), bs23)
    _ok(9, "affine homomorphism + Britton invariance on 10^4 pairs; "
           "j(t x t) = (2; 2/3)")


def test_criterion_10_properness_profiles(bs12, bs12_ball10, bs23,
                                          bs23_ball10):
    # NOTE: expected to fail for R = 4 at Lmax = 10.  The R = 4 sublevel
    # counts are still growing at L = 10 for both groups (e.g. t^4 x^59 in
    # BS(1,2), sup-norm 59/16, first appears at word length 10); they
    # stabilize at Lmax = 12 resp. 13.  See test_embedding.py for the
    # stabilization at larger Lmax; the criterion is asserted as stated.
    t0 = time.time()
    p12 = properness_profile(10, [1, 2, 4], bs12, ball=bs12_ball10)
    p23 = properness_profile(10, [1, 2, 4], bs23, ball=bs23_ball10)
    elapsed = time.time() - t0
    assert elapsed <= 60.0
    for name, profile in (("BS(1,2)", p12), ("BS(2,3)", p23)):
        print(f"  properness {name}: " + ", ".join(
            f"R={r} tail {profile.counts[r][-3:]} "
            f"stabilized={profile.stabilized[r]}" for r in (1, 2, 4)))
    for profile in (p12, p23):
        for r in (1, 2, 4):
            assert profile.stabilized[r], \
                f"R={r} count still growing at Lmax=10: {profile.counts[r][-3:]}"
    _ok(10, "properness profiles stabilized for R in {1,2,4} at Lmax=10",
        f"{elapsed:.1f}s")


def test_criterion_11_explicit_witness(bs12, bs12_ball10):
    val = witness(britton_reduce(parse_word("t", bs12), bs12), 1.0, bs12)
    assert abs(val - math.exp(-(1 + math.log(2)))) < 1e-10
    rng = random.Random(111)
    elements = bs12_ball10.elements
    for _ in range(10):
        sample = rng.sample(elements, 30)
        report = witness_gram(sample, 1.0, bs12)
        assert report.min_eigenvalue >= -1e-8 * len(sample)
    rows = c0_profile(10, 1.0, bs12, ball=bs12_ball10)
    values = [v for _, v, _ in rows]
    for a, b in zip(values[4:], values[5:]):
        assert b < a
    _ok(11, "psi_1(t) = exp(-(1+ln 2)); witness kernel PSD x10; "
            "C0 maxima strictly decreasing for L >= 4")


def test_criterion_12_cross_oracle_ball_counts(bs23):
    alphabet = generator_letters(bs23)
    reps = []
    for k in range(5):
        for word in itertools.product(alphabet, repeat=k):
            nf = britton_reduce(list(word), bs23)
            if not any(nf_multiply(nf_invert(r, bs23), nf, bs23).is_identity
                       for r in reps):
                reps.append(nf)
    assert len(reps) == len(enumerate_ball(4, bs23))
    _ok(12, f"normal-form dedup = pairwise word-problem dedup "
            f"({len(reps)} elements, L <= 4)")

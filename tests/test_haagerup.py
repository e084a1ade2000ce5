import dataclasses
import importlib
import json
import math
import pkgutil
import random
import re
import sys
import typing
from fractions import Fraction

import numpy as np
import pytest

from conftest import GENERAL_DATA, IMAGE_DATA
from oracles import (ball_images, scaled_image, translate_reference,
                     tree_distances)

import bskit
import bskit.haagerup
from bskit.affine import AffineElement, aff_compose, j_affine, scaled
from bskit.arith import IntMatrix
from bskit.embedding import (CheckReport, PropernessProfile, check_stabilizer,
                             enumerate_ball, properness_profile)
from bskit.haagerup import (CocycleVector, UnsupportedWitnessError,
                            _gram_report, _tree_distances, affine_distances,
                            c0_profile, c0_profile_csv, cocycle,
                            cocycle_identity_check, hyperbolic_distance,
                            tree_gram, translate_cocycle, witness,
                            witness_gram)
from bskit.presentation import make_bs
from bskit.tree import (BASE, ResourceBoundError, Vertex, act, distance,
                        geodesic, vertex_of)
from bskit.words import (NormalForm, T, VertexTrie, X, _Builder,
                         britton_reduce, nf_append, nf_invert, nf_multiply,
                         parse_word)

# the identity's affine image (0, 0) as (k, num, den), n = 1
ONE = (0, [0], 1)

# n = 1 with lambda < 0 and lambda != -1: -2/3, -1/2 and -3/2
NEGATIVE = ((2, -3), (1, -2), (-2, 3))


def nf(text, spec):
    return britton_reduce(parse_word(text, spec), spec)


def displacement(text, spec):
    """Distance of the image of a word from the identity's image."""
    image = scaled(nf(text, spec), spec)
    return affine_distances([ONE], [image], spec)[0][0]


# ---------------------------------------------------------------------------
# cocycle

def test_cocycle_of_x_power_empty(bs23):
    assert cocycle(nf("x^9", bs23), bs23).norm_sq() == 0


def test_cocycle_of_t_single_edge(bs23):
    cv = cocycle(nf("t", bs23), bs23)
    assert cv.norm_sq() == 1
    ((parent, child), coeff), = cv.coefficients
    assert parent == BASE and coeff == 1


def test_cocycle_txt_norm(bs23):
    cv = cocycle(nf("t x t", bs23), bs23)
    assert cv.norm_sq() == 2


def test_cocycle_norm_equals_distance(bs23, bs23_ball6):
    for g in bs23_ball6.elements[:400]:
        assert cocycle(g, bs23).norm_sq() == distance(BASE, act(g, BASE, bs23))


def _random_word(rng, n, length):
    return [T(rng.choice((1, -1))) if rng.random() < 0.5
            else X(tuple(rng.randint(-4, 4) for _ in range(n)))
            for _ in range(length)]


@pytest.mark.parametrize("name", sorted(GENERAL_DATA))
def test_cocycle_is_the_geodesic_to_the_vertex_of_its_argument(name):
    # b(gamma) is read off gamma's normal form; its definition is the
    # geodesic from the base vertex to vertex_of(gamma), one +1 per edge
    # named by its child, and the display names both ends as Vertexes
    spec = GENERAL_DATA[name]
    n, rng = spec.n, random.Random(47)
    one = tuple(range(1, n + 1))
    raw = [[], [X(one)], [X(one), X(one)],
           [T(1), T(-1)], [T(-1), T(1), X(one), T(-1)],
           [T(1), X(one), T(1), T(-1), T(-1), T(1)]]
    raw += [_random_word(rng, n, 40) for _ in range(20)]
    words = [*raw, *enumerate_ball(4, spec).elements,
             [X((1,) * n), T(1)] * 1200]
    pinched = False
    for gamma in words:
        cv = cocycle(gamma, spec)
        path = geodesic(BASE, vertex_of(gamma, spec))
        assert cv.edges == dict.fromkeys(path[1:], 1), (name, gamma)
        for (parent, child), c in cv.coefficients:
            assert type(parent) is Vertex and type(child) is Vertex
            assert child in cv.edges and str(child) == str(path[len(child)])
        if not isinstance(gamma, NormalForm):
            pinched |= britton_reduce(gamma, spec).t_length < sum(
                isinstance(letter, T) for letter in gamma)
    assert pinched and cv.norm_sq() == 1200


def test_cocycle_identity_delta_trivial(bs23):
    assert cocycle_identity_check(nf("t x t", bs23), nf("x^0", bs23), bs23)


def test_cocycle_identity_t_squared(bs23):
    t = nf("t", bs23)
    lhs = cocycle(nf("t t", bs23), bs23)
    rhs = cocycle(t, bs23) + translate_cocycle(t, cocycle(t, bs23), bs23)
    assert lhs == rhs
    assert lhs.norm_sq() == 2


def test_cocycle_law_random_pairs(bs23, bs23_ball6):
    rng = random.Random(17)
    elements = bs23_ball6.elements
    for _ in range(500):
        g = rng.choice(elements)
        d = rng.choice(elements)
        assert cocycle_identity_check(g, d, bs23)


def test_cocycle_inverse_antisymmetry(bs23, bs23_ball6):
    rng = random.Random(19)
    for _ in range(100):
        g = rng.choice(bs23_ball6.elements)
        ginv = nf_invert(g, bs23)
        # b(g^-1) = -g^-1 b(g): the sum has no nonzero coefficient
        total = cocycle(ginv, bs23) + translate_cocycle(
            ginv, cocycle(g, bs23), bs23)
        assert total.coefficients == ()


@pytest.mark.parametrize("name", sorted(GENERAL_DATA))
def test_translate_cocycle_matches_pair_reference(name):
    spec = GENERAL_DATA[name]
    elements = enumerate_ball(4, spec).elements
    rng = random.Random(29)
    down = cancelled = siblings = False
    for i in range(40):
        g, d1, d2, gamma = (rng.choice(elements) for _ in range(4))
        ginv = nf_invert(g, spec)
        # b(d1) + g^-1.b(d2): two geodesics, the second one anywhere; on
        # odd draws g^-1.b(g) runs up from g^-1 v to v, against b(g^-1 d1)
        if i % 2:
            d1, d2 = nf_multiply(ginv, d1, spec), g
        a = cocycle(d1, spec)
        b = translate_cocycle(ginv, cocycle(d2, spec), spec)
        cv = a + b
        assert cv == b + a
        assert (translate_cocycle(gamma, cv, spec).coefficients
                == translate_reference(gamma, cv, spec))
        down |= any(c < 0 for c in cv.edges.values())
        cancelled |= any(b.edges.get(w) == -c for w, c in a.edges.items())
        depths = [len(w) for w in cv.edges]
        siblings |= len(set(depths)) < len(depths)
        zero = cocycle(ginv, spec) + translate_cocycle(
            ginv, cocycle(g, spec), spec)
        assert zero == CocycleVector({})
    # the draws reach the cases a single geodesic never has
    assert down and cancelled and siblings


@pytest.mark.parametrize("name", sorted(GENERAL_DATA))
def test_sums_of_translated_cocycles_drop_cancelled_edges(name):
    # a + b in one pass over b: a cancelled edge is dropped where it
    # cancels.  g.b(d) + gd.b(e) = g.b(de) cancels where the path to dv
    # turns back, and outright for e = d^-1; both bracketings of a third
    # summand equal the sum of the three maps, with no zero stored
    spec = GENERAL_DATA[name]
    elements = enumerate_ball(4, spec).elements
    rng = random.Random(43)
    partial = False
    for i in range(60):
        g, d, e, h, f = (rng.choice(elements) for _ in range(5))
        if i % 2:
            e = nf_invert(d, spec)
        a = translate_cocycle(g, cocycle(d, spec), spec)
        b = translate_cocycle(nf_multiply(g, d, spec), cocycle(e, spec), spec)
        c = translate_cocycle(h, cocycle(f, spec), spec)
        if i % 2:
            assert (a + b).edges == {}
        total = {w: s for w in {**a.edges, **b.edges, **c.edges}
                 if (s := sum(x.edges.get(w, 0) for x in (a, b, c)))}
        left, right = (a + b) + c, a + (b + c)
        assert left == right and left.edges == total, name
        for cv in (a + b, b + c, left, right):
            assert 0 not in cv.edges.values()
        partial |= bool((a + b).edges) and any(
            b.edges.get(w) == -v for w, v in a.edges.items())
    assert partial, name


def _never_pinch_decompose(spec, eps, tail):
    lattice = spec.lattice_a if eps == 1 else spec.lattice_b
    return lattice.decompose(tail, spec.carry[eps])


def _never_pinch_push_t(builder, eps):
    r, builder.tail = _never_pinch_decompose(builder.spec, eps, builder.tail)
    builder.syl.append((eps, r))


def _never_pinch_append(key, letter, spec, trie):
    # every t-letter makes (or finds) a child node, never the parent
    if isinstance(letter, T):
        r, carry = _never_pinch_decompose(spec, letter.eps,
                                          trie.tails[key[1]])
        return trie.add(key[0], (letter.eps, r)), trie.intern(carry)
    return nf_append(key, letter, spec, trie)


@pytest.mark.parametrize("owner, attr, mutant", [
    (_Builder, "push_t", _never_pinch_push_t),
    (bskit.haagerup, "nf_append", _never_pinch_append)])
def test_cocycle_law_cross_checks_the_two_pinch_rules(bs23, owner, attr,
                                                      mutant, monkeypatch):
    # the law's left side reduces g d by _Builder.push_t, its right side
    # translates b(d) by nf_append: a rule broken in either copy shows
    elements = enumerate_ball(4, bs23).elements
    rng = random.Random(31)
    pairs = [(rng.choice(elements), rng.choice(elements)) for _ in range(300)]
    assert all(cocycle_identity_check(g, d, bs23) for g, d in pairs)
    monkeypatch.setattr(owner, attr, mutant)
    assert not all(cocycle_identity_check(g, d, bs23) for g, d in pairs)


def _appended_t(g, d, spec):
    # the left-side mutant: g d t in place of g d
    return nf_multiply(nf_multiply(g, d, spec), nf("t", spec), spec)


def test_cocycle_law_fails_on_a_wrong_left_side(bs23, monkeypatch):
    # b(g d t) and b(g d) end at adjacent vertices, so no pair passes
    elements = enumerate_ball(4, bs23).elements
    rng = random.Random(47)
    pairs = [(rng.choice(elements), rng.choice(elements)) for _ in range(100)]
    monkeypatch.setattr(bskit.haagerup, "nf_multiply", _appended_t)
    assert not any(cocycle_identity_check(g, d, bs23) for g, d in pairs)


def _tuple_law(g, d, spec):
    # the law on the public tuple-keyed values
    return cocycle(nf_multiply(g, d, spec), spec) == cocycle(
        g, spec) + translate_cocycle(g, cocycle(d, spec), spec)


@pytest.mark.parametrize("name", sorted(GENERAL_DATA))
def test_cocycle_law_agrees_with_the_tuple_formula(name, monkeypatch):
    # pair by pair, on the true library and under each never-pinch mutant:
    # the node-space law reads what the tuple-keyed values read, and each
    # mutant makes it read False somewhere
    spec = GENERAL_DATA[name]
    elements = enumerate_ball(4, spec).elements
    rng = random.Random(53)
    pairs = [(rng.choice(elements), rng.choice(elements)) for _ in range(300)]
    for owner, attr, mutant in ((None, None, None),
                                (_Builder, "push_t", _never_pinch_push_t),
                                (bskit.haagerup, "nf_append",
                                 _never_pinch_append)):
        with monkeypatch.context() as patch:
            if mutant is not None:
                patch.setattr(owner, attr, mutant)
            verdicts = [cocycle_identity_check(g, d, spec) for g, d in pairs]
            assert verdicts == [_tuple_law(g, d, spec) for g, d in pairs]
        assert all(verdicts) == (mutant is None), (name, attr)


@pytest.mark.parametrize("name", sorted(GENERAL_DATA))
def test_a_lent_trie_changes_no_verdict(name, monkeypatch):
    # pair by pair, one trie lent to every pair reads what a fresh trie per
    # pair reads, on the true library, under each never-pinch mutant and
    # under the wrong left side; on the true library each call leaves at
    # most 1 + |g| + |d| + |gd| nodes, and a second pass over the same
    # pairs takes every step from the table
    spec = GENERAL_DATA[name]
    elements = enumerate_ball(4, spec).elements
    rng = random.Random(61)
    pairs = [(rng.choice(elements), rng.choice(elements)) for _ in range(300)]
    for owner, attr, mutant in ((None, None, None),
                                (_Builder, "push_t", _never_pinch_push_t),
                                (bskit.haagerup, "nf_append",
                                 _never_pinch_append),
                                (bskit.haagerup, "nf_multiply", _appended_t)):
        with monkeypatch.context() as patch:
            if mutant is not None:
                patch.setattr(owner, attr, mutant)
            trie, verdicts = VertexTrie(), []
            for g, d in pairs:
                verdicts.append(cocycle_identity_check(g, d, spec, trie=trie))
                assert mutant is not None or len(trie.parent) <= (
                    1 + g.t_length + d.t_length
                    + nf_multiply(g, d, spec).t_length)
            assert verdicts == [cocycle_identity_check(g, d, spec)
                                for g, d in pairs], (name, attr)
            assert all(verdicts) == (mutant is None), (name, attr)
            if mutant is None:
                steps, tails = dict(trie.table), list(trie.tails)
                assert verdicts == [cocycle_identity_check(
                    g, d, spec, trie=trie) for g, d in pairs]
                assert (trie.table, trie.tails) == (steps, tails)


def test_cocycle_law_is_linear_in_the_t_length(bs23, monkeypatch):
    # one trie node per pair pushed, at most: |g| for g's path, |d| for d's
    # path moved, |gd| for the left side's path, on a trie of its own or on
    # one lent to every call; no vertex tuple and no tuple-keyed value is
    # built, which made the law O(m^2) in the t-length
    d = britton_reduce([X((1,)), T(1)] * 2400, bs23)
    gs = random.Random(59).sample(enumerate_ball(3, bs23).elements, 5)
    add, adds = VertexTrie.add, [0]

    def counted(trie, node, pair):
        adds[0] += 1
        return add(trie, node, pair)

    def refused(*args):
        raise AssertionError("the law built a tuple-keyed value")
    monkeypatch.setattr(VertexTrie, "add", counted)
    monkeypatch.setattr(VertexTrie, "vertex", refused)
    monkeypatch.setattr(bskit.haagerup, "cocycle", refused)
    monkeypatch.setattr(bskit.haagerup, "translate_cocycle", refused)
    lent = VertexTrie()
    for g in gs:
        gd = nf_multiply(g, d, bs23)
        for trie in (None, lent):
            adds[0] = 0
            assert cocycle_identity_check(g, d, bs23, trie=trie)
            assert 0 < adds[0] <= g.t_length + d.t_length + gd.t_length


def test_cocycle_law_on_a_path_past_the_recursion_limit(bs23):
    # t-length 1200 > the default recursion limit: translation walks the
    # path by a loop
    d = britton_reduce([X((1,)), T(1)] * 1200, bs23)
    assert d.t_length == 1200 > sys.getrecursionlimit()
    rng = random.Random(37)
    for g in rng.sample(enumerate_ball(3, bs23).elements, 3):
        assert cocycle_identity_check(g, d, bs23)
        assert translate_cocycle(g, cocycle(d, bs23), bs23).norm_sq() == 1200


# ---------------------------------------------------------------------------
# tree gram

def test_tree_gram_singleton(bs23):
    report = tree_gram([nf("x^0", bs23)], 1.0, bs23)
    assert report.matrix.shape == (1, 1)
    assert abs(report.min_eigenvalue - 1.0) < 1e-12
    assert report.psd


def test_tree_gram_two_by_two_closed_form(bs23):
    s = 0.7
    report = tree_gram([nf("x^0", bs23), nf("t", bs23)], s, bs23)
    expected = 1 - math.exp(-s)
    assert abs(report.min_eigenvalue - expected) < 1e-12


def test_tree_gram_random_sample_psd(bs23, bs23_ball6):
    rng = random.Random(23)
    sample = rng.sample(bs23_ball6.elements, 40)
    for s in (0.1, 1.0):
        report = tree_gram(sample, s, bs23)
        assert report.psd
        assert np.allclose(report.matrix, report.matrix.T)
        assert np.allclose(np.diag(report.matrix), 1.0)


def test_gram_verdict_fails_on_a_planted_distance_defect(bs23):
    # a fixed 40-element sample of the L = 5 ball with one tree distance
    # put off by one, symmetrically: at s = 0.5 the minimum eigenvalue is
    # about -1.4e-2 against the tolerance 1e-8 m = 4e-7 (a tolerance of
    # 1e-2 m would call it PSD); some plants leave the matrix PSD, this
    # one does not
    sample = random.Random(0).sample(enumerate_ball(5, bs23).elements, 40)
    verts = [vertex_of(g, bs23) for g in sample]
    dm = [[distance(u, w) for w in verts] for u in verts]
    assert _gram_report("tree", 0.5, sample, dm).psd
    dm[0][1] -= 1
    dm[1][0] -= 1
    report = _gram_report("tree", 0.5, sample, dm)
    assert report.tolerance == 4e-7
    assert report.min_eigenvalue < -1e-2
    assert not report.psd
    assert json.loads(report.to_json())["psd"] is False


def test_tree_gram_rejects_duplicates(bs23, bs12):
    with pytest.raises(ValueError):
        tree_gram([nf("t", bs23), nf("t", bs23)], 1.0, bs23)
    # raw words are compared as group elements: both are t x^2 in BS(1,2)
    same = [parse_word("x t", bs12), parse_word("t x^2", bs12)]
    for gram in (tree_gram, witness_gram):
        with pytest.raises(ValueError, match="duplicate"):
            gram(same, 1.0, bs12)
        # raw words distinct in the group are accepted, named by their forms
        report = gram([same[0], parse_word("t", bs12)], 1.0, bs12)
        assert report.element_names == ["t x^2", "t"]
    with pytest.raises(ValueError):
        tree_gram([nf("t", bs23)], -1.0, bs23)
    with pytest.raises(ValueError, match="empty"):
        tree_gram([], 1.0, bs23)
    with pytest.raises(ValueError, match="empty"):
        witness_gram([], 1.0, make_bs(1, 2))


def test_gram_report_json(bs23):
    report = tree_gram([nf("x^0", bs23), nf("t", bs23)], 0.5, bs23)
    data = json.loads(report.to_json())
    assert data["kernel"] == "tree" and data["psd"] is True
    assert data["dimension"] == 2


@pytest.mark.parametrize("name", GENERAL_DATA)
def test_gram_matrices_equal_the_pairwise_oracle(name):
    # the sorted pass gives every tree distance of one tree.distance call
    # per pair, also where elements share a vertex (x and x^2 at the base,
    # and the repeated vertices of a 300-element sample); the witness Gram
    # equals the full matrix of the half-plane distances, to the last bit
    spec = GENERAL_DATA[name]
    elements = enumerate_ball(5 if spec.n == 1 else 4, spec).elements
    rng = random.Random(47)
    xs = [britton_reduce([X((k,) + (0,) * (spec.n - 1))], spec)
          for k in (1, 2)]
    samples = [xs] + [rng.sample(elements, min(m, len(elements)))
                      for m in (1, 2, 40, 300)]
    assert len({g.vertex for g in samples[-1]}) < len(samples[-1])
    for sample in samples:
        verts = [g.vertex for g in sample]
        ref = tree_distances(verts)
        got = _tree_distances(verts)
        assert got.dtype == np.int64 and got.tolist() == ref
        for s in (0.5, 1.0):
            assert np.array_equal(tree_gram(sample, s, spec).matrix,
                                  np.exp(-s * np.array(ref, dtype=float)))
            if spec.n != 1:
                continue
            images = [scaled(g, spec) for g in sample]
            dm = [[d + a for d, a in zip(row, arow)] for row, arow in
                  zip(ref, affine_distances(images, images, spec))]
            want = _gram_report("witness", s, sample, dm)
            report = witness_gram(sample, s, spec)
            assert np.array_equal(report.matrix, want.matrix)
            assert report.to_json() == want.to_json()


def test_public_dataclass_annotations_resolve():
    # every annotation of a public dataclass or NamedTuple names something
    # importable at module level, so typing.get_type_hints (and the tools
    # that call it) can read them
    seen = []
    for info in pkgutil.iter_modules(bskit.__path__):
        module = importlib.import_module(f"bskit.{info.name}")
        for name, obj in vars(module).items():
            if (not name.startswith("_") and isinstance(obj, type)
                    and (dataclasses.is_dataclass(obj)
                         or (issubclass(obj, tuple)
                             and hasattr(obj, "_fields")
                             and "__annotations__" in vars(obj)))
                    and obj.__module__ == module.__name__):
                typing.get_type_hints(obj)
                seen.append(name)
    assert {"AffineElement", "CheckReport", "CocycleVector", "GramReport",
            "IntMatrix", "NormalForm", "PropernessProfile"} <= set(seen)


BS23 = make_bs(2, 3)

# (value, its repr, an equal value built another way, a value of the same
# kind that differs)
VALUES = [
    (X((1, -2)), "X(z=(1, -2))",
     parse_word("v[1,-2]", GENERAL_DATA["z2_nonasc"])[0], X((1, 2))),
    (T(-1), "T(eps=-1)", parse_word("t^-1", BS23)[0], T(1)),
    (IntMatrix(((1, 2), (3, 4))), "IntMatrix(rows=((1, 2), (3, 4)))",
     IntMatrix.from_rows([[1, 2], [3, 4]]), IntMatrix.scalar(2)),
    (AffineElement(2, (Fraction(2, 3),)),
     "AffineElement(k=2, a=(Fraction(2, 3),))",
     j_affine(parse_word("t x t", BS23), BS23),
     AffineElement(2, (Fraction(1, 3),))),
    (CocycleVector({Vertex(((1, (0,)),)): 1}),
     "CocycleVector(edges={((1, (0,)),): 1})",
     cocycle(parse_word("t x^2", BS23), BS23),
     CocycleVector({Vertex(((1, (0,)),)): -1})),
    (CheckReport("stabilizer", 17, []),
     "CheckReport(name='stabilizer', checked=17, violations=[])",
     check_stabilizer(enumerate_ball(2, BS23), BS23),
     CheckReport("injectivity", 17, [])),
    (PropernessProfile(2, [1], {1: [1, 5, 11]}, {1: False}),
     "PropernessProfile(lmax=2, r_grid=[1], counts={1: [1, 5, 11]}, "
     "stabilized={1: False})",
     properness_profile(2, [1], BS23),
     PropernessProfile(2, [1], {1: [1, 5, 11]}, {1: True})),
]


@pytest.mark.parametrize("value, text, twin, other", VALUES,
                         ids=[type(v[0]).__name__ for v in VALUES])
def test_record_types_are_immutable_values(value, text, twin, other):
    # the repr names the fields, equality is by field values within a kind,
    # hashing agrees with it where every field is hashable, and no field
    # can be set
    assert repr(value) == repr(twin) == text
    assert value == twin and value != other
    if type(value) in (X, T, IntMatrix, AffineElement):
        assert hash(value) == hash(twin) and len({value, twin, other}) == 2
    for field in typing.get_type_hints(type(value)):
        with pytest.raises(AttributeError):
            setattr(value, field, None)


# ---------------------------------------------------------------------------
# hyperbolic witness

def test_orbit_identity(bs12):
    assert scaled(nf("x^0", bs12), bs12) == ONE
    assert displacement("x^0", bs12) == 0.0
    p = (0.0, 1.0)
    assert hyperbolic_distance(p, p) == 0.0


def test_orbit_of_t_bs12(bs12):
    # t moves the base point (0, 1) to (0, 1/2)
    d = displacement("t", bs12)
    assert d == hyperbolic_distance((0.0, 1.0), (0.0, 0.5))
    assert abs(d - math.log(2)) < 1e-12


def test_orbit_of_x_bs12(bs12):
    # x moves the base point (0, 1) to (1, 1)
    d = displacement("x", bs12)
    assert d == hyperbolic_distance((0.0, 1.0), (1.0, 1.0))
    assert abs(d - math.acosh(1.5)) < 1e-12


def test_affine_distances_left_invariant(bs12):
    # the orbit map is equivariant and the group acts by isometries (with
    # a reflection where lambda^k < 0), so d(e f, e g) = d(f, g)
    rng = random.Random(29)

    def element():
        return AffineElement(rng.randrange(-4, 5),
                             (Fraction(rng.randrange(-20, 20), 4),))
    for spec in (bs12, make_bs(2, -2), *(make_bs(p, q) for p, q in NEGATIVE)):
        for _ in range(200):
            e, f, g = element(), element(), element()
            (d,), = affine_distances([scaled_image(f)], [scaled_image(g)],
                                     spec)
            (de,), = affine_distances(
                [scaled_image(aff_compose(e, f, spec))],
                [scaled_image(aff_compose(e, g, spec))], spec)
            assert abs(de - d) < 1e-9 * max(1.0, d)


def test_half_plane_rejects_bad_point():
    # y <= 0, y infinite, x not finite, or NaN at either point is outside
    # the upper half-plane
    good = (0.0, 1.0)
    bads = [(0.0, y) for y in (-1.0, 0.0, -0.0, math.nan, math.inf)]
    bads += [(x, 1.0) for x in (math.nan, math.inf, -math.inf)]
    for bad in bads:
        for p, q in ((bad, good), (good, bad), (bad, bad)):
            with pytest.raises(ValueError, match="upper half-plane"):
                hyperbolic_distance(p, q)
    # a finite pair too far apart for a float stays a range error, also
    # where the x difference itself overflows to inf
    far = [((0.0, 1e300), (0.0, 1e-300)), ((0.0, 1e-200), (1e200, 1e-200)),
           ((-1e308, 1.0), (1e308, 1.0))]
    for p, q in far:
        for a, b in ((p, q), (q, p)):
            message = f"the distance of {a} and {b} is not a float"
            with pytest.raises(OverflowError, match=re.escape(message)):
                hyperbolic_distance(a, b)
    # two heights whose doubled product underflows to 0.0
    tiny = 2.0 ** -600
    with pytest.raises(OverflowError):
        hyperbolic_distance((0.0, tiny), (tiny, tiny))
    spec = make_bs(1, 2)
    with pytest.raises(OverflowError):
        witness_gram([nf("t^600", spec), nf("t^600 x", spec)], 1.0, spec)


def test_distance_of_a_point_to_itself_at_tiny_height():
    # 2 y^2 underflows to 0.0 below y = 2^-538; the distance is still 0
    for y in (2.0 ** -538, 2.0 ** -600):
        for x in (0.0, -3.5, y):
            assert hyperbolic_distance((x, y), (x, y)) == 0.0
    spec = make_bs(1, 2)
    for word in ("t^537", "t^538"):
        report = witness_gram([nf(word, spec)], 1.0, spec)
        assert report.psd and report.min_eigenvalue == 1.0


# ---------------------------------------------------------------------------
# combined witness

def test_every_n1_datum_has_a_witness(bs52, asc2):
    # t moves (0, 1) to (0, |lambda|), at distance |log |lambda||, for
    # every sign of lambda; n > 1 raises one message from all three entries
    specs = [*IMAGE_DATA.values(), bs52, asc2]
    assert {spec.n for spec in specs} == {1, 2, 3}
    for spec in specs:
        t = nf("t", spec)
        if spec.n == 1:
            d = abs(math.log(abs(spec.lam_scalar)))
            assert math.isclose(witness(t, 1.0, spec), math.exp(-(1 + d)),
                                rel_tol=1e-12)
            continue
        messages = set()
        for call in (lambda: witness(t, 1.0, spec),
                     lambda: witness_gram([t], 1.0, spec),
                     lambda: c0_profile(2, 1.0, spec)):
            with pytest.raises(UnsupportedWitnessError) as err:
                call()
            messages.add(str(err.value))
        assert len(messages) == 1


def test_profile_only_raises(asc2):
    with pytest.raises(UnsupportedWitnessError):
        witness(nf("t", asc2), 1.0, asc2)
    with pytest.raises(UnsupportedWitnessError):
        witness_gram([nf("t", asc2)], 1.0, asc2)
    # tree_gram still available in the profile-only regime
    assert tree_gram([nf("t", asc2), nf("v[1,0]", asc2)], 1.0, asc2).psd


def test_c0_profile_refuses_in_order_for_n_above_1(asc2, bs12, monkeypatch):
    # the scale, then the ball (its bound, its datum, lmax within it), and
    # only then the missing witness
    monkeypatch.delenv("BSK_MAX_BALL", raising=False)
    with pytest.raises(ValueError, match="kernel parameter"):
        c0_profile(20, -1.0, asc2)
    with pytest.raises(ResourceBoundError, match="radius 9 exceeds bound 8"):
        c0_profile(9, 1.0, asc2)
    ball = enumerate_ball(2, asc2)
    with pytest.raises(ValueError, match="the given ball is of"):
        c0_profile(2, 1.0, asc2, ball=enumerate_ball(2, bs12))
    for lmax in (3, -1):
        with pytest.raises(ValueError, match=f"lmax = {lmax} is outside"):
            c0_profile(lmax, 1.0, asc2, ball=ball)
    for given in (ball, None):
        with pytest.raises(UnsupportedWitnessError):
            c0_profile(2, 1.0, asc2, ball=given)


def test_witness_identity_is_one(bs12):
    assert witness(nf("x^0", bs12), 1.0, bs12) == 1.0


def test_witness_of_t_bs12(bs12):
    val = witness(nf("t", bs12), 1.0, bs12)
    assert abs(val - math.exp(-(1 + math.log(2)))) < 1e-10


def test_witness_upper_bound_tree_part(bs12, bs12_ball10):
    rng = random.Random(31)
    for _ in range(200):
        g = rng.choice(bs12_ball10.elements)
        s = rng.choice([0.3, 1.0])
        assert witness(g, s, bs12) <= math.exp(-s * g.t_length) + 1e-12


def test_witness_gram_psd(bs12, bs12_ball10):
    rng = random.Random(37)
    sample = rng.sample(bs12_ball10.elements, 25)
    report = witness_gram(sample, 0.5, bs12)
    assert report.psd


def test_witness_gram_psd_for_negative_lambda():
    for p, q in (*NEGATIVE, (3, -5), (2, -2), (1, -1)):
        spec = make_bs(p, q)
        elements = enumerate_ball(5, spec).elements
        sample = random.Random(41).sample(elements, 60)
        for s in (0.25, 1.0):
            report = witness_gram(sample, s, spec)
            assert report.psd
            # displacement for gamma against itself is zero -> unit diagonal
            assert np.allclose(np.diag(report.matrix), 1.0)


def test_displacement_is_distance_from_identity(bs12):
    base = (0.0, 1.0)
    for spec in (bs12, make_bs(2, -2), *(make_bs(p, q) for p, q in NEGATIVE)):
        ball = enumerate_ball(4, spec)
        images = [i for sphere in ball_images(ball.spheres, spec)
                  for i in sphere]
        for g, e in zip(ball.elements, images, strict=True):
            k, num, den = e
            d = affine_distances([ONE], [e], spec)[0][0]
            assert d == affine_distances([e], [ONE], spec)[0][0]
            assert witness(g, 1.0, spec) == math.exp(-(g.t_length + d))
            point = (num[0] / den, float(abs(spec.lam_scalar) ** k))
            assert d == hyperbolic_distance(base, point)


def test_witness_family_matches_per_element_j_affine():
    # reference images from each element's Fraction image, turned into
    # integers by the oracle; values and matrices agree to the last bit
    for p, q in ((1, 2), (2, 3), (3, 5), (2, -2), (1, -1), *NEGATIVE):
        spec = make_bs(p, q)
        elements = enumerate_ball(4, spec).elements
        ref = [scaled_image(j_affine(g, spec)) for g in elements]
        disp = affine_distances([ONE], ref, spec)[0]
        sample = random.Random(43).sample(range(len(elements)),
                                          min(30, len(elements)))
        gram_ref = affine_distances([ref[i] for i in sample],
                                    [ref[i] for i in sample], spec)
        verts = [vertex_of(elements[i], spec) for i in sample]
        for s in (1.0, 0.3):
            assert [witness(g, s, spec) for g in elements] == [
                math.exp(-s * (g.t_length + d))
                for g, d in zip(elements, disp)]
            report = witness_gram([elements[i] for i in sample], s, spec)
            dm = [[distance(u, w) + a for w, a in zip(verts, row)]
                  for u, row in zip(verts, gram_ref)]
            assert (report.matrix == np.exp(-s * np.asarray(dm))).all()


def test_witness_at_huge_heights_is_a_range_error(bs12):
    # lambda^k leaves the float range: 2^-1100 underflows, 2^1100 overflows
    for text, k in (("t^1100", "1100"), ("t^-1100", "-1100")):
        with pytest.raises(OverflowError, match=f"k = {k} "):
            witness(nf(text, bs12), 1.0, bs12)


def test_c0_profile_decreasing(bs12, bs12_ball10):
    rows = c0_profile(10, 1.0, bs12, ball=bs12_ball10)
    values = [v for _, v, _ in rows]
    assert values[0] == 1.0
    for a, b in zip(values[4:], values[5:]):
        assert b < a
    csv = c0_profile_csv(rows)
    assert csv.splitlines()[0] == "L,max_witness,argmax"


def test_c0_profile_reads_lmax_spheres_of_a_given_ball(bs12, bs12_ball10):
    # a larger ball gives the rows of a fresh radius-lmax ball
    for lmax in (3, 6):
        rows = c0_profile(lmax, 1.0, bs12, ball=bs12_ball10)
        assert rows == c0_profile(lmax, 1.0, bs12) and len(rows) == lmax + 1
    for lmax in (7, -1):
        with pytest.raises(ValueError, match="outside 0..6"):
            c0_profile(lmax, 1.0, bs12, ball=enumerate_ball(6, bs12))


def test_c0_profile_matches_per_element_witness(bs12, bs23):
    # the batched profile takes, per sphere, the maximum of the very
    # floats witness() gives, and the first element attaining it; its
    # images come per vertex, and vertices are shared across spheres
    # (lambda = 3/5, -1 for BS(2,-2) and BS(1,-1), |lambda| = 1 for BS(1,1)
    # and BS(2,2), and the NEGATIVE data); BS(3,5) at L = 6 holds exact
    # ties at its sphere-5 maximum, and s = 0.05 and 2.5 move the t-length
    # bound exp(-s m) far from and close to the sphere maxima
    for spec, L in ((bs12, 8), (bs23, 5), (make_bs(1, -1), 6),
                    (make_bs(3, 5), 6), (make_bs(2, -2), 6),
                    (make_bs(1, 1), 6), (make_bs(2, 2), 6),
                    *((make_bs(p, q), 5) for p, q in NEGATIVE)):
        ball = enumerate_ball(L, spec)
        for s in (1.0, 0.3, 0.05, 2.5):
            rows = c0_profile(L, s, spec, ball=ball)
            assert len(rows) == L + 1
            for i, ((row_L, best, name), sphere) in enumerate(
                    zip(rows, ball.spheres)):
                vals = [witness(g, s, spec) for g in sphere]
                assert row_L == i and best == max(vals)
                assert name == str(sphere[vals.index(max(vals))])


def test_c0_profile_evaluates_no_element_its_bound_rules_out():
    # on BS(1, 10^200) the witness of t^-1 leaves the float range; sphere
    # 1's maximum is psi(x^-1) = 0.38 > exp(-1) >= psi(t^+-1), so t^+-1 are
    # not evaluated and lmax 1 gives rows.  Sphere 2's maximum, psi(x^2) =
    # 0.17 < exp(-1), lets its elements of t-length 1 in, t^-1 x among
    # them, so lmax 2 still fails where an evaluated element does
    spec = make_bs(1, 10 ** 200)
    with pytest.raises(OverflowError):
        witness(nf("t^-1", spec), 1.0, spec)
    x = witness(nf("x^-1", spec), 1.0, spec)
    assert math.exp(-1.0) < x
    assert c0_profile(1, 1.0, spec) == [(0, 1.0, "1"), (1, x, "x^-1")]
    with pytest.raises(OverflowError):
        c0_profile(2, 1.0, spec)


def test_c0_profile_only_raises_like_witness(asc2):
    # one refusal text on every witness path, also for empty image lists
    t = nf("t", asc2)
    with pytest.raises(UnsupportedWitnessError) as per_element:
        witness(t, 1.0, asc2)
    for call in (lambda: c0_profile(2, 1.0, asc2),
                 lambda: witness_gram([t], 1.0, asc2),
                 lambda: affine_distances([scaled(t, asc2)], [], asc2),
                 lambda: affine_distances([], [], asc2)):
        with pytest.raises(UnsupportedWitnessError) as batched:
            call()
        assert str(batched.value) == str(per_element.value)

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GENERAL_DATA, IMAGE_DATA
from oracles import (appended, ball_images, in_lattice, interned,
                     invert_letters, nf_letters, nf_text_reference,
                     reduce_with_strategy, trie_key, vertex_text_reference)

from bskit import words
from bskit.affine import j_affine, scaled
from bskit.arith import ConfigurationError
from bskit.embedding import enumerate_ball, generator_letters
from bskit.haagerup import (cocycle, cocycle_identity_check,
                            translate_cocycle, witness)
from bskit.presentation import make_matrix_group
from bskit.tree import BASE, Vertex, act, ball, neighbors, vertex_of
from bskit.words import (NormalForm, ParseError, T, VertexTrie, X, _Builder,
                         britton_reduce, nf_append, nf_invert, nf_multiply,
                         parse_word, word_problem)


def w(text, spec):
    return parse_word(text, spec)


# ---------------------------------------------------------------------------
# parsing

def test_parse_simple(bs23):
    assert w("t x^3 t^-1", bs23) == [T(1), X((3,)), T(-1)]


def test_parse_unreduced(bs23):
    assert w("x^2 x^-2", bs23) == [X((2,)), X((-2,))]


def test_parse_vector_atom(asc2):
    assert w("v[1,-2] t", asc2) == [X((1, -2)), T(1)]


def test_parse_indexed_generator(asc2):
    assert w("x2^3", asc2) == [X((0, 3))]


def test_parse_t_powers(bs23):
    assert w("t^3", bs23) == [T(1), T(1), T(1)]
    assert w("t^-2", bs23) == [T(-1), T(-1)]
    assert w("t^0 x^0", bs23) == []


def test_parse_errors(bs23, asc2):
    with pytest.raises(ParseError):
        w("y^2", bs23)
    with pytest.raises(ParseError):
        w("x", asc2)  # bare x needs n = 1
    with pytest.raises(ParseError):
        w("x3", asc2)  # index out of range
    with pytest.raises(ParseError):
        w("v[1,2,3]", asc2)
    try:
        w("x^2 ??", bs23)
    except ParseError as exc:
        assert exc.position == 4


# ---------------------------------------------------------------------------
# britton reduction

def test_reduce_paper_relation(bs23):
    nf = britton_reduce(w("t x^3 t^-1", bs23), bs23)
    assert nf == NormalForm((), (2,))


def test_reduce_no_pinch(bs23):
    nf = britton_reduce(w("t x^2 t^-1", bs23), bs23)
    assert nf.t_length == 2


def test_reduce_inverse_direction_with_affine_oracle(bs23):
    word = w("t^-1 x^4 t", bs23)
    nf = britton_reduce(word, bs23)
    assert nf == NormalForm((), (6,))
    # independent oracle: the affine image of the raw word
    aff = j_affine(word, bs23)
    assert aff.k == 0 and aff.a == (6,)


def test_reduce_relation_to_identity(bs23):
    assert britton_reduce(w("x^2 t x^-3 t^-1", bs23), bs23).is_identity


def test_word_problem_examples(bs23):
    assert word_problem(w("x^2 t x^-3 t^-1", bs23), bs23)
    assert not word_problem(w("t", bs23), bs23)
    nf = britton_reduce(w("t x t^-1 x^-1", bs23), bs23)
    assert nf.t_length == 2 and not nf.is_identity


def test_exponent_blowup_exact(bs12):
    # t^-10 x t^10 in BS(1,2): conjugation doubles the exponent each level
    word = w("t^-10 x t^10", bs12)
    nf = britton_reduce(word, bs12)
    assert nf == NormalForm((), (2 ** 10,))


def test_nf_multiply_invert(bs23):
    x1 = britton_reduce(w("x^1", bs23), bs23)
    xm1 = britton_reduce(w("x^-1", bs23), bs23)
    assert nf_multiply(x1, xm1, bs23).is_identity
    tx = britton_reduce(w("t x^1", bs23), bs23)
    inv = nf_invert(tx, bs23)
    assert nf_multiply(tx, inv, bs23).is_identity
    assert inv == britton_reduce(w("x^-1 t^-1", bs23), bs23)


def test_nf_append_matches_full_reduction():
    rng = random.Random(7)
    for spec in GENERAL_DATA.values():
        letters = generator_letters(spec)
        for _ in range(200):
            word = [rng.choice(letters) for _ in range(rng.randrange(0, 10))]
            extra = rng.choice(letters)
            via_append = appended(britton_reduce(word, spec), extra, spec)
            assert via_append == britton_reduce(word + [extra], spec)
        # every letter after every element of a ball, with one trie shared
        # across the ball as enumerate_ball shares it: a split adds a pair
        # to the vertex and a pinch removes one, and both occur
        trie, steps = VertexTrie(), set()
        for g in enumerate_ball(3, spec).elements:
            for letter in letters:
                via_trie = appended(g, letter, spec, trie)
                assert via_trie == appended(g, letter, spec)
                assert via_trie == britton_reduce(nf_letters(g) + [letter],
                                                  spec)
                if isinstance(letter, T):
                    steps.add(via_trie.t_length - g.t_length)
        assert steps == {1, -1}


# ---------------------------------------------------------------------------
# invariants

letters_strategy = st.lists(
    st.sampled_from([X((1,)), X((-1,)), X((2,)), T(1), T(-1)]), max_size=12)


@st.composite
def spec_and_letters(draw):
    """A datum and a word over its generators and small x-powers."""
    spec = GENERAL_DATA[draw(st.sampled_from(sorted(GENERAL_DATA)))]
    small = (st.tuples(*[st.integers(-3, 3)] * spec.n).filter(any).map(X))
    letter = st.one_of(st.sampled_from(generator_letters(spec)), small)
    return spec, draw(st.lists(letter, max_size=12))


@st.composite
def spec_and_x_runs(draw):
    """A datum and a word whose t-letters sit between runs of up to ten
    x-letters: generators and vector atoms with entries up to 40."""
    spec = GENERAL_DATA[draw(st.sampled_from(sorted(GENERAL_DATA)))]
    atom = st.tuples(*[st.integers(-40, 40)] * spec.n).filter(any).map(X)
    gens = [l for l in generator_letters(spec) if isinstance(l, X)]
    run = st.lists(st.one_of(st.sampled_from(gens), atom), max_size=10)
    word = []
    for xs, t in draw(st.lists(st.tuples(run, st.sampled_from([T(1), T(-1)])),
                               max_size=6)):
        word += xs + [t]
    return spec, word + draw(run)


@given(st.one_of(spec_and_letters(), spec_and_x_runs()))
@settings(max_examples=300, deadline=None)
def test_strategy_independence(case):
    # the oracle pinches through Lattice.solve, an independent path from
    # the stack reducer's one decompose per t-letter
    spec, word = case
    left = reduce_with_strategy(word, spec, "leftmost")
    right = reduce_with_strategy(word, spec, "rightmost")
    stack = britton_reduce(word, spec)
    assert left == right == stack


@given(spec_and_letters(), st.integers(0, 12))
@settings(max_examples=300, deadline=None)
def test_reduction_is_homomorphism(case, cut):
    spec, word = case
    u, v = word[:cut], word[cut:]
    concat = britton_reduce(u + v, spec)
    assert concat == nf_multiply(britton_reduce(u, spec),
                                 britton_reduce(v, spec), spec)


@given(spec_and_letters())
@settings(max_examples=300, deadline=None)
def test_involution_and_inverse(case):
    spec, word = case
    nf = britton_reduce(word, spec)
    assert nf_invert(nf_invert(nf, spec), spec) == nf
    assert nf_multiply(nf, nf_invert(nf, spec), spec).is_identity
    assert nf_invert(nf, spec) == britton_reduce(invert_letters(word), spec)
    assert britton_reduce(word + invert_letters(word), spec).is_identity


@given(letters_strategy)
@settings(max_examples=150, deadline=None)
def test_t_exponent_sum_preserved(word):
    from bskit.presentation import make_bs
    spec = make_bs(2, 3)
    raw = sum(l.eps for l in word if isinstance(l, T))
    assert sum(e for e, _ in britton_reduce(word, spec).vertex) == raw


def test_relator_insertion_invariance(bs23):
    # inserting x^{Az} t x^{-Bz} t^-1 anywhere never changes the form
    rng = random.Random(3)
    letters = [X((1,)), X((-1,)), T(1), T(-1)]
    for _ in range(100):
        word = [rng.choice(letters) for _ in range(rng.randrange(0, 8))]
        z = rng.randrange(-5, 6)
        relator = [X((2 * z,)), T(1), X((-3 * z,)), T(-1)]
        pos = rng.randrange(0, len(word) + 1)
        spliced = word[:pos] + relator + word[pos:]
        assert britton_reduce(spliced, bs23) == britton_reduce(word, bs23)


def test_strategy_exhaustive_small(bs23):
    # all words of length <= 4 over the unit letters
    alphabet = [X((1,)), X((-1,)), T(1), T(-1)]
    for k in range(5):
        for word in itertools.product(alphabet, repeat=k):
            word = list(word)
            assert (reduce_with_strategy(word, bs23, "leftmost")
                    == reduce_with_strategy(word, bs23, "rightmost")
                    == britton_reduce(word, bs23))


def test_canonical_form_equates_equal_words(bs12):
    # x t = t x^2 in BS(1,2); the canonical form must identify them
    assert (britton_reduce(w("x t", bs12), bs12)
            == britton_reduce(w("t x^2", bs12), bs12))


def test_normal_form_value_semantics(bs12):
    # a normal form is an immutable pair: its fields cannot be set, its
    # repr names them, and equal forms reached by different words are one
    # dict key
    nf = britton_reduce(w("x t", bs12), bs12)
    for field in ("vertex", "tail", "other"):
        with pytest.raises(AttributeError):
            setattr(nf, field, ())
    assert repr(NormalForm((), (0,))) == "NormalForm(vertex=(), tail=(0,))"
    assert repr(nf) == "NormalForm(vertex=((1, (0,)),), tail=(2,))"
    other = britton_reduce(w("t x^2", bs12), bs12)
    assert other == nf and hash(other) == hash(nf)
    assert len({nf: 1, other: 2}) == 1
    assert (nf.vertex, nf.tail, nf.t_length) == (((1, (0,)),), (2,), 1)
    assert str(nf) == "t x^2" and not nf.is_identity
    assert NormalForm((), (0,)).is_identity


def test_bench_ball_elements_are_distinct():
    # the non-ascending Z^2 datum of the ball_z2 benchmark workload
    spec = make_matrix_group([[2, 1], [0, 2]], [[1, 1], [1, -1]])
    ball = enumerate_ball(6, spec)
    assert len(set(ball.elements)) == len(ball) == len(ball.elements)


def test_normal_form_and_raw_word_are_told_apart(bs23):
    # a raw word is a list of letters, also where it has two letters like a
    # form has two fields; each of these takes both and agrees on them
    rng = random.Random(19)
    letters = [X((1,)), X((-1,)), T(1), T(-1)]
    words = [[X((1,)), T(1)], [T(-1), T(-1)]]
    words += [[rng.choice(letters) for _ in range(rng.randrange(1, 10))]
              for _ in range(40)]
    for word in words:
        nf = britton_reduce(word, bs23)
        assert britton_reduce(nf, bs23) is nf
        assert britton_reduce(nf_letters(nf), bs23) == nf
        assert scaled(nf, bs23) == scaled(nf_letters(nf), bs23)
        assert j_affine(nf, bs23) == j_affine(word, bs23)


def test_pinch_freeness_of_stored_forms(bs23):
    rng = random.Random(11)
    letters = [X((1,)), X((-1,)), T(1), T(-1)]
    for _ in range(300):
        word = [rng.choice(letters) for _ in range(rng.randrange(0, 12))]
        nf = britton_reduce(word, bs23)
        u = nf.vertex
        for (e1, _), (e2, r2) in zip(u, u[1:]):
            if e1 == 1 and e2 == -1:
                assert not in_lattice(bs23.lattice_b, r2)
            if e1 == -1 and e2 == 1:
                assert not in_lattice(bs23.lattice_a, r2)


@pytest.mark.parametrize("name", ["bs23", "z2_nonasc"])
def test_push_t_grows_the_vertex_stack_by_a_split_and_pops_it_by_a_pinch(name):
    # the benchmark's tracer counts a pinch as len(builder.syl) falling; a
    # pinch is exactly a tail in the lattice after a t-letter of the
    # opposite sign (A before t, B before t^-1)
    spec = GENERAL_DATA[name]
    rng = random.Random(23)
    letters = generator_letters(spec)
    splits = pinches = 0
    for _ in range(300):
        b = _Builder(spec)
        for _ in range(rng.randrange(14)):
            letter = rng.choice(letters)
            if isinstance(letter, X):
                b.push_x(letter.z)
                continue
            eps = letter.eps
            lattice = spec.lattice_a if eps == 1 else spec.lattice_b
            pinch = (bool(b.syl) and b.syl[-1][0] == -eps
                     and in_lattice(lattice, b.tail))
            before = len(b.syl)
            b.push_t(eps)
            assert len(b.syl) == before + (-1 if pinch else 1)
            pinches += pinch
            splits += not pinch
    assert pinches and splits


@pytest.mark.parametrize("name", sorted(IMAGE_DATA))
def test_text_of_forms_and_vertices_equals_a_fresh_renderer(name,
                                                             monkeypatch):
    # str(nf), sphere keys and vertex names join the texts of one table of
    # pairs; they equal a renderer that formats every pair afresh, and from
    # an empty table each distinct pair is formatted once
    spec = IMAGE_DATA[name]
    L = 3 if spec.n == 3 else 4
    misses = []
    render = words._PairText.__missing__

    def missing(table, pair):
        misses.append(pair)
        return render(table, pair)
    monkeypatch.setattr(words._PairText, "__missing__", missing)
    words._PAIR_TEXT.clear()
    elements = enumerate_ball(L, spec).elements
    vertices = {*ball(BASE, L, spec), *(Vertex(nf.vertex) for nf in elements)}
    key = trie_key()
    for nf in elements:
        assert str(nf) == key(nf) == nf_text_reference(nf)
    for u in vertices:
        assert str(u) == vertex_text_reference(u)
    pairs = {pair for u in vertices for pair in u}
    assert len(misses) == len(pairs) == len(words._PAIR_TEXT)
    assert set(misses) == pairs


def test_a_t_run_appends_one_trie_node_per_letter(bs23):
    # a split is one child node, not a copy of the vertex: t^20000 by
    # nf_append on one trie makes exactly 20 000 nodes besides the base
    trie = VertexTrie()
    key = 0, trie.intern((0,))
    for _ in range(20000):
        key = nf_append(key, T(1), bs23, trie)
    assert len(trie.parent) - 1 == 20000
    assert (NormalForm(trie.vertex(key[0]), trie.tails[key[1]])
            == britton_reduce([T(1)] * 20000, bs23))


def test_wrong_size_x_letter_is_refused(bs23, asc2):
    # refused where the letter enters, not truncated or kept until a
    # t-letter; nf_append reads x-steps by (tail id, z) from its trie and
    # checks z's size before storing one, so on one trie a bad z is refused
    # on every call, also beside a valid step stored from the same tail id
    for spec, z in ((bs23, (1, 2)), (asc2, (3,))):
        for word in ([X(z)], [T(1), X(z)], [X(z), T(1)]):
            with pytest.raises(ConfigurationError, match="dimension mismatch"):
                britton_reduce(word, spec)
        trie = VertexTrie()
        for nf in (britton_reduce([], spec), britton_reduce([T(1)], spec)):
            for _ in range(2):
                with pytest.raises(ConfigurationError,
                                   match="dimension mismatch"):
                    appended(nf, X(z), spec, trie)
                assert appended(nf, X((1,) * spec.n), spec, trie) != nf


def test_refusals_within_an_x_run_come_in_letter_order(bs23):
    # each letter is checked as it is pushed: the first bad letter of a
    # word names the refusal, within a run of x-letters too
    for word, message in (
            ([X((1,)), X((1, 2)), T(0)], "dimension mismatch: (1, 2) in Z^1"),
            ([X((1,)), T(0), X((1, 2))], "T(eps=0) is neither t nor t^-1"),
            ([X((1,)), X((2,)), X(())], "dimension mismatch: () in Z^1")):
        with pytest.raises(ConfigurationError) as err:
            britton_reduce(word, bs23)
        assert str(err.value) == message


def test_stable_letter_other_than_t_or_its_inverse_is_refused(bs23):
    # T(eps) with eps not +1 or -1 is named where it is used: no entry point
    # fails with a bare KeyError or reads T(0) as the identity
    # (raw words), nor renders or maps a hand-built form or vertex holding
    # the pair (eps, 0), last or not
    one, trie = britton_reduce([], bs23), VertexTrie()
    for eps in (0, 2, -3):
        bad = T(eps)
        nf = NormalForm(((eps, (0,)),), (0,))
        inner = Vertex(((1, (1,)), (eps, (0,)), (-1, (0,))))
        for call in (lambda: neighbors(Vertex(nf.vertex), bs23),
                     lambda: neighbors(inner, bs23),
                     lambda: ball(Vertex(nf.vertex), 1, bs23),
                     lambda: ball(inner, 2, bs23),
                     lambda: ball(inner, 0, bs23),
                     lambda: str(nf),
                     lambda: trie_key()(nf),
                     lambda: str(Vertex(nf.vertex)),
                     lambda: scaled(nf, bs23),
                     lambda: list(ball_images([[nf]], bs23)),
                     lambda: witness(nf, 1.0, bs23),
                     lambda: britton_reduce([X((1,)), bad], bs23),
                     lambda: word_problem([bad], bs23),
                     lambda: vertex_of([bad], bs23),
                     lambda: nf_append(interned(one, trie), bad, bs23, trie),
                     lambda: j_affine([bad, X((1,))], bs23),
                     lambda: scaled([X((1,)), bad], bs23),
                     lambda: witness([bad], 1.0, bs23),
                     lambda: cocycle([bad], bs23)):
            with pytest.raises(ConfigurationError,
                               match=rf"T\(eps={eps}\) is neither t nor t"):
                call()


def test_products_of_wrong_size_forms_are_refused(bs23, asc2):
    # nf_multiply and nf_invert push u's tail and w's residues and tail;
    # a vector of the wrong size is refused, not truncated to Z^n
    wrong = r"dimension mismatch: .* in Z\^1"
    one = NormalForm((), (0,))
    for call in (lambda: nf_multiply(one, NormalForm((), (4, 9)), bs23),
                 lambda: nf_multiply(one, NormalForm(((1, (1, 5)),), (0,)),
                                     bs23),
                 lambda: act(NormalForm((), (1,)), Vertex(((1, (1, 7)),)),
                             bs23)):
        with pytest.raises(ConfigurationError, match=wrong):
            call()
    for spec, good, bad in ((bs23, (0,), (1, 2)), (asc2, (0, 0), (3,))):
        for nf in (NormalForm((), bad), NormalForm(((1, good),), bad),
                   NormalForm(((1, bad),), good)):
            for call in (lambda: nf_multiply(NormalForm((), good), nf, spec),
                         lambda: nf_invert(nf, spec),
                         lambda: cocycle_identity_check(
                             NormalForm((), good), nf, spec)):
                with pytest.raises(ConfigurationError,
                                   match="dimension mismatch"):
                    call()
        # translation steps by each edge's residue, checked on a miss
        cv = cocycle(NormalForm(((1, good), (1, bad)), good), spec)
        for gamma in (NormalForm((), good), NormalForm(((-1, good),), good)):
            with pytest.raises(ConfigurationError, match="dimension mismatch"):
                translate_cocycle(gamma, cv, spec)
        with pytest.raises(ConfigurationError, match="dimension mismatch"):
            nf_multiply(NormalForm((), bad), NormalForm((), good), spec)

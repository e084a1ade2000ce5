import random
from collections import deque

import networkx as nx
import pytest

from conftest import ASC2, GENERAL_DATA
from oracles import nf_letters

from bskit.arith import ConfigurationError
from bskit.embedding import generator_letters
from bskit.presentation import make_bs
from bskit.tree import (BASE, ResourceBoundError, Vertex, act, ball, distance,
                        edges_csv, geodesic, neighbors, to_dot, tree_edges,
                        vertex_of)
from bskit.words import (T, X, britton_reduce, nf_invert, nf_multiply,
                         parse_word)


def w(text, spec):
    return parse_word(text, spec)


def bfs_distance(u, v, spec, limit=12):
    """Oracle: breadth-first search through neighbor enumeration."""
    if u == v:
        return 0
    seen = {u}
    frontier = deque([(u, 0)])
    while frontier:
        node, d = frontier.popleft()
        if d >= limit:
            break
        for nb in neighbors(node, spec):
            if nb == v:
                return d + 1
            if nb not in seen:
                seen.add(nb)
                frontier.append((nb, d + 1))
    raise AssertionError("BFS limit hit")


def same_coset(w1, w2, spec):
    """Oracle: w1 G = w2 G iff w1^-1 w2 has t-length zero."""
    u = britton_reduce(w1, spec)
    v = britton_reduce(w2, spec)
    return nf_multiply(nf_invert(u, spec), v, spec).t_length == 0


# ---------------------------------------------------------------------------
# vertex_of

def test_base_vertex_for_x_powers(bs23):
    assert vertex_of(w("x^5", bs23), bs23) == BASE


def test_vertex_example_x3t(bs23):
    v = vertex_of(w("x^3 t", bs23), bs23)
    assert v == ((1, (1,)),)
    # oracle: x^3 t G = x^1 t G
    assert same_coset(w("x^3 t", bs23), w("x^1 t", bs23), bs23)


def test_vertex_example_txt_inv(bs23):
    v = vertex_of(w("t x t^-1", bs23), bs23)
    assert v == ((1, (0,)), (-1, (1,)))
    # distinct from every shorter-name coset in the radius-2 ball
    for other in ball(BASE, 1, bs23):
        assert not same_coset(w("t x t^-1", bs23), _coset_word(other), bs23)


def test_vertex_is_its_name(bs23):
    # a vertex equals, and hashes as, the tuple of its (eps, residue)
    # pairs; slicing off the last pair names the parent
    for spec in (bs23, GENERAL_DATA["z2_nonasc"]):
        vs = ball(BASE, 3, spec)
        parents = {child: parent for parent, child in tree_edges(vs)}
        assert len(parents) == len(vs) - 1
        for u in vs:
            assert type(u) is Vertex
            assert u == tuple(u) and hash(u) == hash(tuple(u))
            if u:
                assert Vertex(u[:-1]) == parents[u]
                assert str(Vertex(u[:-1])) == str(parents[u])
    assert str(BASE) == "G"
    assert str(vertex_of(w("x t", bs23), bs23)) == "x^1·t"
    assert (str(vertex_of(w("x^-1 t^-1 x t", bs23), bs23))
            == "x^2·t^-1 | x^1·t")


def _coset_word(vertex):
    """Oracle: the transversal word x^{r1} t^{e1} ... x^{rm} t^{em}."""
    word = []
    for eps, r in vertex:
        if any(r):
            word.append(X(r))
        word.append(T(eps))
    return word


def test_vertex_idempotent_on_coset_words(bs23, bs23_ball6):
    for v in ball(BASE, 3, bs23):
        assert vertex_of(_coset_word(v), bs23) == v


def test_vertex_right_g_invariance(bs23):
    rng = random.Random(5)
    for _ in range(100):
        text = rng.choice(["t x t", "x^3 t^-1", "t x^2 t^-1 x", "t t x"])
        z = rng.randrange(-20, 20)
        w1 = w(text, bs23)
        w2 = w(f"{text} x^{z}", bs23)
        assert vertex_of(w1, bs23) == vertex_of(w2, bs23)


# ---------------------------------------------------------------------------
# the action

def test_act_identity_fixes_everything(bs23):
    for v in ball(BASE, 2, bs23):
        assert act([], v, bs23) == v


def test_act_x_fixes_base(bs23):
    for z in (-7, 1, 12):
        assert act(w(f"x^{z}", bs23), BASE, bs23) == BASE


def test_act_is_homomorphism(bs23, bs23_ball6):
    rng = random.Random(1)
    elements = bs23_ball6.elements
    verts = ball(BASE, 3, bs23)
    for _ in range(2000):
        g = rng.choice(elements)
        d = rng.choice(elements)
        u = rng.choice(verts)
        gd = nf_multiply(g, d, bs23)
        assert act(gd, u, bs23) == act(g, act(d, u, bs23), bs23)


def test_stabilizer_law(bs23, bs23_ball6, asc2, asc2_ball5):
    for nf in bs23_ball6.elements:
        assert (act(nf, BASE, bs23) == BASE) == (nf.t_length == 0)
    for spec, b in ((bs23, bs23_ball6), (asc2, asc2_ball5)):
        for nf in b.elements:
            assert vertex_of(nf, spec) == act(nf, BASE, spec)


# ---------------------------------------------------------------------------
# neighbors

def test_neighbors_base_bs23(bs23):
    nbrs = neighbors(BASE, bs23)
    assert len(nbrs) == 5 == len(set(nbrs))
    expected = {vertex_of(w(text, bs23), bs23)
                for text in ("t", "x t", "t^-1", "x t^-1", "x^2 t^-1")}
    assert set(nbrs) == expected


def test_neighbors_ascending_n2(asc2):
    nbrs = neighbors(BASE, asc2)
    assert len(nbrs) == 5 == len(set(nbrs))


def test_neighbors_bs11_line():
    spec = make_bs(1, 1)
    assert len(neighbors(BASE, spec)) == 2


def test_neighbors_and_act_match_reduction_of_coset_words():
    # oracles: the same moves by Britton reduction of whole coset words
    data = dict(GENERAL_DATA, bs12=make_bs(1, 2), bs35=make_bs(3, 5))
    rng = random.Random(17)
    for spec in data.values():
        verts = ball(BASE, 3, spec)
        for u in verts:
            assert neighbors(u, spec) == [
                vertex_of(_coset_word(u) + [X(r), T(eps)], spec)
                for eps, lat in ((1, spec.lattice_a), (-1, spec.lattice_b))
                for r in lat.residues()]
        for _ in range(300):
            word = [rng.choice([T(1), T(-1), X(tuple(
                rng.randrange(-9, 10) for _ in range(spec.n)))])
                for _ in range(rng.randrange(0, 8))]
            gamma = britton_reduce(word, spec)
            u = rng.choice(verts)
            assert act(gamma, u, spec) == vertex_of(
                nf_letters(gamma) + _coset_word(u), spec)


def test_neighbors_symmetric_and_distance_one(bs23):
    for u in ball(BASE, 2, bs23):
        for v in neighbors(u, bs23):
            assert distance(u, v) == 1
            assert u in neighbors(v, bs23)


# ---------------------------------------------------------------------------
# distance / geodesics

def test_distance_reflexive(bs23):
    for u in ball(BASE, 2, bs23):
        assert distance(u, u) == 0


def test_distance_example_txt(bs23):
    u = vertex_of(w("t x t", bs23), bs23)
    assert distance(BASE, u) == 2
    assert bfs_distance(BASE, u, bs23) == 2


def test_distance_matches_bfs(bs23):
    verts = ball(BASE, 3, bs23)
    rng = random.Random(9)
    for _ in range(40):
        u, v = rng.choice(verts), rng.choice(verts)
        assert distance(u, v) == bfs_distance(u, v, bs23)


def test_distance_action_isometry(bs23, bs23_ball6):
    rng = random.Random(13)
    verts = ball(BASE, 2, bs23)
    for _ in range(300):
        g = rng.choice(bs23_ball6.elements)
        u, v = rng.choice(verts), rng.choice(verts)
        assert distance(act(g, u, bs23), act(g, v, bs23)) == distance(u, v)


def test_distance_equals_t_length(bs23, bs23_ball6):
    for nf in bs23_ball6.elements:
        assert distance(BASE, act(nf, BASE, bs23)) == nf.t_length


def test_geodesic_structure(bs23):
    verts = ball(BASE, 3, bs23)
    rng = random.Random(21)
    for _ in range(50):
        u, v = rng.choice(verts), rng.choice(verts)
        path = geodesic(u, v)
        assert path[0] == u and path[-1] == v
        assert len(path) == distance(u, v) + 1
        assert len(set(path)) == len(path)
        for a, b in zip(path, path[1:]):
            assert distance(a, b) == 1


# ---------------------------------------------------------------------------
# balls and export

def test_ball_radius_zero(bs23):
    assert ball(BASE, 0, bs23) == [BASE]


def test_ball_sizes_biregular(bs23):
    assert len(ball(BASE, 1, bs23)) == 6
    assert len(ball(BASE, 2, bs23)) == 26
    # closed form for a d-regular tree
    d = abs(bs23.A.det) + abs(bs23.B.det)
    for r in range(4):
        expected = 1 + d * ((d - 1) ** r - 1) // (d - 2)
        assert len(ball(BASE, r, bs23)) == expected


def test_tree_edges_form_a_tree_networkx(bs23, asc2):
    # independent oracle: the radius-3 ball with its parent-child edges
    # is a connected acyclic graph (networkx), of the biregular size
    for spec in (bs23, asc2, GENERAL_DATA["z2_nonasc"]):
        vs = ball(BASE, 3, spec)
        graph = nx.Graph()
        graph.add_nodes_from(vs)
        graph.add_edges_from(tree_edges(vs))
        assert nx.is_tree(graph)
        d = abs(spec.A.det) + abs(spec.B.det)
        assert graph.number_of_nodes() == 1 + d * ((d - 1) ** 3 - 1) // (d - 2)


def test_ball_resource_bound(bs23, monkeypatch):
    # the argument overrides BSK_MAX_BALL, so its refusal gives no advice to
    # set the variable; a bound that is not a nonnegative int is refused
    monkeypatch.setenv("BSK_MAX_BALL", "20")
    with pytest.raises(ResourceBoundError) as err:
        ball(BASE, 5, bs23, max_radius=4)
    assert str(err.value) == "radius 5 exceeds bound 4"
    assert ball(BASE, 0, bs23, max_radius=0) == [BASE]
    for bad in (-1, 0.5, "3", True):
        with pytest.raises(ValueError, match="is not a nonnegative int"):
            ball(BASE, 0, bs23, max_radius=bad)
    # so is a radius that is not an int; a negative int keeps its own text
    for bad in ("3", 2.5, 1.0, True):
        with pytest.raises(ValueError) as err:
            ball(BASE, bad, bs23)
        assert str(err.value) == f"radius {bad!r} is not a nonnegative int"
    with pytest.raises(ValueError, match="^radius must be nonnegative$"):
        ball(BASE, -1, bs23)


@pytest.mark.parametrize("spec", [
    make_bs(2, 3), make_bs(1, -2), ASC2, GENERAL_DATA["z2_nonasc"],
], ids=["bs23", "bs1m2", "asc2", "z2_nonasc"])
def test_ball_around_deep_centres_equals_a_plain_bfs(spec):
    # centres are the vertices of random words x^a t^e x^b t^e' ..., whose
    # t-letters mostly keep one sign so that few pinch; each level of the
    # plain search over neighbors is sorted by name, as ball sorts it
    rng = random.Random(41)
    xs = generator_letters(spec)[:-2]
    depths = []
    for _ in range(5):
        eps = rng.choice((1, -1))
        centre = vertex_of([letter for _ in range(6) for letter in (
            rng.choice(xs), T(eps if rng.random() < 0.75 else -eps))], spec)
        depths.append(len(centre))
        for radius in range(4):
            levels, seen = [[centre]], {centre}
            for _ in range(radius):
                nxt = sorted({w for u in levels[-1]
                              for w in neighbors(u, spec)} - seen, key=str)
                seen.update(nxt)
                levels.append(nxt)
            assert ball(centre, radius, spec) == [u for lvl in levels
                                                  for u in lvl]
    assert max(depths) >= 4


def test_ball_respects_env_bound(bs23, monkeypatch):
    monkeypatch.setenv("BSK_MAX_BALL", "3")
    with pytest.raises(ResourceBoundError):
        ball(BASE, 4, bs23)
    assert len(ball(BASE, 3, bs23)) > 0
    for bad in ("three", "-1"):
        monkeypatch.setenv("BSK_MAX_BALL", bad)
        with pytest.raises(ConfigurationError, match="BSK_MAX_BALL"):
            ball(BASE, 1, bs23)


def test_edge_transitivity_witness(bs23):
    # for each edge, a group element read off the canonical words maps the
    # base edge (v, tG) onto it in the up orientation
    base_up = vertex_of(w("t", bs23), bs23)
    vs = ball(BASE, 3, bs23)
    for parent, child in tree_edges(vs):
        eps, r = child[-1]
        if eps == 1:
            source, target, res = parent, child, r
        else:
            # reverse orientation: from the child, the parent is the t-side
            source, target, res = child, parent, (0,) * bs23.n
        gamma = _coset_word(source)
        if any(res):
            gamma = gamma + [X(res)]
        assert act(gamma, BASE, bs23) == source
        assert act(gamma, base_up, bs23) == target


def test_to_dot_and_csv(bs23):
    vs = ball(BASE, 2, bs23)
    es = tree_edges(vs)
    dot = to_dot(vs, es)
    assert dot.startswith("graph")
    assert dot.count("--") == len(es) == len(vs) - 1
    csv = edges_csv(es)
    assert csv.splitlines()[0] == "parent,child,direction,residue"
    assert len(csv.splitlines()) == len(es) + 1

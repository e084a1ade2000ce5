"""Strategy oracle: naive rewriting with an explicit pinch-selection rule.

Independent of the stack reducer in ``bskit.words``; the tests use it to
probe uniqueness of the normal form under different rewriting orders.
Lattice membership, the affine identity, the turning of a Fraction
image into integers, the letters of a word's formal inverse or of a
normal form, a normal form's key in a vertex trie (and the sort key,
one-letter append and ball read on forms through it), the translation of a
cocycle on (parent, child) pairs, the
plain breadth-first search of a word-length ball, a breadth-first search
of the affine model that never reduces a word, another over pairs
(vertex, image) that never reduces one either, a renderer of normal forms
and vertex names that formats every pair afresh, a per-element count of
properness sublevel sets and the image column of a ball's spheres, which
only the tests ask for, live here too.
"""

import itertools
import math
from fractions import Fraction

from bskit.affine import AffineElement, ball_image, j_affine
from bskit.arith import vec_add, vec_neg, zero_vector
from bskit.embedding import GroupBall, generator_letters
from bskit.presentation import GroupSpec
from bskit.tree import act
from bskit.words import (NormalForm, T, VertexTrie, Word, X, britton_reduce,
                         nf_append)


def invert_letters(w: Word) -> Word:
    """Formal inverse of a raw word."""
    return [X(vec_neg(l.z)) if isinstance(l, X) else T(-l.eps)
            for l in reversed(w)]


def nf_letters(nf: NormalForm) -> Word:
    """The letters of a normal form, trivial x-powers left out."""
    out: Word = []
    for e, r in nf.vertex:
        if any(r):
            out.append(X(r))
        out.append(T(e))
    if any(nf.tail):
        out.append(X(nf.tail))
    return out


def in_lattice(lat, z) -> bool:
    """Whether z lies in the sublattice of ``lat``: an integer solve exists."""
    return lat.solve(z) is not None


def aff_identity(n: int) -> AffineElement:
    return AffineElement(0, (Fraction(0),) * n)


def scaled_image(e: AffineElement):
    """(k, num, den) with e = (k, num / den), num integers and den > 0:
    the form affine.scaled gives and affine_distances reads."""
    den = math.lcm(*(x.denominator for x in e.a))
    return e.k, [x.numerator * (den // x.denominator) for x in e.a], den


def ball_of(spheres, spec: GroupSpec) -> GroupBall:
    """A ball of the given spheres of normal forms, their vertices interned
    into one fresh ``VertexTrie``, with a fresh memo."""
    trie = VertexTrie()
    return GroupBall([[interned(nf, trie) for nf in s] for s in spheres],
                     trie, spec)


def ball_images(spheres, spec: GroupSpec) -> list:
    """Per sphere, the images ``ball_image`` gives from one fresh memo."""
    ball = ball_of(spheres, spec)
    return [[ball_image(key, ball) for key in s] for s in ball.keys]


def translate_reference(gamma, cv, spec: GroupSpec) -> tuple:
    """gamma . b on edges keyed by (parent, child) pairs: each edge (u, w)
    of b goes to (gamma u, gamma w), turned parent -> child with its
    coefficient negated if needed; zero sums are dropped and the result
    is sorted in display order, the form of ``CocycleVector.coefficients``."""
    d: dict = {}
    for (u, w), c in cv.coefficients:
        gu, gw = act(gamma, u, spec), act(gamma, w, spec)
        if len(gw) == len(gu) + 1:
            edge, sign = (gu, gw), 1
        else:
            assert len(gu) == len(gw) + 1, "translated edge is not an edge"
            edge, sign = (gw, gu), -1
        d[edge] = d.get(edge, 0) + sign * c
    return tuple(sorted(((e, c) for e, c in d.items() if c != 0),
                        key=lambda item: (len(item[0][1]), str(item[0][1]),
                                          str(item[0][0]))))


def sublevel_counts(ball, r_grid, spec: GroupSpec) -> dict:
    """For each R of the grid, the count of elements with t-length, |k|
    and every |a_i| at most R in the balls of radius 0..ball.radius: each
    element tested against each R on its own, from len(nf.vertex) and the
    Fractions of ``j_affine``, not from the ball's image column."""
    seen = [[(len(nf.vertex), *j_affine(nf, spec)) for nf in sphere]
            for sphere in ball.spheres]
    return {r: [sum(m <= r and abs(k) <= r and all(abs(x) <= r for x in a)
                    for sphere in seen[:L + 1] for m, k, a in sphere)
                for L in range(len(seen))]
            for r in r_grid}


def interned(nf: NormalForm, trie: VertexTrie) -> tuple:
    """The key (node, tail id) of a normal form in a ``VertexTrie``, the
    nodes of its vertex and its tail made on first sight."""
    node = 0
    for pair in nf.vertex:
        node = trie.add(node, pair)
    return node, trie.intern(nf.tail)


def trie_key():
    """A key function on normal forms, ``text`` of one fresh ``VertexTrie``
    in which each form's vertex is interned: the sort key of a ball's
    spheres, read on forms."""
    trie = VertexTrie()
    return lambda nf: trie.text(interned(nf, trie))


def appended(nf: NormalForm, letter, spec: GroupSpec,
             trie: VertexTrie | None = None) -> NormalForm:
    """The normal form of nf * letter by ``nf_append``, in the given (or a
    fresh) trie."""
    trie = VertexTrie() if trie is None else trie
    node, tail = nf_append(interned(nf, trie), letter, spec, trie)
    return NormalForm(trie.vertex(node), trie.tails[tail])


def reference_spheres(L: int, spec: GroupSpec) -> list:
    """Spheres 0..L of the word-length ball by the plain breadth-first
    search: every generator letter appended to every element of the last
    sphere, new forms kept by a seen set, each sphere sorted by str."""
    letters = generator_letters(spec)
    root = NormalForm((), zero_vector(spec.n))
    seen = {root}
    spheres = [[root]]
    for _ in range(L):
        nxt = []
        for nf in spheres[-1]:
            for letter in letters:
                w = appended(nf, letter, spec)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        nxt.sort(key=str)
        spheres.append(nxt)
    return spheres


def _fraction_inverse(rows) -> list:
    """The inverse of a nonsingular square matrix, by Gauss-Jordan over
    Fractions."""
    n = len(rows)
    m = [[Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(n)]
         for i, r in enumerate(rows)]
    for c in range(n):
        p = next(i for i in range(c, n) if m[i][c])
        m[c], m[p] = m[p], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for i in range(n):
            if i != c and m[i][c]:
                m[i] = [x - m[i][c] * y for x, y in zip(m[i], m[c])]
    return [r[n:] for r in m]


def _fraction_product(P, Q) -> list:
    return [[sum(a * b for a, b in zip(r, c)) for c in zip(*Q)] for r in P]


def _fraction_apply(P, v) -> list:
    return [sum(a * b for a, b in zip(r, v)) for r in P]


def _lambda_powers(spec: GroupSpec):
    """k -> Lambda^k as Fraction rows, Lambda = A B^-1, cached per k; reads
    only spec.A.rows, spec.B.rows and spec.n."""
    n = spec.n
    lam = {1: _fraction_product(spec.A.rows, _fraction_inverse(spec.B.rows)),
           -1: _fraction_product(spec.B.rows, _fraction_inverse(spec.A.rows))}
    powers = {0: [[Fraction(int(i == j)) for j in range(n)]
                  for i in range(n)]}

    def power(k):
        if k not in powers:
            step = 1 if k > 0 else -1
            powers[k] = _fraction_product(power(k - step), lam[step])
        return powers[k]
    return power


def affine_model_spheres(L: int, spec: GroupSpec) -> list:
    """Spheres 0..L of the word-length ball of the image group in Z x Q^n:
    a breadth-first search over exact images (k, a), with a a tuple of
    Fractions, each right-multiplied by the 2n + 2 generators, x^{+-e_i}
    giving (k, a + Lambda^k (+-e_i)) and t^{+-1} giving (k +- 1, a), where
    Lambda = A B^-1 and Lambda^k is cached per k.  No normal form is
    formed.  Where the image map is injective (an ascending datum), these
    are the images of the group's spheres, as sets."""
    power = _lambda_powers(spec)
    root = (0, (Fraction(0),) * spec.n)
    seen = {root}
    spheres = [[root]]
    for _ in range(L):
        nxt = []
        for k, a in spheres[-1]:
            cols = list(zip(*power(k)))  # Lambda^k e_i is column i
            moves = [(k, tuple(x + s * y for x, y in zip(a, col)))
                     for col in cols for s in (1, -1)]
            for g in moves + [(k + 1, a), (k - 1, a)]:
                if g not in seen:
                    seen.add(g)
                    nxt.append(g)
        spheres.append(nxt)
    return spheres


def _det(rows) -> int:
    """Determinant of a square integer matrix by cofactors along row 0."""
    if not rows:
        return 1
    return sum((-1) ** c * x * _det([r[:c] + r[c + 1:] for r in rows[1:]])
               for c, x in enumerate(rows[0]) if x)


def _hermite_diagonal(rows) -> list:
    """The diagonal H_jj of the lower column Hermite form of M: d_j / d_{j-1},
    d_j the gcd of the j x j minors of M's first j rows (d_0 = 1)."""
    n = len(rows)
    d = [1] + [math.gcd(*(_det([[r[c] for c in cs] for r in rows[:j]])
                          for cs in itertools.combinations(range(n), j)))
               for j in range(1, n + 1)]
    return [d[j] // d[j - 1] for j in range(1, n + 1)]


def embedding_spheres(L: int, spec: GroupSpec) -> list:
    """Spheres 0..L of the word-length ball as sets of pairs (vertex, j),
    by a breadth-first search that right-multiplies each pair by the 2n + 2
    generators, with no Britton code: it reads only spec.A.rows,
    spec.B.rows and spec.n.  x^{+-e_i} keeps the vertex u and moves j as
    in ``affine_model_spheres``.  For t^eps, gamma = coset(u) x^z with
    z = Lambda^-k (a - a_u), (k, a_u) the image of coset(u); r is the one
    member of the residue box prod [0, H_jj) of A (eps = 1) or B (eps = -1)
    with the matrix's inverse times z - r integral; u drops its last pair
    if that has sign -eps and r = 0, and gains (eps, r) otherwise; j
    becomes (k + eps, a).  The pair map is injective for every datum, so
    these are the group's spheres."""
    n = spec.n
    power = _lambda_powers(spec)
    rows = {1: spec.A.rows, -1: spec.B.rows}
    inverse = {eps: _fraction_inverse(m) for eps, m in rows.items()}
    box = {eps: list(itertools.product(*map(range, _hermite_diagonal(m))))
           for eps, m in rows.items()}
    coset = {(): (Fraction(0),) * n}  # vertex u -> a_u of coset(u)

    def coset_image(u):
        if u not in coset:  # coset(u) = coset(u[:-1]) x^r t^eps
            k = sum(eps for eps, _ in u[:-1])
            coset[u] = tuple(x + y for x, y in zip(
                coset_image(u[:-1]), _fraction_apply(power(k), u[-1][1])))
        return coset[u]

    def times_t(u, k, a, eps):
        z = _fraction_apply(power(-k),
                            [x - y for x, y in zip(a, coset_image(u))])
        assert all(x.denominator == 1 for x in z), "tail is not integral"
        r = next(r for r in box[eps] if all(
            x.denominator == 1 for x in
            _fraction_apply(inverse[eps], [x - y for x, y in zip(z, r)])))
        if u and u[-1][0] == -eps and not any(r):
            return u[:-1], (k + eps, a)
        return u + ((eps, r),), (k + eps, a)

    root = ((), (0, (Fraction(0),) * n))
    seen = {root}
    spheres = [{root}]
    for _ in range(L):
        nxt = set()
        for u, (k, a) in spheres[-1]:
            cols = list(zip(*power(k)))  # Lambda^k e_i is column i
            moves = [(u, (k, tuple(x + s * y for x, y in zip(a, col))))
                     for col in cols for s in (1, -1)]
            for g in moves + [times_t(u, k, a, 1), times_t(u, k, a, -1)]:
                if g not in seen:
                    seen.add(g)
                    nxt.add(g)
        spheres.append(nxt)
    return spheres


_T_TEXT = {1: "t", -1: "t^-1"}


def _render_x(z) -> str:
    if len(z) == 1:
        return f"x^{z[0]}"
    return "v[" + ",".join(map(str, z)) + "]"


def _render_pairs(vertex: tuple) -> str:
    """The pairs of a vertex as text, each "x^r t" or a bare t-letter where
    r = 0, one space apart; "" for the base vertex."""
    return " ".join(f"{_render_x(r)} {_T_TEXT[e]}" if any(r) else _T_TEXT[e]
                    for e, r in vertex)


def nf_text_reference(nf: NormalForm) -> str:
    """str(nf), each pair and the tail formatted afresh."""
    tail = f" {_render_x(nf.tail)}" if any(nf.tail) else ""
    pairs = _render_pairs(nf.vertex)
    return pairs + tail if pairs else tail[1:] or "1"


def vertex_text_reference(u) -> str:
    """str(u) of a tree.Vertex, each pair formatted afresh."""
    if not u:
        return "G"
    parts = []
    for eps, r in u:
        t = "t" if eps == 1 else "t^-1"
        parts.append(f"{_render_x(r)}·{t}" if any(r) else t)
    return " | ".join(parts)


def reduce_with_strategy(w, spec: GroupSpec, strategy: str = "leftmost"
                         ) -> NormalForm:
    """Britton-reduce by repeatedly applying one pinch at a time.

    ``strategy`` selects which applicable pinch fires: "leftmost" or
    "rightmost".  Termination: every pinch removes two t letters.
    """
    if strategy not in ("leftmost", "rightmost"):
        raise ValueError(f"unknown strategy {strategy!r}")
    letters = _merge_x(list(w), spec)
    while True:
        sites = _pinch_sites(letters, spec)
        if not sites:
            break
        i = sites[0] if strategy == "leftmost" else sites[-1]
        letters = _apply_pinch(letters, i, spec)
        letters = _merge_x(letters, spec)
    return _letters_to_nf(letters, spec)


def _merge_x(letters: Word, spec: GroupSpec) -> Word:
    out: Word = []
    for l in letters:
        if isinstance(l, X) and out and isinstance(out[-1], X):
            out[-1] = X(vec_add(out[-1].z, l.z))
        else:
            out.append(l)
    return out


def _pinch_sites(letters: Word, spec: GroupSpec) -> list:
    """Indices i where a pinch starts: t^e [x^z] t^-e with z in the lattice."""
    sites = []
    for i, l in enumerate(letters):
        if not isinstance(l, T):
            continue
        # adjacent t^e t^-e (possibly with an intervening X)
        if i + 1 < len(letters) and isinstance(letters[i + 1], T):
            if letters[i + 1].eps == -l.eps:
                sites.append(i)
            continue
        if (i + 2 < len(letters) and isinstance(letters[i + 1], X)
                and isinstance(letters[i + 2], T)
                and letters[i + 2].eps == -l.eps):
            lat = spec.lattice_b if l.eps == 1 else spec.lattice_a
            if in_lattice(lat, letters[i + 1].z):
                sites.append(i)
    return sites


def _apply_pinch(letters: Word, i: int, spec: GroupSpec) -> Word:
    l = letters[i]
    if isinstance(letters[i + 1], T):
        mid = zero_vector(spec.n)
        end = i + 2
    else:
        mid = letters[i + 1].z
        end = i + 3
    if l.eps == 1:
        h = spec.lattice_b.solve(mid)
        repl = spec.A.apply(h)
    else:
        h = spec.lattice_a.solve(mid)
        repl = spec.B.apply(h)
    return letters[:i] + [X(repl)] + letters[end:]


def _letters_to_nf(letters: Word, spec: GroupSpec) -> NormalForm:
    # canonicalize the pinch-free word; the builder must find no pinch left
    t_count = sum(1 for l in letters if isinstance(l, T))
    nf = britton_reduce(letters, spec)
    assert nf.t_length == t_count, "strategy oracle left an unapplied pinch"
    return nf

"""Strategy oracle: naive rewriting with an explicit pinch-selection rule.

Independent of the stack reducer in ``bskit.words``; the tests use it to
probe uniqueness of the normal form under different rewriting orders.
Lattice membership, the affine identity, the turning of a Fraction
image into integers, the letters of a word's formal inverse or of a
normal form, the translation of a cocycle on (parent, child) pairs and
the plain breadth-first search of a word-length ball, which only the
tests ask for, live here too.
"""

import math
from fractions import Fraction

from bskit.affine import AffineElement
from bskit.arith import vec_add, vec_neg, zero_vector
from bskit.embedding import generator_letters
from bskit.presentation import GroupSpec
from bskit.tree import act
from bskit.words import NormalForm, T, Word, X, britton_reduce, nf_append


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
                w = nf_append(nf, letter, spec)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        nxt.sort(key=str)
        spheres.append(nxt)
    return spheres


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

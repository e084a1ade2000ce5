"""The Bass-Serre tree of the HNN splitting.

Vertices are left cosets w G named intrinsically by canonical transversal
words x^{r1} t^{e1} x^{r2} t^{e2} ... x^{rm} t^{em}, with r_i drawn from
the residue system of A when e_i = +1 and of B when e_i = -1.  The base
vertex (empty word) is the coset G itself.  The tree is never stored
globally; balls are materialized lazily by radius.
"""

from __future__ import annotations

import os

from .arith import ConfigurationError, zero_vector
from .presentation import GroupSpec
from .words import (_PAIR_TEXT, NormalForm, _wrong_letter, britton_reduce,
                    nf_multiply)


class ResourceBoundError(RuntimeError):
    """Requested radius exceeds the configured resource bound."""


def bfs_spheres(root, radius: int, moves, apply, max_radius: int | None,
                default: int, key=str) -> list:
    """Spheres 0..radius of the breadth-first search from ``root``.

    Each move (bit, label, back, first) of ``moves`` whose bit is not in
    u's skip bits reaches w = apply(u, label). ``first`` sets w's skip bits
    where the move reaches w first, and ``back``, 0 or the bit of a move
    from w back to u, joins them at a later arrival, which need not come
    from the sphere before. ``enumerate_ball`` puts in ``first`` of x-letter
    a, beside its inverse, the x-letters before a: if w in sphere L+1 is p·b,
    b before a and p first reached as q·a from sphere L-1, then w = (q·b)·a,
    q·b is in sphere L and takes a unless first reached by a letter after a;
    each such step moves to a later letter, so the chain ends in 2n steps.
    Each sphere holds the nodes first reached at that depth, deduplicated
    against every node seen so far and sorted by ``key``.  The radius, a
    nonnegative int, is bounded by ``max_radius`` (one too) if given, else
    by the environment variable BSK_MAX_BALL, else by ``default``; a larger
    radius raises ResourceBoundError.
    """
    if type(radius) is not int:  # no str, float or bool
        raise ValueError(f"radius {radius!r} is not a nonnegative int")
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    bound, advice = max_radius, ""
    if bound is None:
        env = os.environ.get("BSK_MAX_BALL")
        try:
            bound = int(env) if env else default
            if bound < 0:
                raise ValueError
        except ValueError:
            raise ConfigurationError("BSK_MAX_BALL must be a nonnegative "
                                     f"integer, got {env!r}") from None
        advice = " (set BSK_MAX_BALL)"
    elif type(bound) is not int or bound < 0:
        raise ValueError(f"radius bound {bound!r} is not a nonnegative int")
    if radius > bound:
        raise ResourceBoundError(
            f"radius {radius} exceeds bound {bound}{advice}")
    seen = {root: 0}  # node -> bits of the moves known to lead back
    spheres = [[root]]
    for _ in range(radius):
        nxt = []
        for u in spheres[-1]:
            skip = seen[u]
            for bit, label, back, first in moves:
                if not skip & bit:
                    w = apply(u, label)
                    size = len(seen)
                    mask = seen.setdefault(w, first)  # one hash per candidate
                    if len(seen) > size:
                        nxt.append(w)
                    elif back & ~mask:
                        seen[w] = mask | back
        nxt.sort(key=key)
        spheres.append(nxt)
    return spheres


class Vertex(tuple):
    """Canonical coset name: the tuple of its (eps, residue) pairs, equal
    to (and hashed as) a normal form's ``vertex``; prints as the name."""

    __slots__ = ()

    def __str__(self) -> str:
        return " | ".join([_PAIR_TEXT[pair][1] for pair in self]) or "G"


BASE = Vertex()


def vertex_of(w, spec: GroupSpec) -> Vertex:
    """Canonical vertex naming the coset w G: the canonical Britton form
    x^{r1} t^{e1} ... x^{rm} t^{em} x^z is coset(u) x^z with x^z absorbed
    into G, and carries u's name as its ``vertex``."""
    return Vertex(britton_reduce(w, spec).vertex)


def act(gamma, u: Vertex, spec: GroupSpec) -> Vertex:
    """The tree action: the vertex of gamma * coset(u), the product of the
    normal forms of gamma and of u's transversal word."""
    return Vertex(nf_multiply(britton_reduce(gamma, spec),
                              NormalForm(u, zero_vector(spec.n)), spec).vertex)


def neighbors(u: Vertex, spec: GroupSpec) -> list:
    """The |det A| + |det B| adjacent vertices, up-edges first.

    Up-neighbors are u x^r t G for r in the A-residues, down-neighbors
    u x^r t^-1 G for r in the B-residues.  A canonical residue r splits
    off no carry, so u x^r t^eps G is named u + (eps, r), except for the
    one pinch: r = 0 with eps opposite to u's last letter gives the parent.
    A pair of u with eps not +1 or -1 raises ConfigurationError.
    """
    u = _checked(u)
    return [_step(u, pair) for pair in _pairs(spec)]


def _checked(u: Vertex) -> Vertex:
    bad = [eps for eps, _ in u if eps != 1 and eps != -1]
    if bad:
        raise _wrong_letter(bad[0])
    return u


def _pairs(spec: GroupSpec) -> list:
    return [(eps, r) for eps in (1, -1) for r in spec.residues[eps]]


def _step(u: Vertex, pair) -> Vertex:
    """The neighbour u x^r t^eps G of u for pair = (eps, r)."""
    eps, r = pair
    if u and u[-1][0] == -eps and not any(r):
        return Vertex(u[:-1])
    return Vertex(u + (pair,))


def lcp_length(u: Vertex, w: Vertex) -> int:
    k = 0
    for a, b in zip(u, w):
        if a != b:
            break
        k += 1
    return k


def distance(u: Vertex, w: Vertex) -> int:
    """Tree distance |u| + |w| - 2 lcp(u, w) on canonical names."""
    return len(u) + len(w) - 2 * lcp_length(u, w)


def geodesic(u: Vertex, w: Vertex) -> list:
    """The unique embedded path from u to w: a list of vertices, consecutive
    entries adjacent."""
    k = lcp_length(u, w)
    return ([Vertex(u[:m]) for m in range(len(u), k, -1)]
            + [Vertex(w[:m]) for m in range(k, len(w) + 1)])


def ball(center: Vertex, radius: int, spec: GroupSpec, *,
         max_radius: int | None = None) -> list:
    """All vertices within the given radius, BFS order, sorted per level.
    Only the centre's pairs are checked, as ``neighbors`` checks them: a
    neighbour of a valid vertex adds a pair with eps = +-1 or drops one."""
    spheres = bfs_spheres(_checked(center), radius,
                          [(0, pair, 0, 0) for pair in _pairs(spec)], _step,
                          max_radius, default=12)
    return [u for sphere in spheres for u in sphere]


def tree_edges(vertices) -> list:
    """Parent-child pairs among the given vertices (canonical orientation)."""
    vset = set(vertices)
    return [(Vertex(w[:-1]), w) for w in vertices if w and w[:-1] in vset]


def to_dot(vertices, edges) -> str:
    """DOT text for a finite tree window."""
    ids = {u: i for i, u in enumerate(sorted(vertices, key=lambda v: (len(v), str(v))))}
    lines = ["graph bass_serre_tree {", "  node [shape=box];"]
    lines += [f'  n{i} [label="{u}"];' for u, i in ids.items()]
    for a, b in sorted(edges, key=lambda e: (ids[e[0]], ids[e[1]])):
        down = len(b) == len(a) + 1 and b[len(a)][0] < 0
        lines.append(f"  n{ids[a]} -- n{ids[b]}"
                     f"{' [style=dashed]' if down else ''};")
    return "\n".join(lines) + "\n}\n"


def edges_csv(edges) -> str:
    """CSV rows (parent, child, direction, residue) for parent-child edges."""
    lines = ["parent,child,direction,residue"]
    for a, b in edges:
        eps, r = b[-1]
        lines.append(f'"{a}","{b}",{eps},{";".join(map(str, r))}')
    return "\n".join(lines) + "\n"

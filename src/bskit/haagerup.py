"""Tree cocycles, kernel positivity certificates, and proper witnesses.

The edge cocycle b(gamma) is the signed indicator of the geodesic from
the base vertex to gamma v; its squared norm is exactly the tree
distance, which makes exp(-s d) a Schoenberg kernel.  For n = 1 and
every lambda != 0 an explicit affine witness lives on the hyperbolic upper
half-plane, where (k, a) acts by (x, y) -> (lambda^k x + a, |lambda|^k y).

Floating point enters only here, in Gram matrices and hyperbolic
distances; every input to those is exact up to the final evaluation.
"""

from __future__ import annotations

import json
import math
from functools import reduce
from typing import Any, NamedTuple

from .affine import ball_image, scaled
from .presentation import GroupSpec
from .embedding import _columns
from .tree import BASE, Vertex, distance
from .words import T, VertexTrie, britton_reduce, nf_append, nf_multiply


class UnsupportedWitnessError(RuntimeError):
    """No explicit affine witness for n > 1; profile-only evidence."""


# ---------------------------------------------------------------------------
# The tree cocycle

class CocycleVector(NamedTuple):
    """Finite signed edge set: a map from child vertex to coefficient.

    An edge of the rooted tree is named by its child's vertex tuple and
    oriented parent -> child; reversing an edge negates its coefficient.
    No coefficient is zero, so a map comparison decides equality of
    cocycle values.  Values are built with ``tuple.__new__``."""

    edges: dict  # child vertex tuple -> nonzero int

    @property
    def coefficients(self) -> tuple:
        """Display order: ((parent, child) Vertexes, coeff) by depth, name."""
        return tuple(sorted((((Vertex(w[:-1]), Vertex(w)), c)
                             for w, c in self.edges.items()),
                            key=lambda item: (len(item[0][1]),
                                              str(item[0][1]))))

    def norm_sq(self) -> int:
        return sum(c * c for c in self.edges.values())

    def __add__(self, other: "CocycleVector") -> "CocycleVector":
        d = dict(self.edges)
        for w, c in other.edges.items():
            if c := d.pop(w, 0) + c:  # a cancelled edge stays dropped
                d[w] = c
        return tuple.__new__(CocycleVector, (d,))


def cocycle(gamma, spec: GroupSpec) -> CocycleVector:
    """b(gamma): signed indicator of the geodesic from v to gamma v.  The
    path runs down the prefixes u[:m] of the vertex u of gamma's form."""
    u = britton_reduce(gamma, spec).vertex
    edges = dict.fromkeys([u[:m] for m in range(1, len(u) + 1)], 1)
    return tuple.__new__(CocycleVector, (edges,))


def _step(key, pair, spec: GroupSpec, trie: VertexTrie) -> tuple:
    """(key, edge, sign) of gamma coset(u) x^r t^eps from gamma coset(u)'s
    key, for pair (eps, r): an x-step read from ``trie.table`` (no letter),
    ``nf_append``'s t-step, the edge's child node, -1 if walked upwards."""
    (node, tail), (eps, r) = key, pair
    if (x := trie.table.get((tail, r))) is None:
        x = trie.shift(tail, r, spec.n)
    key = nf_append((node, x), T(eps), spec, trie)
    return (key, key[0], 1) if trie.parent[key[0]] == node else (key, node, -1)


def translate_cocycle(gamma, cv: CocycleVector,
                      spec: GroupSpec) -> CocycleVector:
    """gamma . b: relabel each edge (u, w) to (gamma u, gamma w).

    gamma coset(w) = gamma coset(u) x^r t^eps for w's last pair (eps, r): by
    a loop, shortest first from gamma coset(v) = gamma, each vertex of b and
    each prefix it needs is moved once, by ``_step`` in one ``VertexTrie``."""
    g, trie, d = britton_reduce(gamma, spec), VertexTrie(), {}
    key = reduce(trie.add, g.vertex, 0), trie.intern(g.tail)
    moved, edges = {BASE: key}, cv.edges  # u -> key of gamma coset(u)
    for w in sorted(edges, key=len):
        up = [w]  # w, then the prefixes no shorter edge has moved
        while (key := moved.get(up[-1][:-1])) is None:
            up.append(up[-1][:-1])
        for u in reversed(up):  # parents first, one edge at a time
            key, edge, c = _step(key, u[-1], spec, trie)
            moved[u] = key
        d[trie.vertex(edge)] = c * edges[w]  # distinct edges stay distinct
    return tuple.__new__(CocycleVector, (d,))


def cocycle_identity_check(gamma, delta, spec: GroupSpec) -> bool:
    """Exact check of the 1-cocycle law b(gd) = b(g) + g.b(d) on the nodes
    of one ``VertexTrie``: g.b(d) moves d's path by ``_step`` (``nf_append``),
    b(gd) is the path of ``nf_multiply``'s form (``_Builder.push_t``)."""
    g, d = britton_reduce(gamma, spec), britton_reduce(delta, spec)
    trie, node = VertexTrie(), 0  # b(g): the nodes of g's path
    rhs = {(node := trie.add(node, pair)): 1 for pair in g.vertex}
    key = node, trie.intern(g.tail)
    for pair in d.vertex:  # plus g.b(d), edge by edge
        key, edge, c = _step(key, pair, spec, trie)
        rhs[edge] = rhs.get(edge, 0) + c
    node = 0
    lhs = {(node := trie.add(node, pair)): 1
           for pair in nf_multiply(g, d, spec).vertex}
    return lhs == {edge: c for edge, c in rhs.items() if c}


# ---------------------------------------------------------------------------
# Gram certificates

class GramReport(NamedTuple):
    """Kernel matrix over a finite element sample with its PSD verdict."""

    kernel: str
    s: float
    element_names: list
    matrix: Any  # a numpy.ndarray; numpy is imported with the first report
    min_eigenvalue: float
    tolerance: float

    @property
    def psd(self) -> bool:
        return self.min_eigenvalue >= -self.tolerance

    def to_json(self) -> str:
        return json.dumps({
            "kernel": self.kernel,
            "s": self.s,
            "elements": self.element_names,
            "dimension": len(self.element_names),
            "min_eigenvalue": self.min_eigenvalue,
            "tolerance": self.tolerance,
            "psd": self.psd,
        }, indent=2)


def _gram_report(kernel: str, s: float, elements, dist_matrix) -> GramReport:
    import numpy as np  # only Gram reports need it; keeps `bsk` start-up fast
    m = np.exp(-s * np.asarray(dist_matrix, dtype=float))
    min_eig = float(np.linalg.eigvalsh(m)[0])
    tol = 1e-8 * len(elements)
    return GramReport(kernel, s, [str(nf) for nf in elements], m, min_eig, tol)


def _check_scale(s: float) -> None:
    if not 0 < s < math.inf:  # NaN fails both comparisons
        raise ValueError(
            f"kernel parameter s must be a positive finite number, got {s}")


def _check_sample(elements, s: float, spec: GroupSpec) -> list:
    """The sample as normal forms: raw words equal in the group are
    duplicates."""
    _check_scale(s)
    elements = [britton_reduce(g, spec) for g in elements]
    if not elements:
        raise ValueError("an empty sample has no Gram report")
    if len(set(elements)) != len(elements):
        raise ValueError("duplicate elements make the Gram report ill-posed")
    return elements


def tree_gram(elements, s: float, spec: GroupSpec) -> GramReport:
    """PSD certificate for K_ij = exp(-s d(g_i v, g_j v)) on the tree."""
    elements = _check_sample(elements, s, spec)
    verts = [nf.vertex for nf in elements]
    dm = [[distance(u, w) for w in verts] for u in verts]
    return _gram_report("tree", s, elements, dm)


# ---------------------------------------------------------------------------
# Half-plane witness (n = 1)

def _half_plane_points(images, spec: GroupSpec) -> list:
    """The half-plane points of several images (k, num, den), the orbit of
    the base point (0, 1) under the isometry (x, y) -> (lambda^k x + a,
    |lambda|^k y) with a = num / den (a reflection when lambda^k < 0): the
    point (a, |lambda|^k), with one float |lambda|^k per distinct height k.
    The first point outside the float range is refused by its height; n > 1
    has no witness."""
    if spec.n != 1:
        raise UnsupportedWitnessError(
            f"no explicit affine witness for this datum ({spec!r}); "
            "tree_gram and properness profiles remain available")
    lam = abs(spec.lam_scalar)
    ys, points = {}, []
    for k, num, den in images:
        try:
            if k not in ys:
                ys[k] = float(lam ** k)
            x, y = num[0] / den, ys[k]
        except OverflowError:
            y = 0.0
        if y == 0.0:  # also where |lambda|^k underflows
            raise OverflowError(f"the half-plane point at height k = {k} "
                                "is outside the float range")
        points.append((x, y))
    return points


def hyperbolic_distance(p, q) -> float:
    """Distance of two upper half-plane points (x, y), each with x finite
    and 0 < y < inf."""
    (px, py), (qx, qy) = p, q
    if not (math.isfinite(px) and math.isfinite(qx)
            and 0 < py < math.inf and 0 < qy < math.inf):  # NaN fails too
        raise ValueError(f"not both in the upper half-plane: {p}, {q}")
    return _distances_from(p, [q])[0]


def _distances_from(p, qs) -> list:
    """hyperbolic_distance(p, q) for several points q checked by the caller,
    each from (qx - px)^2 + (qy - py)^2 over 2 py qy."""
    px, py = p
    out = []
    for q in qs:
        qx, qy = q
        if px == qx and py == qy:  # also where 2 py qy would underflow to 0.0
            out.append(0.0)
            continue
        den = 2.0 * py * qy  # 0.0 where the product underflows
        try:
            arg = (1.0 + ((qx - px) ** 2 + (qy - py) ** 2) / den if den
                   else math.inf)
        except OverflowError:  # a square past the range
            arg = math.inf
        if not arg < math.inf:  # a difference or a quotient past the range
            raise OverflowError(f"the distance of {p} and {q} is not a float")
        out.append(math.acosh(arg if arg > 1.0 else 1.0))
    return out


# ---------------------------------------------------------------------------
# Combined witness

def affine_distances(rows, cols, spec: GroupSpec) -> list:
    """Distances between two lists of affine images (k, num, den), as
    affine.scaled gives them, as a matrix of half-plane distances.  Each
    image is mapped to the half-plane once, and a rational becomes a float
    by one correctly rounded division of integers."""
    ps = _half_plane_points(rows, spec)
    qs = _half_plane_points(cols, spec)
    return [_distances_from(p, qs) for p in ps]


def _witness_values(ms, images, s: float, spec: GroupSpec) -> list:
    """psi_s of each element, given its t-length m and affine image (k,
    num, den): exp(-s (m + the distance of that image's point from the base
    point (0, 1))), one distance loop over the images."""
    dists = _distances_from((0.0, 1.0), _half_plane_points(images, spec))
    return [math.exp(-s * (m + d)) for m, d in zip(ms, dists)]


def witness(gamma, s: float, spec: GroupSpec) -> float:
    """psi_s(gamma) = exp(-s (d_T(v, gamma v) + affine displacement))."""
    _check_scale(s)
    nf = britton_reduce(gamma, spec)
    return _witness_values([len(nf.vertex)], [scaled(nf, spec)], s, spec)[0]


def witness_gram(elements, s: float, spec: GroupSpec) -> GramReport:
    """PSD certificate for the product kernel tree x affine displacement."""
    elements = _check_sample(elements, s, spec)
    verts = [nf.vertex for nf in elements]
    affs = [scaled(nf, spec) for nf in elements]
    dm = [[distance(u, w) + a for w, a in zip(verts, row)]
          for u, row in zip(verts, affine_distances(affs, affs, spec))]
    return _gram_report("witness", s, elements, dm)


def c0_profile(lmax: int, s: float, spec: GroupSpec, *, ball=None) -> list:
    """Rows (L, max psi_s over the sphere, argmax element rendering).

    The maxima trending to zero is the desk-scale shadow of the witness
    being a C0 function.  As psi_s <= exp(-s m) at t-length m, only the
    t-lengths whose bound reaches the best value at the sphere's least
    t-length, less a relative 1e-9 past float rounding, are evaluated.
    """
    _check_scale(s)
    keys, depth, ball = _columns(lmax, spec, ball)
    rows = []
    for L, sphere in enumerate(keys):
        # the floats witness(nf, s, spec) gives, no NaN, in sphere order
        # (never empty: t^L has length L), so the first max wins
        ms = [depth[u] for u, _ in sphere]
        low = min(ms)
        images = [ball_image(key, ball)
                  for key, m in zip(sphere, ms) if m == low]
        bound = max(_witness_values([low] * len(images), images, s, spec))
        keep = {m for m in set(ms) if math.exp(-s * m) >= bound * (1 - 1e-9)}
        picked = [(key, m) for key, m in zip(sphere, ms) if m in keep]
        images = [ball_image(key, ball) for key, _ in picked]
        vals = _witness_values([m for _, m in picked], images, s, spec)
        i = vals.index(max(vals))
        rows.append((L, vals[i], ball.trie.text(picked[i][0])))
    return rows


def c0_profile_csv(rows) -> str:
    return "L,max_witness,argmax\n" + "".join(
        f'{L},{val:.12g},"{name}"\n' for L, val, name in rows)

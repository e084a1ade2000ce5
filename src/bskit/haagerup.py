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
from typing import Any, NamedTuple

from .affine import scaled
from .presentation import GroupSpec
from .embedding import ball_columns
from .tree import BASE, Vertex, distance
from .words import T, X, britton_reduce, nf_append, nf_multiply


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

    @staticmethod
    def from_dict(d: dict) -> "CocycleVector":
        return CocycleVector({w: c for w, c in d.items() if c != 0})

    @property
    def coefficients(self) -> tuple:
        """Display order: ((parent, child) Vertexes, coeff) by depth, name."""
        return tuple(sorted((((Vertex(w[:-1]), Vertex(w)), c)
                             for w, c in self.edges.items()),
                            key=lambda item: (len(item[0][1]), str(item[0][1]),
                                              str(item[0][0]))))

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


def translate_cocycle(gamma, cv: CocycleVector,
                      spec: GroupSpec) -> CocycleVector:
    """gamma . b: relabel each edge (u, w) to (gamma u, gamma w).

    A tree automorphism carries the edge (parent, w) onto (gamma parent,
    gamma w), and gamma coset(w) = gamma coset(parent) x^r t^eps for w's
    last pair (eps, r): each vertex is moved from its parent's image by
    two ``nf_append`` steps sharing one (eps, tail) table.  By a loop,
    shortest child first from gamma coset(v) = gamma, each vertex of b and
    each prefix it needs is moved once."""
    moved = {BASE: britton_reduce(gamma, spec)}  # vertex -> gamma coset(u)
    table, d, edges = {}, {}, cv.edges
    for w in sorted(edges, key=len):
        up = [w]  # w, then the prefixes no shorter edge has moved
        while (image := moved.get(up[-1][:-1])) is None:
            up.append(up[-1][:-1])
        for u in reversed(up):  # parents first, one edge at a time
            parent, (eps, r) = image, u[-1]
            image = moved[u] = nf_append(nf_append(parent, X(r), spec),
                                         T(eps), spec, table)
        # distinct edges stay distinct: a split keeps the orientation
        # parent -> child, a pinch (image one pair shorter) reverses it
        if len(image.vertex) > len(parent.vertex):
            d[image.vertex] = edges[w]
        else:
            d[parent.vertex] = -edges[w]
    return tuple.__new__(CocycleVector, (d,))


def cocycle_identity_check(gamma, delta, spec: GroupSpec) -> bool:
    """Exact check of the 1-cocycle law b(gd) = b(g) + g.b(d): its left side
    reduces by ``_Builder.push_t``, its right side by ``nf_append``, the
    two copies of the split/pinch rule."""
    g = britton_reduce(gamma, spec)
    d = britton_reduce(delta, spec)
    lhs = cocycle(nf_multiply(g, d, spec), spec)
    rhs = cocycle(g, spec) + translate_cocycle(g, cocycle(d, spec), spec)
    return lhs == rhs


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
    point (a, |lambda|^k), with one float |lambda|^k per distinct height k
    (first-seen order names the failing height)."""
    lam = abs(spec.lam_scalar)
    ys = {}
    for k in dict.fromkeys([k for k, _, _ in images]):
        try:
            ys[k] = float(lam ** k)
        except OverflowError:
            ys[k] = 0.0
        if ys[k] == 0.0:
            raise OverflowError(
                f"the half-plane point at height k = {k} is outside the "
                "float range")
    return [(num[0] / den, ys[k]) for k, num, den in images]


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
    with (qy - py)^2 and 2 py qy taken once per distinct height qy."""
    px, py = p
    heights, out = {}, []
    for q in qs:
        qx, qy = q
        if px == qx and py == qy:  # also where 2 py qy would underflow to 0.0
            out.append(0.0)
            continue
        if qy not in heights:  # den is 0.0 where the product underflows
            heights[qy] = (qy - py) ** 2, 2.0 * py * qy
        dy2, den = heights[qy]
        arg = 1.0 + ((qx - px) ** 2 + dy2) / den if den else math.inf
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
    if spec.n != 1:
        raise UnsupportedWitnessError(
            f"no explicit affine witness for this datum ({spec!r}); "
            "tree_gram and properness profiles remain available")
    ps = _half_plane_points(rows, spec)
    qs = _half_plane_points(cols, spec)
    return [_distances_from(p, qs) for p in ps]


def _witness_values(nfs, images, s: float, spec: GroupSpec) -> list:
    """psi_s of each normal form, given its affine image (k, num, den):
    exp(-s (t-length + the distance of that image from the identity's
    image (0, 0, 1))), one distance loop over the images."""
    dists, = affine_distances([(0, (0,) * spec.n, 1)], images, spec)
    return [math.exp(-s * (len(nf.vertex) + d)) for nf, d in zip(nfs, dists)]


def witness(gamma, s: float, spec: GroupSpec) -> float:
    """psi_s(gamma) = exp(-s (d_T(v, gamma v) + affine displacement))."""
    _check_scale(s)
    nf = britton_reduce(gamma, spec)
    return _witness_values([nf], [scaled(nf, spec)], s, spec)[0]


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
    being a C0 function.
    """
    _check_scale(s)
    rows = []
    for L, (sphere, images) in enumerate(ball_columns(lmax, spec, ball)):
        # one distance row per sphere (never empty: t^L has length L) of
        # the floats witness(nf, s, spec) gives, no NaN; the first max wins
        vals = _witness_values(sphere, images, s, spec)
        i = vals.index(max(vals))
        rows.append((L, vals[i], str(sphere[i])))
    return rows


def c0_profile_csv(rows) -> str:
    return "L,max_witness,argmax\n" + "".join(
        f'{L},{val:.12g},"{name}"\n' for L, val, name in rows)

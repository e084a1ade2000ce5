"""The affine image Z x Q^n of the group, and the homomorphism into it.

An AffineElement is a pair (k, a): k the height (t-exponent sum) and a
the rational translation part.  Composition is the semidirect-product law

    (k, a) * (k', a') = (k + k', a + Lambda^k a'),   Lambda = A B^-1.

All coordinates stay exact; floats enter only in the haagerup module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .arith import IntMatrix
from .presentation import GroupSpec
from .words import NormalForm, X, _wrong_size


@dataclass(frozen=True)
class AffineElement:
    """Element (k, a) of the semidirect product Z x Q^n."""

    k: int
    a: tuple  # tuple[Fraction, ...]

    @property
    def is_identity(self) -> bool:
        return self.k == 0 and not any(self.a)

    def __str__(self) -> str:
        coords = ", ".join(str(x) for x in self.a)
        return f"({self.k}; {coords})"


def _lam_apply(k: int, a, spec: GroupSpec) -> tuple:
    """Lambda^k a: |k| steps of the integer pair (M, d) of Lambda^{+-1}
    on a held as integers over one denominator, as in j_affine."""
    den = math.lcm(*(x.denominator for x in a))
    num = [x.numerator * (den // x.denominator) for x in a]
    M, d = spec.lam_int[1 if k > 0 else -1]
    for _ in range(abs(k)):
        num, den = M.apply(num), den * d
    return tuple(Fraction(c, den) for c in num)


def aff_compose(e1: AffineElement, e2: AffineElement,
                spec: GroupSpec) -> AffineElement:
    return AffineElement(e1.k + e2.k,
                         tuple(x + y for x, y in
                               zip(e1.a, _lam_apply(e1.k, e2.a, spec))))


def aff_invert(e: AffineElement, spec: GroupSpec) -> AffineElement:
    return AffineElement(-e.k,
                         tuple(-x for x in _lam_apply(-e.k, e.a, spec)))


def j_affine(w, spec: GroupSpec) -> AffineElement:
    """Image of a word or normal form: x^z -> (0, z), t^eps -> (eps, 0).

    Starting from the tail, the steps x^r t^eps (a normal form's vertex
    pairs (eps, r)) fold right to left, (k, a) <- j(step) (k, a),
    fraction-free: a = num / den with num an integer vector.  t^{+-1}
    applies the integer matrix of Lambda^{+-1} = M/d and multiplies den by
    d > 0; then x^r adds den r.  Then one Fraction per coordinate.
    """
    if isinstance(w, NormalForm):
        steps, tail = w.vertex, w.tail
    else:  # a raw word: each letter is a step (eps, r) with one part trivial
        tail = (0,) * spec.n
        steps = [(0, l.z) if isinstance(l, X) else (l.eps, tail) for l in w]
        for _, r in steps:
            if len(r) != spec.n:
                raise _wrong_size(r, spec.n)
    lam_int = spec.lam_int
    k, den = 0, 1
    num = list(tail)
    for eps, r in reversed(steps):
        if eps:
            M, d = lam_int[eps]
            num = [sum(map(mul, row, num)) for row in M.rows]
            den *= d
            k += eps
        num = [c + den * x for c, x in zip(num, r)]
    return AffineElement(k, tuple(Fraction(c, den) for c in num))


class VertexImages:
    """j_affine over many normal forms as integers (k, num, den), with one
    step along a tree edge per Bass-Serre vertex.

    A normal form is coset(u) x^tail for its vertex u = nf.vertex, so
    j = (k_u, a_u + Lambda^{k_u} tail).  Each vertex holds k_u, the
    integer vector N_u, the integer matrix Q_u and D_u > 0 with
    a_u + Lambda^{k_u} z = (N_u + Q_u z) / D_u, keyed by u itself.  The
    memo grows with every vertex seen: build one per computation and drop
    it afterwards.
    """

    def __init__(self, spec: GroupSpec):
        self.spec = spec
        n = spec.n
        identity = IntMatrix(tuple(tuple(int(i == j) for j in range(n))
                                   for i in range(n)))
        self._vertices = {(): (0, (0,) * n, identity, 1)}

    def _vertex(self, u):
        """The entry of u = parent + (eps, r): the parent's entry and one
        step N <- (N + Q r) d, Q <- Q M, D <- D d with (M, d) the pair of
        Lambda^eps.  Without a held parent, the steps run from the base
        over all of u, holding no entry in between."""
        parent = self._vertices.get(u[:-1])
        if parent:
            (k, N, Q, D), steps = parent, u[-1:]
        else:
            (k, N, Q, D), steps = self._vertices[()], u
        for e, r in steps:
            M, d = self.spec.lam_int[e]
            N = tuple((c + x) * d for c, x in zip(N, Q.apply(r)))
            Q, D, k = Q @ M, D * d, k + e
        return k, N, Q, D

    def scaled(self, nf: NormalForm):
        """(k, num, den) with j_affine(nf) = (k, num / den) and den > 0."""
        u = nf.vertex
        if not u:
            return 0, nf.tail, 1
        v = self._vertices.get(u)
        if v is None:
            v = self._vertices[u] = self._vertex(u)
        k, N, Q, D = v
        tail = nf.tail
        if len(tail) != len(N):
            raise _wrong_size(tail, len(N))
        return k, [c + sum(map(mul, row, tail))
                   for c, row in zip(N, Q.rows)], D

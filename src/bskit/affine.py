"""The affine image Z x Q^n of the group, and the homomorphism into it.

An AffineElement is a pair (k, a): k the height (t-exponent sum) and a
the rational translation part.  Composition is the semidirect-product law

    (k, a) * (k', a') = (k + k', a + Lambda^k a'),   Lambda = A B^-1.

All coordinates stay exact; floats enter only in the haagerup module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import NamedTuple

from .arith import _wrong_size
from .presentation import GroupSpec
from .words import NormalForm, X, _wrong_letter


class AffineElement(NamedTuple):
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


def scaled(w, spec: GroupSpec):
    """The image of a word or normal form as integers (k, num, den) with
    j(w) = (k, num / den) and den > 0: x^z -> (0, z), t^eps -> (eps, 0).

    The steps x^r t^eps (a normal form's vertex pairs (eps, r), then its
    tail) fold right to left, (k, a) <- j(step) (k, a), fraction-free:
    t^{+-1} applies the integer matrix of Lambda^{+-1} = M/d and multiplies
    den by d > 0; then x^r adds den r.  A raw word's letters are steps with
    no t-letter (eps None) or no x-vector (r None).  Every x-vector must lie
    in Z^n, and every eps be +1 or -1.
    """
    n = spec.n
    if isinstance(w, NormalForm):
        steps = (*w.vertex, (None, w.tail))
    else:
        steps = [(None, l.z) if isinstance(l, X) else (l.eps, None) for l in w]
    lam_int = spec.lam_int
    k, den = 0, 1
    num = [0] * n
    for eps, r in reversed(steps):
        if eps is not None:
            try:
                M, d = lam_int[eps]
            except KeyError:
                raise _wrong_letter(eps) from None
            num = [sum(map(mul, row, num)) for row in M.rows]
            den *= d
            k += eps
        if r is not None:
            if len(r) != n:
                raise _wrong_size(r, n)
            num = [c + den * x for c, x in zip(num, r)]
    return k, num, den


def j_affine(w, spec: GroupSpec) -> AffineElement:
    """Image of a word or normal form: ``scaled``, then one Fraction per
    coordinate."""
    k, num, den = scaled(w, spec)
    return AffineElement(k, tuple(Fraction(c, den) for c in num))


def ball_images(spheres, spec: GroupSpec):
    """Yield, per sphere of a word-length ball, the images (k, num, den)
    of its elements, as ``scaled`` gives them, with one step along a tree
    edge per Bass-Serre vertex.

    A normal form is coset(u) x^tail for its vertex u, so j = (k_u, a_u +
    Lambda^{k_u} tail).  Each vertex u seen holds (k_u, rows_u, D_u) with
    a_u + Lambda^{k_u} z = (N_u + Q_u z) / D_u, D_u > 0, and rows_u pairing
    N_u[i] with row i of Q_u, all integers.  A new vertex u = parent +
    (eps, r) takes its parent's entry and one step N <- (N + Q r) d, Q <- Q M
    (on the columns of M), D <- D d, with (M, d) the pair of Lambda^eps.  A
    residue or tail outside Z^n is refused.  The prefixes of a geodesic word
    walk the tree from the base to its element's vertex, so in a word-length
    ball each parent is held; where it is not, ValueError names the element.
    """
    n = spec.n
    lam_int = spec.lam_int
    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    entries = {(): (0, tuple(zip((0,) * n, identity)), 1)}
    for sphere in spheres:
        images = []
        for nf in sphere:
            u, tail = nf
            if len(tail) != n:
                raise _wrong_size(tail, n)
            entry = entries.get(u)
            if entry is None:
                parent = entries.get(u[:-1])
                if parent is None:
                    raise ValueError(f"{nf}: the parent of its vertex is held "
                                     "by no element before it")
                k, rows, D = parent
                e, r = u[-1]
                if len(r) != n:
                    raise _wrong_size(r, n)
                try:
                    M, d = lam_int[e]
                except KeyError:
                    raise _wrong_letter(e) from None
                cols = tuple(zip(*M.rows))
                entry = entries[u] = (k + e, tuple(
                    ((c + sum(map(mul, row, r))) * d,
                     tuple(sum(map(mul, row, col)) for col in cols))
                    for c, row in rows), D * d)
            k, rows, D = entry
            images.append((k, [c + sum(map(mul, row, tail))
                               for c, row in rows], D))
        yield images

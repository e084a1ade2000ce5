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
from .words import NormalForm, T, X, _wrong_letter


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
    """Lambda^k a: ``scaled`` of the raw word t^k x^{den a}, over den, for
    den the least common denominator of a; j(t^k x^z) = (k, Lambda^k z)."""
    den = math.lcm(*(x.denominator for x in a))
    z = tuple(x.numerator * (den // x.denominator) for x in a)
    _, num, d = scaled([T(1 if k > 0 else -1)] * abs(k) + [X(z)], spec)
    return tuple(Fraction(c, d * den) for c in num)


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


def ball_image(key, ball) -> tuple:
    """The image (k, num, den) of key (node, tail id) of a ``GroupBall``, as
    ``scaled`` gives it: the entry (k, rows, D) of node u in ``ball.entries``
    gives j(coset(u) x^z) = (k, (N + Q z) / D) in integers, rows pairing
    N[i] with row i of Q.  A node not held is stepped from its nearest held
    ancestor along ``trie.parent``, parents first, storing each entry: a step
    by (eps, r) = ``trie.pair[node]`` takes N <- (N + Q r) d, Q <- Q M, D <-
    D d for the pair (M, d) of Lambda^eps, and refuses a bad eps or r."""
    node, tail = key[0], ball.trie.tails[key[1]]
    if (entry := ball.entries.get(node)) is None:
        entries, trie, spec, path = ball.entries, ball.trie, ball.spec, []
        while (entry := entries.get(node)) is None:
            path.append(node)
            node = trie.parent[node]
        k, rows, D = entry
        for node in reversed(path):
            e, r = trie.pair[node]
            if len(r) != spec.n:
                raise _wrong_size(r, spec.n)
            try:
                M, d = spec.lam_int[e]
            except KeyError:
                raise _wrong_letter(e) from None
            cols = tuple(zip(*M.rows))
            rows = tuple(((c + sum(map(mul, row, r))) * d,
                          tuple(sum(map(mul, row, col)) for col in cols))
                         for c, row in rows)
            k, D = k + e, D * d
            entry = entries[node] = k, rows, D
    k, rows, D = entry
    return k, [c + sum(map(mul, row, tail)) for c, row in rows], D

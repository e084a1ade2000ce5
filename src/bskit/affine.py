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

from .presentation import GroupSpec
from .words import NormalForm, X


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


def aff_identity(n: int) -> AffineElement:
    return AffineElement(0, (Fraction(0),) * n)


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

    Folds right to left, (k, a) <- j(letter) (k, a), fraction-free: a is
    kept as an integer vector num over one integer den.  An x-power adds
    den z; t^{+-1} applies the integer matrix of Lambda^{+-1} = M/d and
    multiplies den by d.  One Fraction per coordinate is built at the end.
    """
    if isinstance(w, NormalForm):
        steps, head = w.syllables, w.head
    else:  # a raw word: each letter is a step (eps, z) with one part trivial
        head = (0,) * spec.n
        steps = [(0, l.z) if isinstance(l, X) else (l.eps, head) for l in w]
    lam_int = spec.lam_int
    k, den = 0, 1
    num = [0] * spec.n
    for eps, z in reversed(steps):
        num = [c + den * x for c, x in zip(num, z)]
        if eps:
            M, d = lam_int[eps]
            num = [sum(map(mul, r, num)) for r in M.rows]
            den *= d
            k += eps
    return AffineElement(k, tuple(Fraction(c + den * x, den)
                                  for c, x in zip(num, head)))

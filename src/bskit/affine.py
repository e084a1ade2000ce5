"""The affine image Z x Q^n of the group, and the homomorphism into it.

An AffineElement is a pair (k, a): k the height (t-exponent sum) and a
the rational translation part.  Composition is the semidirect-product law

    (k, a) * (k', a') = (k + k', a + Lambda^k a'),   Lambda = A B^-1.

All coordinates stay exact; floats enter only in the haagerup module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .arith import QVector, rat_apply
from .presentation import GroupSpec
from .words import NormalForm, X


@dataclass(frozen=True)
class AffineElement:
    """Element (k, a) of the semidirect product Z x Q^n."""

    k: int
    a: QVector  # tuple[Fraction, ...]

    @property
    def is_identity(self) -> bool:
        return self.k == 0 and not any(self.a)

    def __str__(self) -> str:
        coords = ", ".join(str(x) for x in self.a)
        return f"({self.k}; {coords})"


def aff_identity(n: int) -> AffineElement:
    return AffineElement(0, (Fraction(0),) * n)


def aff_compose(e1: AffineElement, e2: AffineElement,
                spec: GroupSpec) -> AffineElement:
    return AffineElement(e1.k + e2.k,
                         tuple(x + y for x, y in
                               zip(e1.a, rat_apply(spec.lam_pow(e1.k), e2.a))))


def aff_invert(e: AffineElement, spec: GroupSpec) -> AffineElement:
    neg = rat_apply(spec.lam_pow(-e.k), e.a)
    return AffineElement(-e.k, tuple(-x for x in neg))


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

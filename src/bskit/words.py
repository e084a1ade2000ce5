"""Generator words, Britton reduction, and the word problem.

A word is a list of letters: X(z) for the vertex-group element x^z
(z in Z^n) and T(+1) / T(-1) for the stable letter.  Britton reduction
rewrites with the stable relation read in both directions,

    t x^{B h} t^{-1}  ->  x^{A h}        t^{-1} x^{A h} t  ->  x^{B h}

merging adjacent X letters eagerly; the result is the unique pinch-free
normal form  x^{z0} t^{e1} x^{z1} ... t^{em} x^{zm}.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .arith import (ConfigurationError, IntVector, vec_add, vec_neg,
                    zero_vector)
from .presentation import GroupSpec


class ParseError(ValueError):
    """Word syntax error; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


@dataclass(frozen=True)
class X:
    """The letter x^z for z in Z^n."""
    z: IntVector


@dataclass(frozen=True)
class T:
    """The stable letter t^eps, eps = +1 or -1."""
    eps: int


Word = list      # list of letters


# ---------------------------------------------------------------------------
# Parsing

_ATOM = re.compile(r"(t|x(\d+)?|v\[(-?\d+(?:\s*,\s*-?\d+)*)\])(?:\^(-?\d+))?$")


def parse_word(text: str, spec: GroupSpec) -> Word:
    """Parse the whitespace-separated atom grammar into a raw word.

    Atoms: ``t``, ``x`` (n = 1 only), ``x2`` (generator index), ``v[1,-2]``
    (full vector), each optionally followed by ``^`` and a signed integer
    exponent of unbounded size.  No reduction is performed, except that
    trivial letters x^0 and t^0 are dropped.
    """
    word: Word = []
    pos = 0
    for token in text.split():
        pos = text.index(token, pos)
        m = _ATOM.match(token)
        if m is None:
            raise ParseError(f"bad atom {token!r}", pos)
        base, idx, vec, exp = m.groups()
        e = int(exp) if exp is not None else 1
        if base == "t":
            word.extend([T(1 if e > 0 else -1)] * abs(e))
        elif vec is not None:
            z = tuple(int(c) for c in vec.split(","))
            if len(z) != spec.n:
                raise ParseError(
                    f"vector atom has {len(z)} coordinates, expected {spec.n}",
                    pos)
            if e != 0 and any(z):
                word.append(X(tuple(e * c for c in z)))
        else:
            i = int(idx) if idx is not None else None
            if i is None and spec.n != 1:
                raise ParseError(
                    "bare 'x' is only legal when n = 1; use an index or v[...]",
                    pos)
            if i is not None and not 1 <= i <= spec.n:
                raise ParseError(
                    f"generator index {i} out of range 1..{spec.n}", pos)
            if e != 0:
                z = [0] * spec.n
                z[(i or 1) - 1] = e
                word.append(X(tuple(z)))
        pos += len(token)
    return word


# ---------------------------------------------------------------------------
# Normal forms

@dataclass(frozen=True)
class NormalForm:
    """Canonical Britton form x^{head} t^{e1} x^{z1} ... t^{em} x^{zm}.

    ``syllables`` holds the pairs (e_i, z_i).  Beyond pinch-freeness, the
    form is fully canonical: the x-power in front of each t is a canonical
    lattice residue (of A before t, of B before t^-1), every carry having
    been pushed to the rightmost x-part, which alone is unconstrained.
    Two words are equal in the group iff they reduce to the identical
    NormalForm, so instances serve as dedup keys.
    """

    head: IntVector
    syllables: tuple  # tuple[(eps, IntVector), ...]

    @property
    def t_length(self) -> int:
        return len(self.syllables)

    @property
    def is_identity(self) -> bool:
        return not self.syllables and not any(self.head)

    def __str__(self) -> str:
        return render_nf(self, _render_x)


def _render_x(z: IntVector) -> str:
    if len(z) == 1:
        return f"x^{z[0]}"
    return "v[" + ",".join(map(str, z)) + "]"


def render_nf(nf: NormalForm, render_x) -> str:
    """``str(nf)``, each nonzero x-vector z written ``render_x(z)``."""
    parts = [render_x(nf.head)] if any(nf.head) else []
    for e, z in nf.syllables:
        t = "t" if e == 1 else "t^-1"
        parts.append(f"{t} {render_x(z)}" if any(z) else t)
    return " ".join(parts) if parts else "1"


class XTokens(dict):
    """A memo of ``_render_x`` keyed by the x-vector: render each once."""

    def __missing__(self, z: IntVector) -> str:
        return self.setdefault(z, _render_x(z))


class _Builder:
    """Mutable Britton-reduction stack; push letters, read off the form."""

    __slots__ = ("spec", "head", "syl")

    def __init__(self, spec: GroupSpec):
        self.spec = spec
        self.head = zero_vector(spec.n)
        self.syl = []  # list of (eps, z)

    @classmethod
    def from_nf(cls, nf: NormalForm, spec: GroupSpec) -> "_Builder":
        b = cls(spec)
        b.head = nf.head
        b.syl = list(nf.syllables)
        return b

    def push_x(self, z: IntVector) -> None:
        syl = self.syl
        if syl:
            eps, tail = syl[-1]
            syl[-1] = (eps, vec_add(tail, z))
        else:
            self.head = vec_add(self.head, z)

    def push_t(self, eps: int) -> None:
        # split the tail x-power around the new t:
        # x^g t = x^r t x^{Bh} (g = Ah + r), x^g t^-1 = x^r t^-1 x^{Ah}
        # (g = Bh + r), the carry being GroupSpec.carry[eps] k.  After a
        # t^-eps syllable, r = 0 is exactly the pinch t^-1 x^{Ah} t -> x^{Bh}
        # resp. t x^{Bh} t^-1 -> x^{Ah}.
        spec, syl = self.spec, self.syl
        tail = syl[-1][1] if syl else self.head
        r, k = (spec.lattice_a if eps == 1 else spec.lattice_b).decompose(tail)
        carry = spec.carry[eps].apply(k)
        if not syl:
            self.head = r
        elif syl[-1][0] == -eps and not any(r):
            syl.pop()
            self.push_x(carry)
            return
        else:
            syl[-1] = (syl[-1][0], r)
        syl.append((eps, carry))

    def normal_form(self) -> NormalForm:
        return NormalForm(self.head, tuple(self.syl))


def _wrong_size(z: IntVector, n: int) -> ConfigurationError:
    """The error for an x-letter whose vector is not in Z^n."""
    return ConfigurationError(f"dimension mismatch: {z} in Z^{n}")


def britton_reduce(w, spec: GroupSpec) -> NormalForm:
    """Britton normal form of a word (or of an already-reduced form).
    Each run of x-letters is summed and pushed once."""
    if isinstance(w, NormalForm):
        return w
    b = _Builder(spec)
    n = spec.n
    run = None
    for letter in w:
        if isinstance(letter, X):
            if len(letter.z) != n:
                raise _wrong_size(letter.z, n)
            run = letter.z if run is None else vec_add(run, letter.z)
            continue
        if run is not None:
            b.push_x(run)
            run = None
        b.push_t(letter.eps)
    if run is not None:
        b.push_x(run)
    return b.normal_form()


def nf_append(nf: NormalForm, letter, spec: GroupSpec) -> NormalForm:
    """The normal form of nf * letter; touches only the tail syllable."""
    if isinstance(letter, T):
        b = _Builder.from_nf(nf, spec)
        b.push_t(letter.eps)
        return b.normal_form()
    if len(letter.z) != spec.n:
        raise _wrong_size(letter.z, spec.n)
    syl = nf.syllables
    if not syl:
        return NormalForm(vec_add(nf.head, letter.z), syl)
    eps, z = syl[-1]
    return NormalForm(nf.head, syl[:-1] + ((eps, vec_add(z, letter.z)),))


def word_problem(w, spec: GroupSpec) -> bool:
    """True iff the word represents the identity of the group."""
    return britton_reduce(w, spec).is_identity


def nf_multiply(u: NormalForm, w: NormalForm, spec: GroupSpec) -> NormalForm:
    """u w, pushing w's syllables onto u's builder."""
    b = _Builder.from_nf(u, spec)
    b.push_x(w.head)
    for eps, z in w.syllables:
        b.push_t(eps)
        b.push_x(z)
    return b.normal_form()


def nf_invert(u: NormalForm, spec: GroupSpec) -> NormalForm:
    """u^-1 = x^{-z_m} t^{-e_m} ... x^{-z_1} t^{-e_1} x^{-head}, pushed
    syllable by syllable."""
    b = _Builder(spec)
    for eps, z in reversed(u.syllables):
        b.push_x(vec_neg(z))
        b.push_t(-eps)
    b.push_x(vec_neg(u.head))
    return b.normal_form()

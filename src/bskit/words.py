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
from operator import add
from typing import NamedTuple

from .arith import (ConfigurationError, IntVector, _wrong_size, vec_add,
                    vec_neg, zero_vector)
from .presentation import GroupSpec


class ParseError(ValueError):
    """Word syntax error; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class _Letter:
    """A letter: one read-only field in a slot (the fastest read for the
    per-letter loops), equal and hashed as that field within its kind."""

    __slots__ = ()

    def __init__(self, value):
        object.__setattr__(self, self.__slots__[0], value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):  # (type, (field,)): copies, pickles, compares
        return type(self), (getattr(self, self.__slots__[0]),)

    def __eq__(self, other):
        return (self.__reduce__() == other.__reduce__()
                if type(other) is type(self) else NotImplemented)

    def __hash__(self) -> int:
        return hash(self.__reduce__()[1])

    def __repr__(self) -> str:
        (value,) = self.__reduce__()[1]
        return f"{type(self).__name__}({self.__slots__[0]}={value!r})"


class X(_Letter):
    """The letter x^z for z in Z^n."""
    __slots__ = ("z",)
    z: IntVector


class T(_Letter):
    """The stable letter t^eps, eps = +1 or -1."""
    __slots__ = ("eps",)
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

class NormalForm(NamedTuple):
    """Canonical Britton form x^{r1} t^{e1} ... x^{rm} t^{em} x^{tail}.

    ``vertex`` holds the pairs (e_i, r_i), each t-letter with the x-power
    in front of it: exactly the name of the Bass-Serre vertex of the form
    (a ``tree.Vertex`` equals it), so the form is coset(vertex) x^{tail}.
    Beyond pinch-freeness, the form is fully canonical: each r_i is a
    canonical lattice residue (of A before t, of B before t^-1), every
    carry having been pushed to the tail, which alone is unconstrained.
    Two words are equal in the group iff they reduce to the identical
    NormalForm, so instances serve as dedup keys.
    """

    vertex: tuple  # tuple[(eps, IntVector), ...]
    tail: IntVector

    @property
    def t_length(self) -> int:
        return len(self.vertex)

    @property
    def is_identity(self) -> bool:
        return not self.vertex and not any(self.tail)

    def __str__(self) -> str:
        tail = f" {_render_x(self.tail)}" if any(self.tail) else ""
        pairs = _render_pairs(self.vertex)
        return pairs + tail if pairs else tail[1:] or "1"


def _render_x(z: IntVector) -> str:
    if len(z) == 1:
        return f"x^{z[0]}"
    return "v[" + ",".join(map(str, z)) + "]"


class _PairText(dict):
    """The text of each vertex pair (eps, r), rendered on first sight: as
    in a word ("x^1 t") and as in a vertex name ("x^1·t"), or the bare
    t-letter where r = 0.  The one place that spells t^eps; it holds the
    pairs rendered, at most |det A| + |det B| per datum for canonical r."""

    def __missing__(self, pair):
        eps, r = pair
        if eps not in (1, -1):
            raise _wrong_letter(eps)
        t = "t" if eps == 1 else "t^-1"
        x = _render_x(r) if any(r) else ""
        text = self[pair] = (f"{x} {t}", f"{x}·{t}") if x else (t, t)
        return text


_PAIR_TEXT = _PairText()


def _render_pairs(vertex: tuple) -> str:
    """The pairs of a vertex as a word, one space apart; "" for the base
    vertex."""
    return " ".join([_PAIR_TEXT[pair][0] for pair in vertex])


def sphere_key():
    """A key function equal to ``str`` on normal forms, the sphere order of
    a ball: one dict holds the text of each vertex's pairs and of each tail
    (tuples of pairs and of ints never meet), rendered on first sight."""
    text = {}

    def key(nf):
        u, tail = nf
        pairs = text.get(u)
        if pairs is None:
            pairs = text[u] = _render_pairs(u)
        x = text.get(tail)
        if x is None:
            x = text[tail] = f" {_render_x(tail)}" if any(tail) else ""
        return pairs + x if pairs else x[1:] or "1"
    return key


class _Builder:
    """Mutable Britton-reduction stack; push letters, read off the form.
    ``syl`` is the vertex stack of (eps, residue) pairs, ``tail`` the
    x-power after the last t-letter."""

    __slots__ = ("spec", "syl", "tail")

    def __init__(self, spec: GroupSpec):
        self.spec = spec
        self.syl = []  # list of (eps, r)
        self.tail = zero_vector(spec.n)

    def push_x(self, z: IntVector) -> None:
        if len(z) != self.spec.n:
            raise _wrong_size(z, self.spec.n)
        self.tail = vec_add(self.tail, z)

    def push_t(self, eps: int) -> None:
        # split the tail x-power around the new t:
        # x^g t = x^r t x^{Bh} (g = Ah + r), x^g t^-1 = x^r t^-1 x^{Ah}
        # (g = Bh + r), the carry being GroupSpec.carry[eps] k.  After a
        # t^-eps letter, r = 0 is exactly the pinch t^-1 x^{Ah} t -> x^{Bh}
        # resp. t x^{Bh} t^-1 -> x^{Ah}: the residue in front of that
        # letter absorbs the carry.
        spec, syl = self.spec, self.syl
        try:
            C = spec.carry[eps]
        except KeyError:
            raise _wrong_letter(eps) from None
        r, carry = (spec.lattice_a if eps == 1 else spec.lattice_b).decompose(
            self.tail, C)
        if syl and syl[-1][0] == -eps and not any(r):
            self.tail = vec_add(syl.pop()[1], carry)
        else:
            syl.append((eps, r))
            self.tail = carry

    def normal_form(self) -> NormalForm:
        return NormalForm(tuple(self.syl), self.tail)


def _wrong_letter(eps) -> ConfigurationError:
    """The error for a stable letter t^eps with eps not +1 or -1."""
    return ConfigurationError(f"T(eps={eps!r}) is neither t nor t^-1")


def britton_reduce(w, spec: GroupSpec) -> NormalForm:
    """Britton normal form of a word (or form), pushed letter by letter."""
    if isinstance(w, NormalForm):
        return w
    b = _Builder(spec)
    for letter in w:
        if isinstance(letter, X):
            b.push_x(letter.z)
        else:
            b.push_t(letter.eps)
    return b.normal_form()


def nf_append(nf: NormalForm, letter, spec: GroupSpec,
              table: dict | None = None) -> NormalForm:
    """The normal form of nf * letter: an x-letter only moves the tail; a
    t-letter splits or pinches as ``_Builder.push_t`` does, reading
    (r, carry) from ``table`` keyed by (eps, tail), decomposing on a miss;
    it builds forms with ``tuple.__new__``, not NormalForm's Python one."""
    u, tail = nf
    if isinstance(letter, T):
        eps = letter.eps
        if table is None:
            table = {}
        rc = table.get((eps, tail))
        if rc is None:
            try:
                C = spec.carry[eps]
            except KeyError:
                raise _wrong_letter(eps) from None
            lattice = spec.lattice_a if eps == 1 else spec.lattice_b
            rc = table[eps, tail] = lattice.decompose(tail, C)
        r, carry = rc
        if u and u[-1][0] == -eps and not any(r):
            return tuple.__new__(NormalForm,
                                 (u[:-1], tuple(map(add, u[-1][1], carry))))
        return tuple.__new__(NormalForm, (u + ((eps, r),), carry))
    z = letter.z
    if len(z) != spec.n:
        raise _wrong_size(z, spec.n)
    return tuple.__new__(NormalForm, (u, tuple(map(add, tail, z))))


def word_problem(w, spec: GroupSpec) -> bool:
    """True iff the word represents the identity of the group."""
    return britton_reduce(w, spec).is_identity


def nf_multiply(u: NormalForm, w: NormalForm, spec: GroupSpec) -> NormalForm:
    """u w: u's tail, then w's pairs and tail, pushed onto u's vertex."""
    b = _Builder(spec)
    b.syl = list(u.vertex)
    b.push_x(u.tail)
    for eps, r in w.vertex:
        b.push_x(r)
        b.push_t(eps)
    b.push_x(w.tail)
    return b.normal_form()


def nf_invert(u: NormalForm, spec: GroupSpec) -> NormalForm:
    """u^-1 = x^{-tail} t^{-e_m} x^{-r_m} ... t^{-e_1} x^{-r_1}, pushed
    pair by pair."""
    b = _Builder(spec)
    b.push_x(vec_neg(u.tail))
    for eps, r in reversed(u.vertex):
        b.push_t(-eps)
        b.push_x(vec_neg(r))
    return b.normal_form()

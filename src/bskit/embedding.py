"""Ball enumeration of the group and finite shadows of the embedding.

The combined map j = (tree action, affine image) is injective; over a
finite ball this becomes two elementwise checks (injectivity and the
stabilizer identity) plus sublevel-set stabilization profiles standing
in for metric properness.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from itertools import accumulate
from numbers import Integral
from typing import NamedTuple

from .affine import ball_image
from .arith import _wrong_size, zero_vector
from .presentation import GroupSpec
from .tree import bfs_spheres
from .words import NormalForm, T, VertexTrie, X, nf_append


def generator_letters(spec: GroupSpec) -> list:
    """The letter set {x^{+-e_i}, t, t^-1} used for word-length balls."""
    letters = []
    for i in range(spec.n):  # each letter beside its inverse
        e = tuple(int(j == i) for j in range(spec.n))
        letters += [X(e), X(tuple(-c for c in e))]
    return letters + [T(1), T(-1)]


class GroupBall:
    """All group elements of word length <= radius, deduped by normal form.

    ``keys[L]`` holds the keys (node, tail id) in ``trie`` of the elements
    of minimal word length exactly L, and ``form(key)`` its form.  Built on
    first use: ``spheres``, their forms, ``elements``, the forms joined,
    and ``entries`` (once every tail is in Z^n), the ``ball_image`` memo.
    """

    def __init__(self, keys: list, trie: VertexTrie, spec: GroupSpec):
        self.keys, self.trie, self.spec = keys, trie, spec
        self.radius = len(keys) - 1

    def form(self, key) -> NormalForm:
        return tuple.__new__(NormalForm, (self.trie.vertex(key[0]),
                                          self.trie.tails[key[1]]))

    @cached_property
    def spheres(self) -> list:
        return [list(map(self.form, sphere)) for sphere in self.keys]

    @cached_property
    def elements(self) -> tuple:
        return tuple(nf for sphere in self.spheres for nf in sphere)

    @cached_property
    def entries(self) -> dict:
        n = self.spec.n
        for tail in self.trie.tails:
            if len(tail) != n:
                raise _wrong_size(tail, n)
        return {0: (0, tuple((0, tuple(int(i == j) for j in range(n)))
                             for i in range(n)), 1)}

    def __len__(self) -> int:
        return sum(map(len, self.keys))


def enumerate_ball(L: int, spec: GroupSpec, *,
                   max_length: int | None = None) -> GroupBall:
    """BFS over generator letters, deduplicated by normal form; letter i ^ 1
    inverts letter i, so is never appended where letter i led, nor are the
    x-letters 0..i-1 where x-letter i led first (they commute, see
    ``bfs_spheres``); it runs on keys (node, tail id) of one ``VertexTrie``."""
    moves = [(1 << i, letter, 1 << (i ^ 1),
              1 << (i ^ 1) | ((1 << i) - 1 if i < 2 * spec.n else 0))
             for i, letter in enumerate(generator_letters(spec))]
    trie = VertexTrie()
    keys = bfs_spheres(
        (0, trie.intern(zero_vector(spec.n))), L, moves,
        lambda key, a: nf_append(key, a, spec, trie),
        max_length, default=12 if spec.n == 1 else 8, key=trie.text)
    trie.drop_texts()  # the sort's texts and the search's child index
    return GroupBall(keys, trie, spec)


def _require_datum(ball: GroupBall, spec: GroupSpec) -> None:
    """Refuse, with ValueError, a ball enumerated for another (A, B)."""
    if (ball.spec.A, ball.spec.B) != (spec.A, spec.B):
        raise ValueError(f"the given ball is of {ball.spec!r}, not {spec!r}")


def _columns(lmax: int, spec: GroupSpec, ball: GroupBall | None) -> tuple:
    """Key spheres 0..lmax, node depths and the (given or fresh) ball, tails
    checked; another datum, or lmax outside 0..radius, raises ValueError."""
    if ball is None:
        ball = enumerate_ball(lmax, spec)
    _require_datum(ball, spec)
    if not 0 <= lmax <= ball.radius:
        raise ValueError(f"lmax = {lmax} is outside 0..{ball.radius}, "
                         "the radius of the given ball")
    ball.entries  # the one scan of every tail
    return ball.keys[:lmax + 1], ball.trie.depth, ball


class CheckReport(NamedTuple):
    """Outcome of an elementwise ball check."""

    name: str
    checked: int
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "OK" if self.ok else "FAIL"
        return (f"{status}: {len(self.violations)} violations / "
                f"{self.checked} elements [{self.name}]")

    def to_json_dict(self) -> dict:
        return {"check": self.name, "checked": self.checked,
                "ok": self.ok, "violations": self.violations}


def check_injectivity(ball: GroupBall, spec: GroupSpec) -> CheckReport:
    """Every nontrivial element either moves the base vertex (its node is
    not the base's, 0) or has a nontrivial affine image; read on keys."""
    keys, _, ball = _columns(ball.radius, spec, ball)
    report = CheckReport("injectivity", len(ball), [])
    for key in (key for sphere in keys for key in sphere if not key[0]):
        k, num, _ = ball_image(key, ball)
        if any(ball.trie.tails[key[1]]) and not (k or any(num)):
            report.violations.append(f"{ball.trie.text(key)}: nontrivial "
                                     "but invisible to both coordinates")
    return report


def check_stabilizer(ball: GroupBall, spec: GroupSpec) -> CheckReport:
    """{gamma : gamma v = v} must equal {gamma : t-length 0}, elementwise:
    an element fixes the base iff its node is 0, the t-length its depth."""
    keys, depth, ball = _columns(ball.radius, spec, ball)
    report = CheckReport("stabilizer", len(ball), [])
    for key in (key for sphere in keys for key in sphere):
        if (not key[0]) != ((m := depth[key[0]]) == 0):
            report.violations.append(f"{ball.trie.text(key)}: fixes base = "
                                     f"{not key[0]}, t-length = {m}")
    return report


class PropernessProfile(NamedTuple):
    """Sublevel-set counts #{d_T <= R, |k| <= R, ||a||_inf <= R} per (L, R).

    ``counts[R]`` lists the count over each ball radius 0..Lmax;
    ``stabilized[R]`` is True when the count is constant over the last
    two L increments.  Evidence for metric properness, not a proof.
    """

    lmax: int
    r_grid: list
    counts: dict
    stabilized: dict

    def to_csv(self) -> str:
        return "L,R,count,stabilized\n" + "".join(
            f"{L},{r},{c},{str(self.stabilized[r]).lower()}\n"
            for r in self.r_grid for L, c in enumerate(self.counts[r]))


def properness_profile(lmax: int, r_grid, spec: GroupSpec, *,
                       ball: GroupBall | None = None) -> PropernessProfile:
    """Tabulate sublevel counts over growing balls for each threshold R.

    The thresholds must be distinct nonnegative integers.  d_T(v, gamma v)
    equals the t-length of the normal form (distance consistency is itself
    a tested invariant).  With the image as integers num / den, den > 0, an
    element counts for each R >= max(t-length, |k|, ceil(max |num| / den)),
    found by bisection; one whose t-length exceeds every R is not imaged.
    """
    given = list(r_grid)
    r_grid = [int(r) for r in given if isinstance(r, Integral)
              and not isinstance(r, bool) and r >= 0]
    if len(set(r_grid)) != len(given):
        raise ValueError(f"thresholds must be distinct nonnegative "
                         f"integers, got {given}")
    order = sorted(r_grid)
    top = order[-1] if order else -1
    counts = {r: [] for r in r_grid}
    hits = [0] * (len(order) + 1)  # elements so far by the first R they meet
    keys, depth, ball = _columns(lmax, spec, ball)
    for sphere in keys:
        for key in sphere:
            if (m := depth[key[0]]) <= top:  # m the t-length
                k, num, den = ball_image(key, ball)
                hits[bisect_left(order, max(
                    m, abs(k), -(-max(map(abs, num)) // den)))] += 1
        for r, c in zip(order, accumulate(hits)):
            counts[r].append(c)
    stabilized = {
        r: len(counts[r]) >= 3 and counts[r][-1] == counts[r][-3]
        for r in r_grid}
    return PropernessProfile(lmax, r_grid, counts, stabilized)

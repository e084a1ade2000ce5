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

from .affine import ball_images, j_affine
from .presentation import GroupSpec
from .tree import bfs_spheres
from .words import NormalForm, T, X, nf_append, sphere_key
from .arith import zero_vector


def generator_letters(spec: GroupSpec) -> list:
    """The letter set {x^{+-e_i}, t, t^-1} used for word-length balls."""
    letters = []
    for i in range(spec.n):  # each letter beside its inverse
        e = tuple(int(j == i) for j in range(spec.n))
        letters += [X(e), X(tuple(-c for c in e))]
    return letters + [T(1), T(-1)]


class GroupBall:
    """All group elements of word length <= radius, deduped by normal form.

    ``spheres[L]`` holds the elements whose minimal word length is exactly
    L; ``elements`` is their concatenation, and ``images[L]`` the affine
    images (k, num, den) of ``spheres[L]`` under ``spec`` as ``ball_images``
    yields them; both are built on first use and dropped with the ball.
    """

    def __init__(self, radius: int, spheres: list, spec: GroupSpec):
        self.radius, self.spheres, self.spec = radius, spheres, spec

    @cached_property
    def elements(self) -> tuple:
        return tuple(nf for sphere in self.spheres for nf in sphere)

    @cached_property
    def images(self) -> list:
        return list(ball_images(self.spheres, self.spec))

    def __len__(self) -> int:
        return sum(len(s) for s in self.spheres)


def enumerate_ball(L: int, spec: GroupSpec, *,
                   max_length: int | None = None) -> GroupBall:
    """BFS over generator letters, deduplicated by normal form; letter i ^ 1
    inverts letter i, so is never appended where letter i led, nor are the
    x-letters 0..i-1 where x-letter i led first (they commute, see
    ``bfs_spheres``); t-appends share one ``nf_append`` table per call."""
    moves = [(1 << i, letter, 1 << (i ^ 1),
              1 << (i ^ 1) | ((1 << i) - 1 if i < 2 * spec.n else 0))
             for i, letter in enumerate(generator_letters(spec))]
    table = {}
    spheres = bfs_spheres(
        NormalForm((), zero_vector(spec.n)), L, moves,
        lambda nf, a: nf_append(nf, a, spec, table),
        max_length, default=12 if spec.n == 1 else 8, key=sphere_key())
    return GroupBall(L, spheres, spec)


def _require_datum(ball: GroupBall, spec: GroupSpec) -> None:
    """Refuse, with ValueError, a ball enumerated for another (A, B)."""
    if (ball.spec.A, ball.spec.B) != (spec.A, spec.B):
        raise ValueError(f"the given ball is of {ball.spec!r}, not {spec!r}")


def ball_columns(lmax: int, spec: GroupSpec, ball: GroupBall | None) -> zip:
    """(sphere, images) pairs for the spheres 0..lmax of the given ball, or
    of a fresh one if none is given; a ball of another datum, or lmax
    outside 0..ball.radius, raises ValueError."""
    if ball is None:
        ball = enumerate_ball(lmax, spec)
    _require_datum(ball, spec)
    if not 0 <= lmax <= ball.radius:
        raise ValueError(f"lmax = {lmax} is outside 0..{ball.radius}, "
                         "the radius of the given ball")
    return zip(ball.spheres[:lmax + 1], ball.images[:lmax + 1])


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
    """Every nontrivial element either moves the base vertex or has a
    nontrivial affine image (and fixing elements must be pure x-powers)."""
    _require_datum(ball, spec)
    report = CheckReport("injectivity", len(ball), [])
    for nf in ball.elements:
        if nf.is_identity or nf.vertex:
            continue
        if nf.t_length != 0:
            report.violations.append(
                f"{nf}: fixes the base vertex but has t-length {nf.t_length}")
        elif j_affine(nf, spec).is_identity:
            report.violations.append(
                f"{nf}: nontrivial but invisible to both coordinates")
    return report


def check_stabilizer(ball: GroupBall, spec: GroupSpec) -> CheckReport:
    """{gamma : gamma v = v} must equal {gamma : t-length 0}, elementwise."""
    _require_datum(ball, spec)
    report = CheckReport("stabilizer", len(ball), [])
    for nf in ball.elements:
        fixes = not nf.vertex
        in_g = nf.t_length == 0
        if fixes != in_g:
            report.violations.append(
                f"{nf}: fixes base = {fixes}, t-length = {nf.t_length}")
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
    found by bisection; one whose t-length exceeds every R is not read.
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
    for sphere, images in ball_columns(lmax, spec, ball):
        for nf, (k, num, den) in zip(sphere, images):
            m = len(nf.vertex)  # the t-length
            if m <= top:
                hits[bisect_left(order, max(
                    m, abs(k), -(-max(map(abs, num)) // den)))] += 1
        for r, c in zip(order, accumulate(hits)):
            counts[r].append(c)
    stabilized = {
        r: len(counts[r]) >= 3 and counts[r][-1] == counts[r][-3]
        for r in r_grid}
    return PropernessProfile(lmax, r_grid, counts, stabilized)

"""The HNN datum defining a generalized Baumslag-Solitar group over Z^n.

Convention, fixed once for every module: the stable relation is

    t x^{B z} t^{-1} = x^{A z}        (for all z in Z^n)

so that for n = 1 the classical group BS(p, q) = <x, t | x^p = t x^q t^-1>
is the datum A = (p), B = (q).
"""

from __future__ import annotations

from fractions import Fraction

from .arith import ConfigurationError, IntMatrix, Lattice


class GroupSpec:
    """Validated HNN datum (n, A, B) and the constants derived from it in
    __init__; residues are not held but read from the two lattices where
    needed.  Immutable after construction; safe to share between tasks."""

    def __init__(self, A: IntMatrix, B: IntMatrix):
        if A.n != B.n:
            raise ConfigurationError(
                f"dimension mismatch: A is {A.n}x{A.n}, B is {B.n}x{B.n}")
        if A.det == 0 or B.det == 0:
            raise ConfigurationError(
                f"HNN matrices must be nonsingular: det A = {A.det}, "
                f"det B = {B.det}")
        self.n = A.n
        self.A = A
        self.B = B
        self.lattice_a = Lattice(A)
        self.lattice_b = Lattice(B)
        # the carry B h (resp. A h) of a Britton split is C_eps k for the
        # Hermite quotients k (h = U_A k resp. U_B k), formed by decompose
        self.carry = {1: B @ self.lattice_a.unimodular,
                      -1: A @ self.lattice_b.unimodular}
        # Lambda = A B^-1 generates the Z-action on the rational span.  As
        # integer pairs over a positive denominator: Lambda = M/d with
        # M = s A adj B, d = |det B|, s = sign det B, and Lambda^-1 = M'/d'
        # from B adj A and det A the same way.
        self.lam_int = {}
        for eps, P, lat in ((1, A, self.lattice_b), (-1, B, self.lattice_a)):
            s = 1 if lat.det > 0 else -1
            M = tuple(tuple(s * x for x in r) for r in (P @ lat.adjugate).rows)
            self.lam_int[eps] = (IntMatrix(M), abs(lat.det))

    @property
    def lam_scalar(self) -> Fraction:
        """Lambda as a fraction; only meaningful for n = 1."""
        if self.n != 1:
            raise ConfigurationError("lam_scalar requires n = 1")
        M, d = self.lam_int[1]
        return Fraction(M.rows[0][0], d)

    def __repr__(self) -> str:
        return f"GroupSpec(n={self.n}, A={self.A}, B={self.B})"


def make_bs(p: int, q: int) -> GroupSpec:
    """BS(p, q) = <x, t | x^p = t x^q t^-1> as a 1-dimensional datum."""
    if p == 0 or q == 0:
        raise ConfigurationError(f"BS parameters must be nonzero: ({p}, {q})")
    return GroupSpec(IntMatrix.scalar(p), IntMatrix.scalar(q))


def make_matrix_group(A, B) -> GroupSpec:
    """General datum from two nonsingular integer matrices of equal size."""
    if not isinstance(A, IntMatrix):
        A = IntMatrix.from_rows(A)
    if not isinstance(B, IntMatrix):
        B = IntMatrix.from_rows(B)
    return GroupSpec(A, B)


def spec_from_dict(data: dict) -> GroupSpec:
    """Build a GroupSpec from the {"n": ..., "A": ..., "B": ...} schema."""
    try:
        n = data["n"]
        if type(n) is not int:
            raise ConfigurationError(f"n is not an integer: {n!r}")
        A = IntMatrix.from_rows(data["A"])
        B = IntMatrix.from_rows(data["B"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad group file: {exc}") from exc
    if A.n != n:
        raise ConfigurationError(
            f"declared dimension n={n} does not match matrix size {A.n}")
    return make_matrix_group(A, B)

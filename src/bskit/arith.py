"""Exact integer linear algebra and lattice residue systems.

Everything in this module is arbitrary-precision integer arithmetic.  No
floating point anywhere; coset canonicalization and the rewriting engine
built on top of it are exact-equality algorithms.
"""

from __future__ import annotations

import itertools
import operator
from typing import NamedTuple


class ConfigurationError(ValueError):
    """Invalid group datum: singular matrix, bad dimension, zero parameter."""


IntVector = tuple  # tuple[int, ...]


def _wrong_size(z: IntVector, n: int) -> ConfigurationError:
    """The error for a vector that is not in Z^n."""
    return ConfigurationError(f"dimension mismatch: {z} in Z^{n}")


def zero_vector(n: int) -> IntVector:
    return (0,) * n


def vec_add(u, v):
    return tuple(map(operator.add, u, v))


def vec_neg(u):
    return tuple(-a for a in u)


class IntMatrix(NamedTuple):
    """A square integer matrix, stored as a tuple of row tuples."""

    rows: tuple

    @staticmethod
    def from_rows(rows) -> "IntMatrix":
        rows = tuple(tuple(r) for r in rows)
        for x in itertools.chain.from_iterable(rows):
            if type(x) is not int:  # no float, str or bool entries
                raise ConfigurationError(
                    f"matrix entry is not an integer: {x!r}")
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ConfigurationError(f"matrix is not square: {rows!r}")
        return IntMatrix(rows)

    @staticmethod
    def scalar(m: int) -> "IntMatrix":
        return IntMatrix.from_rows(((m,),))

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def det(self) -> int:
        # Bareiss fraction-free elimination; exact for any size.
        a = [list(r) for r in self.rows]
        n = len(a)
        sign = 1
        prev = 1
        for i in range(n - 1):
            if a[i][i] == 0:
                for j in range(i + 1, n):
                    if a[j][i]:
                        a[i], a[j] = a[j], a[i]
                        sign = -sign
                        break
                else:
                    return 0
            for j in range(i + 1, n):
                for k in range(i + 1, n):
                    a[j][k] = (a[j][k] * a[i][i] - a[j][i] * a[i][k]) // prev
                a[j][i] = 0
            prev = a[i][i]
        return sign * a[n - 1][n - 1]

    def apply(self, z: IntVector) -> IntVector:
        if len(z) != len(self.rows):
            raise ConfigurationError(
                f"dimension mismatch: matrix is {self.n}x{self.n}, "
                f"vector has {len(z)} coordinates")
        return tuple([sum(map(operator.mul, r, z)) for r in self.rows])

    def adjugate(self) -> "IntMatrix":
        """The integer matrix adj M = det M * M^-1, from cofactors."""
        n = self.n

        def cofactor(i, j):
            minor = tuple(tuple(x for c, x in enumerate(r) if c != j)
                          for k, r in enumerate(self.rows) if k != i)
            # the empty minor of a 1x1 matrix has determinant 1
            return (-1) ** (i + j) * (IntMatrix(minor).det if minor else 1)
        return IntMatrix(tuple(tuple(cofactor(j, i) for j in range(n))
                               for i in range(n)))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        cols = tuple(zip(*other.rows))
        return IntMatrix(tuple(tuple(sum(map(operator.mul, r, c))
                                     for c in cols) for r in self.rows))

    def __str__(self) -> str:
        return "[" + ", ".join("[" + ", ".join(map(str, r)) + "]"
                               for r in self.rows) + "]"


# ---------------------------------------------------------------------------
# Hermite normal form and residue systems

def column_hnf(M: IntMatrix) -> IntMatrix:
    """Column-style Hermite normal form of a nonsingular integer matrix.

    Returns a lower-triangular H with positive diagonal and H Z^n = M Z^n
    (only unimodular column operations are used).
    """
    if M.det == 0:
        raise ConfigurationError(f"singular matrix: {M}")
    n = M.n
    cols = [[M.rows[r][c] for r in range(n)] for c in range(n)]
    for i in range(n):
        while True:
            j_min = min((j for j in range(i, n) if cols[j][i] != 0),
                        key=lambda j: abs(cols[j][i]))
            cols[i], cols[j_min] = cols[j_min], cols[i]
            done = True
            for j in range(i + 1, n):
                if cols[j][i]:
                    q = cols[j][i] // cols[i][i]
                    cols[j] = [a - q * b for a, b in zip(cols[j], cols[i])]
                    if cols[j][i]:
                        done = False
            if done:
                break
        if cols[i][i] < 0:
            cols[i] = [-a for a in cols[i]]
    return IntMatrix(tuple(tuple(cols[c][r] for c in range(n))
                           for r in range(n)))


class Lattice:
    """The sublattice M Z^n of Z^n with its canonical transversal.

    The canonical representative of z is obtained by reducing z against
    the column Hermite form H = M U of M, pivot by pivot, into the
    half-open box [0, pivot); the quotients k give z = H k + r, and
    z = M h + r for h = U k.  Solving is integer-only: M h = z has the
    unique solution h = adj(M) z / det M, which is integral iff every
    coordinate of adj(M) z is divisible by det M.  Immutable after
    construction.
    """

    def __init__(self, M: IntMatrix):
        self.n = M.n
        self.hnf = column_hnf(M)  # refuses a singular M
        self.det = M.det
        self.adjugate = M.adjugate()
        # the unimodular U with H = M U is adj(M) H / det M
        self.unimodular = IntMatrix(tuple(
            tuple(x // self.det for x in r)
            for r in (self.adjugate @ self.hnf).rows))
        assert M @ self.unimodular == self.hnf, "H is not M times an integer U"
        # the pivot plan: (i, H[i][i]) and the nonzero (j, H[j][i]) below it
        H = self.hnf.rows
        self._pivots = tuple(
            (i, H[i][i], tuple((j, H[j][i]) for j in range(i + 1, self.n)
                               if H[j][i]))
            for i in range(self.n))

    def solve(self, z: IntVector):
        """Integer h with M h = z, or None if z is outside the lattice."""
        qr = [divmod(v, self.det) for v in self.adjugate.apply(z)]
        return None if any(r for _, r in qr) else tuple(q for q, _ in qr)

    def decompose(self, z: IntVector, C: IntMatrix):
        """(r, C k) for the unique z = H k + r with r canonical, from one
        pass of the pivot loop: C = I gives k, C = ``unimodular`` gives h
        with z = M h + r."""
        if len(z) != self.n:
            raise _wrong_size(z, self.n)
        r = list(z)
        carry = [0] * self.n
        for i, d, below in self._pivots:
            q = r[i] // d
            if q:
                r[i] -= q * d
                for j, h in below:
                    r[j] -= q * h
                for j, c in enumerate(C.rows):
                    carry[j] += q * c[i]
        return tuple(r), tuple(carry)

    def residues(self) -> tuple:
        """All |det M| canonical residues of Z^n mod M Z^n, zero first."""
        H = self.hnf.rows
        return tuple(itertools.product(*(range(H[i][i])
                                         for i in range(self.n))))

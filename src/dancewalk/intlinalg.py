"""Exact integer linear algebra.

Everything here runs in arbitrary-precision integer arithmetic; there is
no floating point and no overflow.  Two elimination kernels serve it.
The row-Hermite kernel ``_hnf`` brings rows to canonical Hermite form
in place, carrying a unimodular transform when given one.  It gives the
Hermite basis of a lattice (``lattice_basis``) and the Smith diagonal
with its column transform (``snf``, alternating Hermite passes on the
rows and the columns).  The Smith diagonal is unique;
the column transform ``v`` is valid but not canonical.  The
fraction-free Gauss-Jordan kernel ``_bareiss`` gives, in one pass over
a square matrix, its determinant, its leading principal minors and its
adjugate.  The "twist" that moves a finite point set of affine
dimension d into the first d coordinates of the ambient lattice,
``twist_to_coordinates``, is the transform of one Hermite pass over the
differences of the points.

Conventions: lattices are spanned by the *rows* of their basis
matrices; automorphisms act on *column* vectors.  The canonical Hermite
form used throughout is row-style with positive pivots and entries above
each pivot reduced into [0, pivot).
"""

from __future__ import annotations

from operator import index

from ._errors import InvariantViolationError
from ._value import Value


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def _elim_pair(a: int, b: int) -> tuple[int, int, int, int]:
    """Coefficients (x, y, bg, ag) of the unimodular 2x2 [[x, y], [-bg, ag]]
    sending (a, b) to (g, 0) with g = gcd.

    When a divides b the transform is a plain shear that leaves the pivot
    untouched; otherwise the general Bezout transform strictly shrinks the
    pivot to the gcd.  The shear case is what guarantees termination of the
    alternating row/column Hermite passes in the Smith reduction.
    """
    if b % a == 0:
        return 1, 0, b // a, 1
    g, x, y = _egcd(a, b)
    return x, y, b // g, a // g


def _eye(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _hnf(h: list[list[int]], cols: int, u: list[list[int]] | None = None) -> None:
    """Bring the rows h to canonical row Hermite form in place.

    Given u, every unimodular row operation is applied to its rows as
    well, so a transform t with t @ h0 = u0 becomes one with t @ h0 = u.
    """
    mats = (h,) if u is None else (h, u)
    n = len(h)
    pivot_row = 0
    for col in range(cols):
        if pivot_row >= n:
            break
        piv = next((i for i in range(pivot_row, n) if h[i][col]), None)
        if piv is None:
            continue
        for mat in mats:
            mat[pivot_row], mat[piv] = mat[piv], mat[pivot_row]
        for i in range(pivot_row + 1, n):
            if not h[i][col]:
                continue
            x, y, bg, ag = _elim_pair(h[pivot_row][col], h[i][col])
            # rows <- [[x, y], [-bg, ag]] @ rows, a unimodular 2x2 block.
            for mat in mats:
                rp, ri = mat[pivot_row], mat[i]
                mat[pivot_row] = [x * p + y * q for p, q in zip(rp, ri)]
                mat[i] = [-bg * p + ag * q for p, q in zip(rp, ri)]
        if h[pivot_row][col] < 0:
            for mat in mats:
                mat[pivot_row] = [-e for e in mat[pivot_row]]
        p = h[pivot_row][col]
        for i in range(pivot_row):
            q = h[i][col] // p
            if q:
                for mat in mats:
                    mat[i] = [e - q * f for e, f in zip(mat[i], mat[pivot_row])]
        pivot_row += 1


def _bareiss(rows: list[list[int]], n: int) -> tuple[list[int], int]:
    """Fraction-free Gauss-Jordan elimination in place on the first n
    columns of the n rows ``rows`` (Bareiss, 1968).

    Returns (lead, det): lead[k] is the pivot at step k, read before a
    row is swapped in for a zero pivot, so lead starts with the leading
    principal minors of A up to the first zero one.  With no pivot left
    det = 0; otherwise the rows end as det * I and adj(A) times the rest.
    """
    lead, prev, sign = [], 1, 1
    for k in range(n):
        lead.append(rows[k][k])
        if not rows[k][k]:
            piv = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if piv is None:
                return lead, 0
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        rk = rows[k]
        p = rk[k]
        for i in range(n):
            if i != k:
                c = rows[i][k]
                rows[i] = [(p * e - c * f) // prev for e, f in zip(rows[i], rk)]
        prev = p
    if sign < 0:  # the pass ran on the row-swapped matrix, whose determinant is -det
        rows[:] = [[-e for e in r] for r in rows]
    return lead, sign * prev


class IntMatrix(Value):
    """Immutable integer matrix with exact arithmetic."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data, cols: int | None = None):
        rows = tuple(tuple(index(e) for e in row) for row in data)
        if rows:
            widths = {len(r) for r in rows}
            if len(widths) != 1:
                raise ValueError("ragged rows")
            (width,) = widths
            if cols is not None and cols != width:
                raise ValueError("cols does not match row width")
            cols = width
        elif cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        self._set(len(rows), cols, rows)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(_eye(n), cols=n)

    @classmethod
    def diag(cls, entries) -> "IntMatrix":
        entries = list(entries)
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)], cols=n)

    def __getitem__(self, ij) -> int:
        i, j = ij
        return self.data[i][j]

    def mul_vec(self, v) -> tuple[int, ...]:
        """Apply to a column vector: returns self * v."""
        v = tuple(v)
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(r[k] * v[k] for k in range(self.cols)) for r in self.data)

    def det(self) -> int:
        """Exact determinant via fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        return _bareiss([list(r) for r in self.data], self.rows)[1]

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.data]!r})"


class UnimodularMatrix(Value):
    """A square integer matrix with determinant +1 or -1."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: IntMatrix):
        if matrix.rows != matrix.cols:
            raise ValueError("unimodular matrix must be square")
        if matrix.det() not in (1, -1):
            raise ValueError("determinant is not a unit")
        self._set(matrix)

    def __repr__(self) -> str:
        return f"UnimodularMatrix({self.matrix!r})"


def lattice_basis(vectors, cols: int) -> tuple[tuple[int, ...], ...]:
    """Hermite basis rows of the lattice spanned by ``vectors`` in Z^cols.

    One Hermite pass over the vectors as rows, with no transform, so the
    cost is linear in their number.
    """
    h = [list(v) for v in vectors]
    _hnf(h, cols)
    return tuple(tuple(r) for r in h if any(r))


def snf(m: IntMatrix) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Smith normal form (diagonal, vt): m @ v = u^(-1) @ diag(d) for a
    unimodular u that is not built, with vt the rows of v transposed.

    Hermite passes alternate on the rows and on the columns (a row pass
    on the transpose) until the matrix is diagonal; where d_i does not
    divide d_j, column j is added into column i and the passes resume
    (Kannan and Bachem, 1979).  The diagonal d_1 | d_2 | ... has
    min(rows, cols) entries and is unique; v is valid but not canonical.
    """
    nr, nc = m.rows, m.cols
    a, vt = [list(r) for r in m.data], _eye(nc)
    while True:
        _hnf(a, nc)
        if any(e for i, row in enumerate(a) for j, e in enumerate(row) if i != j):
            at = [list(c) for c in zip(*a)]
            _hnf(at, nr, vt)
            a = [list(r) for r in zip(*at)]
            continue
        # diagonal, positive entries first: pull in any d_j that d_i does not divide
        n = min(nr, nc)
        pair = next(((i, j) for i in range(n) for j in range(i + 1, n)
                     if a[i][i] and a[j][j] % a[i][i]), None)
        if pair is None:
            break
        i, j = pair
        a[j][i] = a[j][j]  # column i += column j
        vt[i] = [p + q for p, q in zip(vt[i], vt[j])]
    v = UnimodularMatrix(IntMatrix(vt, cols=nc))  # det vt = det v
    return tuple(a[i][i] for i in range(n)), v.matrix.data


class AffinePointSet(Value):
    """A finite set of integer points in Z^(ambient_dim)."""

    __slots__ = ("ambient_dim", "points")

    def __init__(self, ambient_dim: int, points):
        ambient_dim = index(ambient_dim)
        pts = tuple(sorted({tuple(index(c) for c in p) for p in points}))
        if any(len(p) != ambient_dim for p in pts):
            raise ValueError("point dimension mismatch")
        self._set(ambient_dim, pts)


def affine_dim(s: AffinePointSet) -> int:
    """Dimension of the affine span: rank over Q of {x - x0 : x in s}.

    Independent of the choice of x0; we fix the lexicographically least
    point for determinism.
    """
    if not s.points:
        raise ValueError("empty point set has no affine dimension")
    x0 = s.points[0]
    diffs = [tuple(a - b for a, b in zip(p, x0)) for p in s.points[1:]]
    if not diffs:
        return 0
    return len(lattice_basis(diffs, s.ambient_dim))


class TwistResult(Value):
    """phi in Aut(Z^k) sends the point set into Z^d x {w}."""

    __slots__ = ("phi", "w", "d")

    def __init__(self, phi: UnimodularMatrix, w: tuple[int, ...], d: int):
        self._set(phi, w, d)


def twist_to_coordinates(s: AffinePointSet) -> TwistResult:
    """Align a d-dimensional point set with the first d coordinates.

    Produces phi in Aut(Z^k) and w in Z^(k-d) with phi(s) contained in
    Z^d x {w}, where d = affine_dim(s), and with the projection of
    phi(s) onto the first d coordinates genuinely d-dimensional.  One
    Hermite pass on the k x (|s| - 1) matrix whose columns are the
    differences x - x0, carrying an identity transform, gives phi as that
    transform: phi(x - x0) is a column of the Hermite form, whose d
    nonzero rows come first, so phi(x) agrees with phi(x0) on the last
    k - d axes.  When d = k the identity is returned with empty w.
    """
    if not s.points:
        raise ValueError("empty point set")
    k, (x0, *rest) = s.ambient_dim, s.points
    h, phi = [[x[i] - x0[i] for x in rest] for i in range(k)], _eye(k)
    _hnf(h, len(rest), phi)
    d = sum(map(any, h))
    if any(map(any, h[d:])):  # so rows 0..d-1 are the d nonzero ones
        raise InvariantViolationError("a zero Hermite row lies above a nonzero one")
    if d == k:
        phi = _eye(k)
    w = tuple(sum(c * e for c, e in zip(row, x0)) for row in phi[d:])
    return TwistResult(UnimodularMatrix(IntMatrix(phi, cols=k)), w, d)

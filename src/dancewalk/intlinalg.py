"""Exact integer linear algebra.

Everything here runs in arbitrary-precision integer arithmetic; there is
no floating point and no overflow.  Two elimination kernels serve it.
The row-Hermite kernel ``_hnf`` gives the two canonical lattice normal
forms (Hermite, and Smith by alternating Hermite passes on the rows and
the columns) with their unimodular transforms, and integer inverses.
The Smith diagonal is unique; its transforms ``u`` and ``v`` are valid
but not canonical.  The fraction-free Gauss-Jordan kernel ``_bareiss``
gives, in one pass over a square matrix, its determinant, its leading
principal minors and its adjugate.  On top of these sit the "twisting"
constructions used to move a finite point set of affine dimension d
into the first d coordinates of the ambient lattice:

* ``bottom_row_unimodular`` completes an integer vector a to a square
  matrix with bottom row a and determinant gcd(a); its Euclidean row
  operations (``_complete``) can be applied to any rows.
* ``twist_to_coordinates`` finds an automorphism of Z^k sending a point
  set into Z^d x {w} with a genuinely d-dimensional shadow on the first
  d coordinates, pressing one trailing coordinate at a time by applying
  a completion to the rows of the automorphism and of the points at once.

Conventions: lattices are spanned by the *rows* of their basis
matrices; automorphisms act on *column* vectors.  The canonical Hermite
form used throughout is row-style with positive pivots and entries above
each pivot reduced into [0, pivot).
"""

from __future__ import annotations

from math import gcd
from operator import index

from ._value import Value


class InvariantViolationError(RuntimeError):
    """An internal postcondition failed; indicates a bug, not bad input."""


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
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls([[0] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def diag(cls, entries) -> "IntMatrix":
        entries = list(entries)
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)], cols=n)

    def __getitem__(self, ij) -> int:
        i, j = ij
        return self.data[i][j]

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        od = other.data
        out = []
        for r in self.data:
            out.append(
                [sum(r[k] * od[k][j] for k in range(self.cols)) for j in range(other.cols)]
            )
        return IntMatrix(out, cols=other.cols)

    def mul_vec(self, v) -> tuple[int, ...]:
        """Apply to a column vector: returns self * v."""
        v = tuple(v)
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(r[k] * v[k] for k in range(self.cols)) for r in self.data)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
        )

    def det(self) -> int:
        """Exact determinant via fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        return _bareiss([list(r) for r in self.data], self.rows)[1]

    def inverse(self) -> "IntMatrix":
        """Exact inverse; requires the inverse to be integral (det = +-1).

        It is the Hermite transform u with u @ self = I, since the
        Hermite form of a unimodular matrix is the identity.
        """
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        h, u = [list(r) for r in self.data], _eye(self.rows)
        _hnf(h, self.cols, u)
        if h != _eye(self.rows):
            raise ValueError("matrix has no integral inverse")
        return IntMatrix(u, cols=self.cols)

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.data]!r})"


class UnimodularMatrix(Value):
    """A square integer matrix with determinant +1 or -1."""

    __slots__ = ("matrix", "_inv")

    def __init__(self, matrix: IntMatrix):
        if matrix.rows != matrix.cols:
            raise ValueError("unimodular matrix must be square")
        if matrix.det() not in (1, -1):
            raise ValueError("determinant is not a unit")
        self._set(matrix)
        object.__setattr__(self, "_inv", None)

    @property
    def inverse(self) -> IntMatrix:
        if self._inv is None:
            object.__setattr__(self, "_inv", self.matrix.inverse())
        return self._inv

    def __repr__(self) -> str:
        return f"UnimodularMatrix({self.matrix!r})"


class HnfDecomposition(Value):
    """u @ (input) = h with h in canonical row Hermite form."""

    __slots__ = ("h", "u")

    def __init__(self, h: IntMatrix, u: UnimodularMatrix):
        self._set(h, u)

    @property
    def pivots(self) -> tuple[tuple[int, int], ...]:
        """(row, col) positions of the pivots of h."""
        out = []
        for i, row in enumerate(self.h.data):
            for j, e in enumerate(row):
                if e:
                    out.append((i, j))
                    break
        return tuple(out)

    @property
    def nonzero_rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(r for r in self.h.data if any(r))


class SnfDecomposition(Value):
    """u @ (input) @ v = d, d diagonal nonnegative with d1 | d2 | ..."""

    __slots__ = ("u", "d", "v")

    def __init__(self, u: UnimodularMatrix, d: IntMatrix, v: UnimodularMatrix):
        self._set(u, d, v)

    @property
    def diagonal(self) -> tuple[int, ...]:
        n = min(self.d.rows, self.d.cols)
        return tuple(self.d[i, i] for i in range(n))


def hnf(m: IntMatrix) -> HnfDecomposition:
    """Row Hermite normal form with transform.

    Pivots are positive, entries above a pivot are reduced into
    [0, pivot), zero rows sink to the bottom.  Two matrices have equal
    row span over Z exactly when their canonical forms agree.
    """
    h, u = [list(r) for r in m.data], _eye(m.rows)
    _hnf(h, m.cols, u)
    return HnfDecomposition(IntMatrix(h, cols=m.cols), UnimodularMatrix(IntMatrix(u, cols=m.rows)))


def lattice_basis(vectors, cols: int) -> tuple[tuple[int, ...], ...]:
    """Hermite basis rows of the lattice spanned by ``vectors`` in Z^cols.

    One Hermite pass over the vectors as rows, with no transform, so the
    cost is linear in their number.
    """
    h = [list(v) for v in vectors]
    _hnf(h, cols)
    return tuple(tuple(r) for r in h if any(r))


def snf(m: IntMatrix) -> SnfDecomposition:
    """Smith normal form with both transforms: u @ m @ v = d.

    Hermite passes alternate on the rows and on the columns (a row pass
    on the transpose) until the matrix is diagonal; where d_i does not
    divide d_j, column j is added into column i and the passes resume
    (Kannan and Bachem, 1979).  The diagonal is unique; u and v are
    valid transforms but not canonical.
    """
    nr, nc = m.rows, m.cols
    a, u, vt = [list(r) for r in m.data], _eye(nr), _eye(nc)  # vt is v transposed
    while True:
        _hnf(a, nc, u)
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
    return SnfDecomposition(
        UnimodularMatrix(IntMatrix(u, cols=nr)),
        IntMatrix(a, cols=nc),
        UnimodularMatrix(IntMatrix(list(zip(*vt)), cols=nc)),
    )


def _complete(a, rows: list[list[int]]) -> int:
    """Apply to rows 0..k-1 of ``rows`` the row operations that complete
    ``a`` (k = len(a) >= 1) and return gcd(a).

    The Euclidean algorithm shrinks a copy of ``a`` to (0, ..., 0, g) by
    column operations Q, whose inverses are applied to the rows as row
    operations; row 0 is then scaled by det(Q) and row k-1 by g.  On the
    identity this builds the completion of ``bottom_row_unimodular``.
    """
    b, k, q_sign = list(a), len(a), 1  # q_sign is det Q for the column operations Q so far
    for j in range(1, k):
        # Reduce the pair (b[j-1], b[j]) until b[j-1] = 0, b[j] = gcd so far.
        while b[j - 1]:
            if b[j]:
                # column j-1 -= s * column j, so Q^(-1) gains s * row j-1 in row j
                s = b[j - 1] // b[j]
                b[j - 1] -= s * b[j]
                rows[j] = [e + s * f for e, f in zip(rows[j], rows[j - 1])]
            if b[j - 1]:
                b[j - 1], b[j] = b[j], b[j - 1]
                rows[j - 1], rows[j] = rows[j], rows[j - 1]
                q_sign = -q_sign
    if b[k - 1] < 0:
        # Sign-fixing column scale, tracked so det Q stays known.
        b[k - 1] = -b[k - 1]
        rows[k - 1] = [-e for e in rows[k - 1]]
        q_sign = -q_sign
    g = b[k - 1]
    rows[0] = [q_sign * e for e in rows[0]]
    rows[k - 1] = [g * e for e in rows[k - 1]]
    return g


def bottom_row_unimodular(a) -> IntMatrix:
    """Complete a nonzero integer vector to a square matrix.

    The result M is k x k with bottom row exactly ``a`` and
    det(M) = gcd(a); in particular M is unimodular when the entries of
    ``a`` are coprime.  M is ``_complete`` applied to the identity:
    M = M' @ Q^(-1), where Q are the Euclidean column operations that
    shrink a to (0, ..., 0, g) and M' is the identity with det(Q) in its
    corner and bottom row (0, ..., 0, g).  When k = 1 the bottom row
    forces det(M) = a[0], so for a negative singleton the determinant is
    -gcd(a).
    """
    a = [index(e) for e in a]
    k = len(a)
    if k == 0 or all(e == 0 for e in a):
        raise ValueError("vector must be nonzero")
    if k == 1:
        return IntMatrix([a])
    rows = _eye(k)
    g = _complete(a, rows)
    m = IntMatrix(rows, cols=k)
    if list(m.data[k - 1]) != a or m.det() != g:
        raise InvariantViolationError("bottom-row completion failed its contract")
    return m


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


def _primitive_orthogonal(rows, k: int) -> tuple[int, ...]:
    """A primitive integer vector orthogonal to the Hermite rows ``rows``.

    Exists whenever the rows do not span Q^k.  It is the rational null
    vector with 1 at the last non-pivot column of the rows and 0 at the
    other non-pivot columns, made primitive with a positive first entry;
    every echelon basis of the row space has the same pivots, so the
    vector depends only on that space.  Back substitution scales it by
    the least factor that keeps each entry integral, so it stays primitive.
    """
    pivots = [next(j for j, e in enumerate(row) if e) for row in rows]
    free = max(set(range(k)) - set(pivots), default=None)
    if free is None:
        raise ValueError("rows span the whole space; no orthogonal vector")
    a = [int(j == free) for j in range(k)]
    for row, col in reversed(list(zip(rows, pivots))):
        s = sum(row[j] * a[j] for j in range(col + 1, k))
        g = gcd(s, row[col])
        a = [e * (row[col] // g) for e in a]  # Hermite pivots are positive
        a[col] = -s // g
    sign = 1 if next(e for e in a if e) > 0 else -1
    return tuple(sign * e for e in a)


class TwistResult(Value):
    """phi in Aut(Z^k) sends the point set into Z^d x {w}."""

    __slots__ = ("phi", "w", "d")

    def __init__(self, phi: UnimodularMatrix, w: tuple[int, ...], d: int):
        self._set(phi, w, d)


def twist_to_coordinates(s: AffinePointSet) -> TwistResult:
    """Align a d-dimensional point set with the first d coordinates.

    Produces phi in Aut(Z^k) and w in Z^(k-d) with phi(s) contained in
    Z^d x {w}, where d = affine_dim(s), and with the projection of
    phi(s) onto the first d coordinates genuinely d-dimensional.  Row i
    of ``rows`` is row i of phi followed by coordinate i of every point.
    For m = k, ..., d+1 the completion of the primitive vector a
    orthogonal to the differences of the leading m coordinates runs on
    rows 0..m-1, pressing coordinate m-1 onto a . x; when d = k the
    identity is returned with empty w.
    """
    if not s.points:
        raise ValueError("empty point set")
    k, n = s.ambient_dim, len(s.points)
    rows = [[int(i == j) for j in range(k)] + [p[i] for p in s.points] for i in range(k)]

    def shadow(m: int) -> tuple[tuple[int, ...], ...]:
        """Hermite basis of the differences of the points' leading m coordinates."""
        return lattice_basis([[r[k + t] - r[k] for r in rows[:m]] for t in range(1, n)], m)

    basis = shadow(k)
    d = len(basis)
    for m in range(k, d, -1):
        a = _primitive_orthogonal(basis, m)
        want = [sum(c * e for c, e in zip(a, col)) for col in zip(*rows[:m])]
        if _complete(a, rows) != 1 or rows[m - 1] != want:
            raise InvariantViolationError("flattening step is not unimodular with bottom row a")
        basis = shadow(m - 1)
    if any(len(set(r[k:])) != 1 for r in rows[d:]):
        raise InvariantViolationError("twist left trailing coordinates non-constant")
    if len(basis) != d:
        raise InvariantViolationError("twisted shadow lost dimension")
    phi = IntMatrix([r[:k] for r in rows], cols=k)
    return TwistResult(UnimodularMatrix(phi), tuple(r[k] for r in rows[d:]), d)

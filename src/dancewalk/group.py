"""Finitely generated abelian groups in coordinate form.

A group is presented as Z_{m1} x ... x Z_{mt} x Z^k.  The moduli are
kept exactly as supplied (so Z_4 x Z_6 stays in its own coordinates for
display and element arithmetic) while the canonical invariant-factor
chain is derived on demand for the analysis report.

Subgroups are encoded as integer lattices in Z^(t+k) that contain the
torsion relation vectors m_i * e_i; membership, index, quotients and
annihilators then all reduce to Hermite/Smith normal-form computations
on the lattice basis.  Because bases are stored in canonical Hermite
form, two equal subgroups have identical representations.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm, prod
from operator import index, mod, mul

from ._errors import UnsupportedOperationError
from ._value import Value
from .intlinalg import IntMatrix, _hnf, lattice_basis, snf


class GroupSpec(Value):
    """Z_{m1} x ... x Z_{mt} x Z^k with the moduli as supplied."""

    __slots__ = ("torsion_moduli", "free_rank")

    def __init__(self, torsion_moduli=(), free_rank: int = 0):
        moduli = tuple(index(m) for m in torsion_moduli)
        if any(m < 2 for m in moduli):
            raise ValueError("torsion moduli must be at least 2")
        free_rank = index(free_rank)
        if free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        self._set(moduli, free_rank)

    @property
    def dim(self) -> int:
        return len(self.torsion_moduli) + self.free_rank

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    @property
    def torsion_order(self) -> int:
        return prod(self.torsion_moduli)

    @property
    def order(self) -> int | None:
        return self.torsion_order if self.is_finite else None

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        """Canonical divisor chain m1 | m2 | ... of the torsion part."""
        return tuple(m for m in snf(IntMatrix.diag(self.torsion_moduli))[0] if m > 1)

    def element(self, torsion=(), free=()) -> "Element":
        return Element(self, tuple(torsion), tuple(free))

    def element_from_coords(self, coords) -> "Element":
        coords = tuple(coords)
        if len(coords) != self.dim:
            raise ValueError("coordinate length mismatch")
        t = len(self.torsion_moduli)
        return Element(self, coords[:t], coords[t:])

    def identity(self) -> "Element":
        return Element(self, (0,) * len(self.torsion_moduli), (0,) * self.free_rank)

    def elements(self):
        """All elements, lazily in lexicographic order.  Finite groups only."""
        return map(self.element_from_coords, whole_group(self).element_coords())

    def torsion_component(self) -> "GroupSpec":
        return GroupSpec(self.torsion_moduli, 0)

    def dual(self) -> "GroupSpec":
        """The character group; for a finite group this is isomorphic to
        the group itself under the standard pairing."""
        if not self.is_finite:
            raise UnsupportedOperationError("only finite duals are represented as groups")
        return GroupSpec(self.torsion_moduli, 0)

    def describe(self) -> str:
        parts = [f"Z_{m}" for m in self.torsion_moduli]
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        return " x ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"GroupSpec({list(self.torsion_moduli)}, {self.free_rank})"


class Element(Value):
    """A group element; torsion residues are always stored reduced."""

    __slots__ = ("group", "torsion", "free")

    def __init__(self, group: GroupSpec, torsion=(), free=()):
        torsion = tuple(index(c) % m for c, m in zip(torsion, group.torsion_moduli, strict=True))
        free = tuple(index(c) for c in free)
        if len(free) != group.free_rank:
            raise ValueError("free part has wrong length")
        self._set(group, torsion, free)

    def coords(self) -> tuple[int, ...]:
        return self.torsion + self.free

    def _check(self, other: "Element"):
        if self.group != other.group:
            raise ValueError("elements live in different groups")

    def __add__(self, other: "Element") -> "Element":
        self._check(other)
        return Element(
            self.group,
            tuple(a + b for a, b in zip(self.torsion, other.torsion)),
            tuple(a + b for a, b in zip(self.free, other.free)),
        )

    def __neg__(self) -> "Element":
        return Element(self.group, tuple(-a for a in self.torsion), tuple(-a for a in self.free))

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def __mul__(self, n: int) -> "Element":
        return Element(self.group, tuple(n * a for a in self.torsion), tuple(n * a for a in self.free))

    __rmul__ = __mul__

    def __lt__(self, other: "Element") -> bool:
        self._check(other)
        return (self.torsion, self.free) < (other.torsion, other.free)

    def __le__(self, other: "Element") -> bool:
        return self == other or self < other

    def __repr__(self) -> str:
        return f"Element({self.torsion + self.free})"


def _relation_rows(g: GroupSpec) -> list[list[int]]:
    rows = []
    for i, m in enumerate(g.torsion_moduli):
        row = [0] * g.dim
        row[i] = m
        rows.append(row)
    return rows


class Subgroup(Value):
    """A subgroup of a GroupSpec, encoded as a canonical integer lattice.

    The lattice lives in Z^(t+k) and always contains m_j * e_j for every
    torsion coordinate, so its image under reduction is a genuine
    subgroup of the parent, and Hermite row j pivots at column j, at a
    divisor h_j of m_j, on each torsion axis j < t.  The basis is square
    (row j pivoting at column j on every axis) exactly when the index is
    finite; index, order and the coset walk read the diagonal h_j.  One
    Smith form is kept for parent / H (quotient_map), one for H itself
    (_coordinates).
    """

    __slots__ = ("parent", "basis", "_quotient", "_coords")

    def __init__(self, parent: GroupSpec, rows):
        all_rows = [list(r) for r in rows] + _relation_rows(parent)
        if any(len(r) != parent.dim for r in all_rows):
            raise ValueError("generator rows have wrong length")
        self._init_hermite(parent, IntMatrix(lattice_basis(all_rows, parent.dim), cols=parent.dim))

    def _init_hermite(self, parent: GroupSpec, basis: IntMatrix) -> "Subgroup":
        """Set the fields from ``basis``, already in canonical Hermite form."""
        self._set(parent, basis)
        object.__setattr__(self, "_quotient", None)
        object.__setattr__(self, "_coords", None)
        return self

    def __repr__(self) -> str:
        return f"Subgroup({self.parent!r}, {[list(r) for r in self.basis.data]})"

    def contains(self, x: Element) -> bool:
        if x.group != self.parent:
            raise ValueError("element lives in a different group")
        return not any(self._image(x.coords()))  # its image in parent / H is 0

    def _image(self, v) -> tuple[int, ...]:
        """The image of a coordinate vector in parent / H under the kept
        projection, its torsion part reduced; residues need not be reduced,
        and a vector shorter than the parent's dimension ends in zeros."""
        spec, proj = self.quotient_map()
        y = [sum(e * c for e, c in zip(row, v)) for row in proj.matrix.data]
        return (*map(mod, y, spec.torsion_moduli), *y[len(spec.torsion_moduli):])

    def index(self) -> int | None:
        """[G : H], or None when the quotient is infinite."""
        if self.basis.rows < self.parent.dim:
            return None
        return prod(row[j] for j, row in enumerate(self.basis.data))

    def rank(self) -> int:
        """Free rank of the subgroup itself."""
        return self.basis.rows - len(self.parent.torsion_moduli)

    def order(self) -> int | None:
        """|H|, or None when the subgroup is infinite."""
        if self.rank() > 0:
            return None
        return self.parent.torsion_order // prod(row[j] for j, row in enumerate(self.basis.data))

    def quotient_invariants(self) -> tuple[tuple[int, ...], int]:
        """Canonical invariants (torsion chain, free rank) of parent / H."""
        q, _ = self.quotient_map()
        return q.torsion_moduli, q.free_rank

    def quotient_map(self) -> tuple[GroupSpec, "Homomorphism"]:
        """The quotient group in canonical form and the projection onto it,
        read from one Smith form computed on first use and kept: with
        basis @ v = u^(-1) @ diag(d), row i of v^T with d_i != 1 projects
        onto Z_{d_i}, or onto Z where d_i = 0 (past the basis rows too)."""
        if self._quotient is None:
            diagonal, vt = snf(self.basis)
            diag = diagonal + (0,) * (self.parent.dim - len(diagonal))  # a divisor chain: zeros last
            spec = GroupSpec([d for d in diag if d > 1], diag.count(0))
            proj = IntMatrix([r for d, r in zip(diag, vt) if d != 1], cols=self.parent.dim)
            object.__setattr__(self, "_quotient", (spec, Homomorphism(self.parent, spec, proj)))
        return self._quotient

    def _coordinates(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...], tuple]:
        """H's own coordinates, H = Z_{e_1} x ... x Z_{e_s} x Z^d, from one
        Smith form kept on first use: (orders, rows, reads), the e_i > 1 then
        d zeros, the axes' images in parent coordinates (residues unreduced,
        a cyclic row with no free part), and the columns of v that
        _coords_of reads.  With the relations m_j * e_j written as M @ basis
        by pivot division and M @ v = u^(-1) @ diag(e), e padded by zeros,
        the relations in the coordinates z @ v of z @ basis are diag(e):
        axis i is Z_{e_i} (Z where e_i = 0, dropped where e_i = 1), and its
        image is row i of v^(-1) @ basis, by one Hermite pass over v."""
        if self._coords is None:
            r = self.basis.rows
            relations = map(self._hermite_coords, _relation_rows(self.parent))
            diagonal, vt = snf(IntMatrix(relations, cols=r))
            v, rows = [list(c) for c in zip(*vt)], [list(b) for b in self.basis.data]
            _hnf(v, r, rows)  # v becomes the identity and rows v^(-1) @ basis
            axes = [(e, tuple(row), col) for e, row, col in
                    zip(diagonal + (0,) * (r - len(diagonal)), rows, vt) if e != 1]
            object.__setattr__(self, "_coords", tuple(zip(*axes)) or ((), (), ()))
        return self._coords

    def _hermite_coords(self, x) -> list[int]:
        """The z with z @ basis = x, for x in the lattice, by pivot division."""
        z = []
        for row in self.basis.data:
            z.append(c := next(x[j] // e for j, e in enumerate(row) if e))  # exact: x in the lattice
            x = [a - c * b for a, b in zip(x, row)]
        return z

    def _coords_of(self, x) -> tuple[int, ...]:
        """H's own coordinates of x in H, given in parent coordinates with
        residues unreduced: the inverse of _coordinates' rows."""
        orders, _, reads = self._coordinates()
        z = self._hermite_coords(x)
        return tuple(c % e if e else c for c, e in zip((sum(map(mul, col, z)) for col in reads),
                                                        orders))

    def coset_order(self, x: Element) -> int | None:
        """Order of x + H in parent/H, or None if infinite."""
        if x.group != self.parent:
            raise ValueError("element lives in a different group")
        moduli = self.quotient_map()[0].torsion_moduli
        y = self._image(x.coords())
        if any(y[len(moduli):]):
            return None
        return lcm(*(m // gcd(c, m) for c, m in zip(y, moduli)))

    def elements(self) -> list[Element]:
        """All elements of a finite subgroup, sorted."""
        return [self.parent.element_from_coords(c) for c in self.element_coords()]

    def element_coords(self, shift=None):
        """Coordinate tuples of the coset H + shift of a finite subgroup (H
        itself when shift is None), a lazy stream in sorted order.

        A finite H has Hermite rows only on the torsion axes (see the class
        docstring), so y_j runs over one progression of step h_j in [0, m_j),
        set by y's earlier coordinates: a walk of depth t - 1 yields each
        head (y_0, ..., y_{t-2}) once and in order, zipped with its last
        progression, a lazy range, so no list of the points is built.
        """
        if self.rank() > 0:
            raise UnsupportedOperationError("subgroup is infinite")
        moduli, rows = self.parent.torsion_moduli, self.basis.data
        t, shift = len(moduli), tuple(shift or (0,) * self.parent.dim)
        if not t:
            return iter([shift])
        h = rows[-1][t - 1]

        def heads(j, head, rest):  # rest[i]: axis j + i of -shift less the rows taken so far
            if j == t - 1:
                return iter([(head, -rest[0] % h)])
            hj, row = rows[j][j], rows[j][j + 1:]
            return (x for y in range(-rest[0] % hj, moduli[j], hj)
                    for x in heads(j + 1, (*head, y), [
                        c - (y + rest[0]) // hj * e for c, e in zip(rest[1:], row)]))

        return itertools.chain.from_iterable(
            zip(*map(itertools.repeat, head), range(start, moduli[-1], h),
                *map(itertools.repeat, shift[t:]))
            for head, start in heads(0, (), [-c for c in shift[:t]]))

    def annihilator(self) -> "Subgroup":
        """Characters of a finite parent that are identically 1 on H.

        Returned as a subgroup of parent.dual() under the pairing
        chi_xi(x) = exp(2 pi i * sum(xi_j x_j / m_j)).  These are the
        characters of parent / H pulled back through the projection pi of
        quotient_map: the i-th character of Z_{d_1} x ... x Z_{d_s} pulls
        back to xi_j = m_j * pi_ij / d_i, an exact division because pi is
        well defined on torsion.
        """
        g = self.parent
        if not g.is_finite:
            raise UnsupportedOperationError(
                "annihilators of subgroups of infinite groups are not finitely "
                "enumerable; use the quotient invariants instead")
        spec, pi = self.quotient_map()
        return Subgroup(g.dual(), [[m * e // d for m, e in zip(g.torsion_moduli, row)]
                                   for d, row in zip(spec.torsion_moduli, pi.matrix.data)])


def subgroup_generated(g: GroupSpec, gens) -> Subgroup:
    """Subgroup generated by a list of elements (order-insensitive)."""
    rows = []
    for x in gens:
        if x.group != g:
            raise ValueError("generator lives in a different group")
        rows.append(list(x.coords()))
    return Subgroup(g, rows)


def whole_group(g: GroupSpec) -> Subgroup:
    # the identity is its Hermite basis, so no reduction is run
    return Subgroup.__new__(Subgroup)._init_hermite(g, IntMatrix.identity(g.dim))


class Homomorphism(Value):
    """A homomorphism between coordinate groups, as an integer matrix
    acting on column coordinate vectors."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: GroupSpec, target: GroupSpec, matrix: IntMatrix):
        if matrix.rows != target.dim or matrix.cols != source.dim:
            raise ValueError("matrix shape does not match source/target")
        tt = len(target.torsion_moduli)
        for i, m in enumerate(source.torsion_moduli):
            col = [matrix[r, i] for r in range(matrix.rows)]
            for r, e in enumerate(col):
                if r < tt:
                    if (m * e) % target.torsion_moduli[r]:
                        raise ValueError("map is not well defined on torsion")
                elif m * e:
                    raise ValueError("map sends torsion into the free part")
        self._set(source, target, matrix)

    def apply(self, x: Element) -> Element:
        if x.group != self.source:
            raise ValueError("element is not in the source group")
        return self.target.element_from_coords(self.matrix.mul_vec(x.coords()))

    __call__ = apply


class DualPoint(Value):
    """A character of a group, with exact rational data.

    The character is x -> exp(2 pi i * phase(x)) where
    phase(x) = sum(k_i x_i / m_i) + sum(theta_j y_j) mod 1; torus angles
    theta_j are exact fractions of a full turn.
    """

    __slots__ = ("group", "torsion_chars", "torus_angles")

    def __init__(self, group: GroupSpec, torsion_chars=(), torus_angles=()):
        chars = tuple(index(c) % m for c, m in zip(torsion_chars, group.torsion_moduli, strict=True))
        angles = tuple(Fraction(a) % 1 for a in torus_angles)
        if len(angles) != group.free_rank:
            raise ValueError("torus angle count must match the free rank")
        self._set(group, chars, angles)

    def phase(self, x: Element) -> Fraction:
        """Exact phase of the character at x, reduced mod 1."""
        if x.group != self.group:
            raise ValueError("element is not in the paired group")
        p = Fraction(0)
        for k, c, m in zip(self.torsion_chars, x.torsion, self.group.torsion_moduli):
            p += Fraction(k * c, m)
        for th, y in zip(self.torus_angles, x.free):
            p += th * y
        return p % 1

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from dancewalk.intlinalg import (
    AffinePointSet,
    IntMatrix,
    UnimodularMatrix,
    affine_dim,
    bottom_row_unimodular,
    flatten_affine,
    hnf,
    lattice_basis,
    snf,
    twist_to_coordinates,
)
from dancewalk.intlinalg import _primitive_orthogonal


def mat(rows):
    return IntMatrix(rows)


small_entries = st.integers(min_value=-30, max_value=30)


@st.composite
def matrices(draw, max_dim=5):
    r = draw(st.integers(min_value=1, max_value=max_dim))
    c = draw(st.integers(min_value=1, max_value=max_dim))
    data = [[draw(small_entries) for _ in range(c)] for _ in range(r)]
    return IntMatrix(data)


def test_matmul_and_det_basics():
    a = mat([[1, 2], [3, 4]])
    b = mat([[0, 1], [1, 0]])
    assert (a @ b) == mat([[2, 1], [4, 3]])
    assert a.det() == -2
    assert b.det() == -1
    assert IntMatrix.identity(3).det() == 1
    assert mat([[2, 4], [1, 2]]).det() == 0


def test_inverse_exact():
    u = mat([[1, 0], [1, 1]])
    assert u.inverse() == mat([[1, 0], [-1, 1]])
    with pytest.raises(ValueError):
        mat([[2, 0], [0, 1]]).inverse()  # inverse not integral
    with pytest.raises(ValueError):
        mat([[1, 1], [1, 1]]).inverse()  # singular


def test_hnf_identity_is_fixed():
    res = hnf(IntMatrix.identity(2))
    assert res.h == IntMatrix.identity(2)
    assert res.u.matrix == IntMatrix.identity(2)


def test_hnf_known_lattice():
    # Row span of {(2,0),(0,2),(1,1)} is the even-sum sublattice of Z^2,
    # index 2, canonical basis {(1,1),(0,2)}.
    res = hnf(mat([[2, 0], [0, 2], [1, 1]]))
    assert res.nonzero_rows == ((1, 1), (0, 2))
    assert res.h.data[2] == (0, 0)
    assert res.u.matrix @ mat([[2, 0], [0, 2], [1, 1]]) == res.h


def test_hnf_single_entry():
    res = hnf(mat([[3]]))
    assert res.h == mat([[3]])


def test_snf_known_cases():
    res = snf(IntMatrix.diag([2, 3]))
    assert res.diagonal == (1, 6)
    res = snf(IntMatrix.zeros(2, 3))
    assert res.d == IntMatrix.zeros(2, 3)
    assert res.u.matrix == IntMatrix.identity(2)
    assert res.v.matrix == IntMatrix.identity(3)
    res = snf(mat([[2, 4], [4, 4]]))
    assert res.diagonal == (2, 4)


@settings(max_examples=250, derandomize=True)
@given(matrices(max_dim=7))
def test_lattice_basis_is_the_hermite_basis(m):
    assert lattice_basis(m.data, m.cols) == hnf(m).nonzero_rows


@settings(max_examples=250, derandomize=True)
@given(matrices())
def test_snf_factorization_identity(m):
    res = snf(m)
    assert res.u.matrix @ m @ res.v.matrix == res.d
    assert res.u.matrix.det() in (1, -1)
    assert res.v.matrix.det() in (1, -1)
    diag = res.diagonal
    for i in range(res.d.rows):
        for j in range(res.d.cols):
            if i != j:
                assert res.d[i, j] == 0
    for a, b in zip(diag, diag[1:]):
        assert a >= 0 and b >= 0
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0


@settings(max_examples=250, derandomize=True)
@given(matrices())
def test_hnf_factorization_and_canonicality(m):
    res = hnf(m)
    assert res.u.matrix @ m == res.h
    assert res.u.matrix.det() in (1, -1)
    pivots = res.pivots
    cols = [c for _, c in pivots]
    assert cols == sorted(cols)
    for r, c in pivots:
        p = res.h[r, c]
        assert p > 0
        for above in range(r):
            assert 0 <= res.h[above, c] < p
    # zero rows trail the nonzero ones
    seen_zero = False
    for row in res.h.data:
        if any(row):
            assert not seen_zero
        else:
            seen_zero = True


@settings(max_examples=250, derandomize=True)
@given(matrices(max_dim=4))
def test_hnf_canonical_under_row_shuffle(m):
    rng = random.Random(7)
    rows = list(m.data)
    rng.shuffle(rows)
    assert hnf(m).h == hnf(IntMatrix(rows, cols=m.cols)).h


@settings(max_examples=250, derandomize=True)
@given(st.lists(small_entries, min_size=1, max_size=6))
def test_bottom_row_contract(a):
    if all(e == 0 for e in a):
        with pytest.raises(ValueError):
            bottom_row_unimodular(a)
        return
    m = bottom_row_unimodular(a)
    assert list(m.data[-1]) == a
    g = 0
    for e in a:
        g = gcd(g, e)
    if len(a) == 1:
        assert m.det() == a[0]  # 1x1 case: sign pinned by the bottom row
    else:
        assert m.det() == g


def test_bottom_row_examples():
    assert bottom_row_unimodular([1]) == mat([[1]])
    m = bottom_row_unimodular([2, 3])
    assert m.data[1] == (2, 3)
    assert m.det() == 1
    m = bottom_row_unimodular([4, 6])
    assert m.data[1] == (4, 6)
    assert m.det() == 2


def test_affine_dim_examples():
    assert affine_dim(AffinePointSet(2, [(0, 0)])) == 0
    assert affine_dim(AffinePointSet(2, [(1, 0), (0, 1)])) == 1
    assert affine_dim(AffinePointSet(2, [(0, 0), (1, 0), (0, 1)])) == 2
    with pytest.raises(ValueError):
        affine_dim(AffinePointSet(2, []))


def test_flatten_affine_diagonal_pair():
    phi, w = flatten_affine(AffinePointSet(2, [(1, 0), (0, 1)]))
    assert phi.matrix == mat([[1, 0], [1, 1]])
    assert w == 1


def test_flatten_affine_more_cases():
    phi, w = flatten_affine(AffinePointSet(2, [(0, 0)]))
    assert w == 0
    for p in [(0, 0)]:
        assert phi.matrix.mul_vec(p)[-1] == w
    phi, w = flatten_affine(AffinePointSet(2, [(0, 3), (0, 0)]))
    assert w == 0
    images = {phi.matrix.mul_vec(p) for p in [(0, 3), (0, 0)]}
    assert {img[-1] for img in images} == {0}
    # the flattening is unique only up to an automorphism of Z^1
    assert {abs(img[0]) for img in images} == {3, 0}
    phi.inverse
    with pytest.raises(ValueError):
        flatten_affine(AffinePointSet(2, [(0, 0), (1, 0), (0, 1)]))


def test_twist_matches_known_automorphism():
    res = twist_to_coordinates(AffinePointSet(2, [(1, 0), (0, 1)]))
    assert res.d == 1
    assert res.w == (1,)
    assert res.phi.matrix == mat([[1, 0], [1, 1]])
    images = {res.phi.matrix.mul_vec(p) for p in [(1, 0), (0, 1)]}
    assert images == {(0, 1), (1, 1)}


def test_twist_singleton_and_full_dim():
    res = twist_to_coordinates(AffinePointSet(2, [(5, 7)]))
    assert res.d == 0
    assert res.phi.matrix.mul_vec((5, 7)) == res.w
    res = twist_to_coordinates(AffinePointSet(2, [(0, 0), (1, 0), (0, 1)]))
    assert res.d == 2
    assert res.w == ()
    assert res.phi.matrix == IntMatrix.identity(2)
    with pytest.raises(ValueError):
        twist_to_coordinates(AffinePointSet(2, []))


def test_twist_three_points_in_z3():
    pts = [(0, 0, 0), (1, 1, 0), (2, 0, 2)]
    res = twist_to_coordinates(AffinePointSet(3, pts))
    assert res.d == 2
    images = [res.phi.matrix.mul_vec(p) for p in pts]
    assert {img[2] for img in images} == set(res.w)
    shadow = AffinePointSet(2, [img[:2] for img in images])
    assert affine_dim(shadow) == 2
    res.phi.inverse  # integral inverse exists


def _random_point_set(rng, k, d):
    """Points spanning an affine subspace of dimension exactly d in Z^k."""
    while True:
        base = tuple(rng.randrange(-5, 6) for _ in range(k))
        dirs = [tuple(rng.randrange(-4, 5) for _ in range(k)) for _ in range(d)]
        pts = {base}
        for _ in range(d + 3):
            coeffs = [rng.randrange(-3, 4) for _ in range(d)]
            pts.add(tuple(b + sum(c * v[i] for c, v in zip(coeffs, dirs))
                          for i, b in enumerate(base)))
        s = AffinePointSet(k, pts)
        if affine_dim(s) == d:
            return s


def test_twist_postconditions_randomized():
    rng = random.Random(20240817)
    for _ in range(200):
        k = rng.randrange(1, 5)
        d = rng.randrange(0, k)
        s = _random_point_set(rng, k, d)
        res = twist_to_coordinates(s)
        assert res.d == d
        inv = res.phi.inverse
        assert res.phi.matrix @ inv == IntMatrix.identity(k)
        images = [res.phi.matrix.mul_vec(p) for p in s.points]
        for img in images:
            assert img[d:] == res.w
        if d:
            assert affine_dim(AffinePointSet(d, [img[:d] for img in images])) == d


def test_affine_dim_invariance():
    rng = random.Random(99)
    for _ in range(200):
        k = rng.randrange(1, 5)
        d = rng.randrange(0, k + 1)
        s = _random_point_set(rng, k, d)
        shift = tuple(rng.randrange(-5, 6) for _ in range(k))
        shifted = AffinePointSet(k, [tuple(a + b for a, b in zip(p, shift)) for p in s.points])
        assert affine_dim(shifted) == d
        u = _random_unimodular(rng, k)
        mapped = AffinePointSet(k, [u.mul_vec(p) for p in s.points])
        assert affine_dim(mapped) == d


def _random_unimodular(rng, k):
    m = IntMatrix.identity(k)
    for _ in range(3 * k):
        i, j = rng.randrange(k), rng.randrange(k)
        if i == j:
            continue
        shear = [[int(r == c) for c in range(k)] for r in range(k)]
        shear[i][j] = rng.randrange(-2, 3)
        m = m @ IntMatrix(shear)
    return m


def fraction_primitive_orthogonal(diffs, k):
    """Reference: the null vector by rational Gaussian elimination of the rows."""
    pivots = {}
    for r in diffs:
        r = [Fraction(e) for e in r]
        for col, pr in sorted(pivots.items()):
            if r[col]:
                f = r[col] / pr[col]
                r = [e - f * g for e, g in zip(r, pr)]
        lead = next((j for j in range(k) if r[j]), None)
        if lead is not None:
            pivots[lead] = r
    free_cols = [j for j in range(k) if j not in pivots]
    if not free_cols:
        raise ValueError("rows span the whole space; no orthogonal vector")
    a = [Fraction(int(j == free_cols[-1])) for j in range(k)]
    for col in sorted(pivots, reverse=True):
        pr = pivots[col]
        a[col] = -sum(pr[j] * a[j] for j in range(col + 1, k)) / pr[col]
    den = 1
    for e in a:
        den = den * e.denominator // gcd(den, e.denominator)
    ints = [int(e * den) for e in a]
    content = gcd(*ints)
    sign = 1 if next(e for e in ints if e) > 0 else -1
    return tuple(sign * e // content for e in ints)


@st.composite
def low_rank_rows(draw):
    """Integer combinations of at most k vectors in Z^k, k <= 5."""
    k = draw(st.integers(1, 5))
    gens = draw(st.lists(st.lists(st.integers(-4, 4), min_size=k, max_size=k), max_size=k))
    coeffs = st.lists(st.integers(-3, 3), min_size=len(gens), max_size=len(gens))
    rows = [tuple(sum(c * g[j] for c, g in zip(cs, gens)) for j in range(k))
            for cs in draw(st.lists(coeffs, max_size=6))]
    return rows, k


@settings(max_examples=400, derandomize=True)
@given(low_rank_rows())
def test_primitive_orthogonal_matches_fraction_reference(case):
    rows, k = case
    try:
        want = fraction_primitive_orthogonal(rows, k)
    except ValueError:
        with pytest.raises(ValueError):
            _primitive_orthogonal(rows, k)
        return
    got = _primitive_orthogonal(rows, k)
    assert got == want
    assert all(sum(a * b for a, b in zip(got, r)) == 0 for r in rows)

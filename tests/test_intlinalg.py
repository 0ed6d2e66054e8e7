import itertools
import random
from fractions import Fraction
from functools import reduce
from math import lcm, prod
from unittest import mock

import pytest
from hypothesis import assume, example, given, seed, settings, strategies as st

import dancewalk.group
from dancewalk.group import (
    GroupSpec,
    Subgroup,
    subgroup_generated,
    whole_group,
)
from dancewalk.intlinalg import (
    AffinePointSet,
    IntMatrix,
    UnimodularMatrix,
    affine_dim,
    lattice_basis,
    snf,
    twist_to_coordinates,
)
import dancewalk.intlinalg
from dancewalk.intlinalg import _bareiss, _elim_pair
from dancewalk.llt import MomentData
from reference import hermite_form, matmul, rational_inverse


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
    assert matmul(a, b) == mat([[2, 1], [4, 3]])
    assert a.det() == -2
    assert b.det() == -1
    assert IntMatrix.identity(3).det() == 1
    assert mat([[2, 4], [1, 2]]).det() == 0


def test_int_matrix_rejects_non_integers():
    with pytest.raises(TypeError):
        IntMatrix([[1, 2.5]])
    with pytest.raises(TypeError):
        IntMatrix([[Fraction(2)]])
    assert IntMatrix([[True, 2]]).data == ((1, 2),)
    with pytest.raises(TypeError):
        IntMatrix.diag([2.9, 3.5])


def test_unimodular_matrix_refuses_what_is_not_a_unit():
    assert UnimodularMatrix(mat([[1, 0], [1, 1]])).matrix == mat([[1, 0], [1, 1]])
    with pytest.raises(ValueError):
        UnimodularMatrix(mat([[2, 0], [0, 1]]))  # inverse not integral
    with pytest.raises(ValueError):
        UnimodularMatrix(mat([[1, 1], [1, 1]]))  # singular
    with pytest.raises(ValueError):
        UnimodularMatrix(mat([[1, 0, 0], [0, 1, 0]]))  # not square


def _nonzero_rows(h):
    return tuple(r for r in h.data if any(r))


def test_hnf_identity_is_fixed():
    h, u = hermite_form(IntMatrix.identity(2))
    assert h == IntMatrix.identity(2)
    assert u == IntMatrix.identity(2)


def test_hnf_known_lattice():
    # Row span of {(2,0),(0,2),(1,1)} is the even-sum sublattice of Z^2,
    # index 2, canonical basis {(1,1),(0,2)}.
    h, u = hermite_form(mat([[2, 0], [0, 2], [1, 1]]))
    assert _nonzero_rows(h) == ((1, 1), (0, 2))
    assert h.data[2] == (0, 0)
    assert matmul(u, mat([[2, 0], [0, 2], [1, 1]])) == h


def test_hnf_single_entry():
    h, _ = hermite_form(mat([[3]]))
    assert h == mat([[3]])


def _assert_smith_contract(m, diagonal, vt):
    """v is unimodular and m @ v has the row lattice of diag(d) in m's shape,
    so u @ m @ v = diag(d) for a unimodular u: two matrices of one shape with
    one row lattice differ by a unimodular row transform."""
    assert len(diagonal) == min(m.rows, m.cols)
    v = IntMatrix([list(c) for c in zip(*vt)], cols=len(vt))
    assert v.det() in (1, -1)
    d = IntMatrix([[diagonal[i] if i == j else 0 for j in range(m.cols)] for i in range(m.rows)],
                  cols=m.cols)
    assert hermite_form(matmul(m, v))[0] == hermite_form(d)[0]


def test_snf_known_cases():
    assert snf(IntMatrix.diag([2, 3]))[0] == (1, 6)
    zeros = mat([[0, 0, 0], [0, 0, 0]])
    diagonal, vt = snf(zeros)
    assert diagonal == (0, 0)
    assert IntMatrix(vt) == IntMatrix.identity(3)
    _assert_smith_contract(zeros, diagonal, vt)
    assert snf(mat([[2, 4], [4, 4]]))[0] == (2, 4)


@seed(0xaa4f4c5d93906ee102309761da69bde140efc47eb8f057948ede59c5141951d3ed63e4270314438af216d2ee49a140c4)
@settings(max_examples=250, derandomize=True)
@given(matrices(max_dim=7))
def test_lattice_basis_is_the_hermite_basis(m):
    assert lattice_basis(m.data, m.cols) == _nonzero_rows(hermite_form(m)[0])


@seed(0xd420d25fd5d85f06e8adb4ebbc2cb9964ea25f700c37f8ad4ada421613d400b987f509dea643e5df0cb29729dc2bd1d0)
@settings(max_examples=250, derandomize=True)
@given(matrices())
def test_snf_factorization_identity(m):
    diag, vt = snf(m)
    _assert_smith_contract(m, diag, vt)
    for a, b in zip(diag, diag[1:]):
        assert a >= 0 and b >= 0
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0


@seed(0xceb6ae8a28b9ea8a398982abda692ee500089d72508aca9209ecd9a9a356ea7e8f837abc7e94b54734e74cb780b4766a)
@settings(max_examples=250, derandomize=True)
@given(matrices())
def test_hnf_factorization_and_canonicality(m):
    h, u = hermite_form(m)
    assert matmul(u, m) == h
    assert u.det() in (1, -1)
    pivots = [(r, next(c for c, e in enumerate(row) if e))
              for r, row in enumerate(h.data) if any(row)]
    cols = [c for _, c in pivots]
    assert cols == sorted(cols)
    for r, c in pivots:
        p = h[r, c]
        assert p > 0
        for above in range(r):
            assert 0 <= h[above, c] < p
    # zero rows trail the nonzero ones
    seen_zero = False
    for row in h.data:
        if any(row):
            assert not seen_zero
        else:
            seen_zero = True


@seed(0x2c9948e90578612732868848320404ef5c0738e9eaf62a1dda12d99741298f85b5944ccfb161e88632da0d72faec6ef5)
@settings(max_examples=250, derandomize=True)
@given(matrices(max_dim=4))
def test_hnf_canonical_under_row_shuffle(m):
    rng = random.Random(7)
    rows = list(m.data)
    rng.shuffle(rows)
    assert hermite_form(m)[0] == hermite_form(IntMatrix(rows, cols=m.cols))[0]


def test_affine_dim_examples():
    assert affine_dim(AffinePointSet(2, [(0, 0)])) == 0
    assert affine_dim(AffinePointSet(2, [(1, 0), (0, 1)])) == 1
    assert affine_dim(AffinePointSet(2, [(0, 0), (1, 0), (0, 1)])) == 2
    with pytest.raises(ValueError):
        affine_dim(AffinePointSet(2, []))


def test_affine_point_set_rejects_non_integers():
    with pytest.raises(TypeError):
        AffinePointSet(2, [(0.5, 1.2)])
    with pytest.raises(TypeError):
        AffinePointSet(2.0, [(0, 1)])
    assert AffinePointSet(2, [(1, 0), (0, 1), (1, 0)]).points == ((0, 1), (1, 0))


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
    res = twist_to_coordinates(AffinePointSet(2, [(0, 0)]))
    assert (res.d, res.w) == (0, (0, 0))
    res = twist_to_coordinates(AffinePointSet(2, [(0, 3), (0, 0)]))
    assert (res.d, res.w) == (1, (0,))
    images = {res.phi.matrix.mul_vec(p) for p in [(0, 3), (0, 0)]}
    assert {img[-1] for img in images} == {0}
    # the twist is unique only up to an automorphism of Z^1
    assert {abs(img[0]) for img in images} == {3, 0}
    assert matmul(res.phi.matrix, fraction_inverse(res.phi.matrix)) == IntMatrix.identity(2)
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
    fraction_inverse(res.phi.matrix)  # an integral inverse exists


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
        m = matmul(m, IntMatrix(shear))
    return m


# References for the shared Hermite kernel: the Smith sweep it replaced
# and the Fraction inverse.

def sweep_snf(m):
    """Reference Smith form, in snf's (diagonal, vt) shape: a smallest-pivot
    sweep with row and column combines."""
    a = [list(r) for r in m.data]
    nr, nc = m.rows, m.cols
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def row_combine(i, j, x, y, bg, ag):
        ri, rj = a[i], a[j]
        a[i] = [x * p + y * q for p, q in zip(ri, rj)]
        a[j] = [-bg * p + ag * q for p, q in zip(ri, rj)]

    def col_combine(i, j, x, y, bg, ag):
        for mat in (a, v):
            for row in mat:
                p, q = row[i], row[j]
                row[i] = x * p + y * q
                row[j] = -bg * p + ag * q

    for t in range(min(nr, nc)):
        cells = [(abs(a[i][j]), i, j) for i in range(t, nr) for j in range(t, nc) if a[i][j]]
        if not cells:
            break
        _, bi, bj = min(cells)
        a[t], a[bi] = a[bi], a[t]
        for mat in (a, v):
            for row in mat:
                row[t], row[bj] = row[bj], row[t]
        while True:
            for i in range(t + 1, nr):
                if a[i][t]:
                    row_combine(t, i, *_elim_pair(a[t][t], a[i][t]))
            for j in range(t + 1, nc):
                if a[t][j]:
                    col_combine(t, j, *_elim_pair(a[t][t], a[t][j]))
            if any(a[i][t] for i in range(t + 1, nr)):
                continue
            culprit = next((i for i in range(t + 1, nr) for j in range(t + 1, nc)
                            if a[i][j] % a[t][t]), None)
            if culprit is None:
                break
            a[t] = [p + q for p, q in zip(a[t], a[culprit])]
        if a[t][t] < 0:
            a[t] = [-e for e in a[t]]
    assert not any(e for i, row in enumerate(a) for j, e in enumerate(row) if i != j)
    return tuple(a[i][i] for i in range(min(nr, nc))), tuple(zip(*v))


def fraction_inverse(m):
    """Reference integer inverse by rational Gauss-Jordan elimination."""
    out = rational_inverse(m.data)
    if any(e.denominator != 1 for row in out for e in row):
        raise ValueError("inverse is not integral")
    return IntMatrix([[int(e) for e in row] for row in out], cols=m.cols)


@st.composite
def point_sets(draw):
    """Points of rank at most d in Z^k, k <= 7, with repeats and singletons."""
    k = draw(st.integers(0, 7))
    d = draw(st.integers(0, k))
    vec = st.lists(st.integers(-5, 5), min_size=k, max_size=k)
    base, dirs = draw(vec), draw(st.lists(vec, min_size=d, max_size=d))
    coeffs = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
    pts = [tuple(b + sum(c * v[i] for c, v in zip(cs, dirs)) for i, b in enumerate(base))
           for cs in draw(st.lists(coeffs, min_size=1, max_size=d + 4))]
    return AffinePointSet(k, pts + pts[:draw(st.integers(0, 2))])


@seed(0xb36cb4e86c548806da6790288ff66d8afbd8c8ed1050f96a8f5370441e776833fbafab8f21db0a76e802778055787f32)
@settings(max_examples=400, derandomize=True)
@given(point_sets())
@example(AffinePointSet(0, [()]))
@example(AffinePointSet(3, [(2, -1, 5)]))
@example(AffinePointSet(2, [(0, 0), (2, 2), (4, 4)]))  # a line whose differences are not primitive
def test_twist_postconditions_randomized(s):
    # phi is unimodular and sends s into Z^d x {w}, d = affine_dim(s), with a
    # d-dimensional shadow on the first d axes; it is the identity when d = k
    res, k = twist_to_coordinates(s), s.ambient_dim
    phi = res.phi.matrix
    assert matmul(phi, fraction_inverse(phi)) == IntMatrix.identity(k)
    assert res.d == affine_dim(s)
    images = [phi.mul_vec(p) for p in s.points]
    assert all(img[res.d:] == res.w for img in images)
    assert affine_dim(AffinePointSet(res.d, [img[:res.d] for img in images])) == res.d
    if res.d == k:
        assert (phi, res.w) == (IntMatrix.identity(k), ())


def test_twist_runs_no_matrix_products(monkeypatch):
    # phi is the transform of one Hermite pass: no per-axis Hermite basis, no
    # matrix-vector product (IntMatrix has no matrix product)
    calls = {"mul_vec": 0, "lattice_basis": 0, "hnf": 0}

    def count(owner, name):
        f = getattr(owner, name)

        def wrapper(*args):
            calls[name.strip("_")] += 1
            return f(*args)
        monkeypatch.setattr(owner, name, wrapper)

    count(IntMatrix, "mul_vec")
    count(dancewalk.intlinalg, "lattice_basis")
    count(dancewalk.intlinalg, "_hnf")
    s = AffinePointSet(6, [(1, 2, 3, 4, 5, 6), (3, 1, 4, 1, 5, 9), (5, 0, 5, -2, 5, 12)])
    res = twist_to_coordinates(s)
    assert res.d == 1
    assert calls == {"mul_vec": 0, "lattice_basis": 0, "hnf": 1}


@st.composite
def non_unimodular_squares(draw):
    """Square matrices with det not +-1; about half are singular by construction."""
    k = draw(st.integers(1, 5))
    rows = [draw(st.lists(small_entries, min_size=k, max_size=k)) for _ in range(k)]
    if draw(st.booleans()):  # the last row a combination of the others
        cs = draw(st.lists(st.integers(-3, 3), min_size=k - 1, max_size=k - 1))
        rows[-1] = [sum(c * r[j] for c, r in zip(cs, rows)) for j in range(k)]
    m = IntMatrix(rows, cols=k)
    assume(m.det() not in (1, -1))
    return m


@seed(0xfcf677ebaa7761c9d1e958631a0f9d52bd63b2a664039110eb57d74778d50cb8b76cf197276e000ab428932ef63a7aa6)
@settings(max_examples=300, derandomize=True)
@given(non_unimodular_squares())
def test_inverse_rejects_singular_and_non_unimodular(m):
    with pytest.raises(ValueError):
        fraction_inverse(m)
    with pytest.raises(ValueError):
        UnimodularMatrix(m)


def _leibniz_det(a):
    """Reference determinant: the sum over permutations, signed by inversions."""
    k, total = len(a), 0
    for perm in itertools.permutations(range(k)):
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(k) for j in range(i + 1, k))
        total += sign * prod(a[i][perm[i]] for i in range(k))
    return total


@st.composite
def bareiss_squares(draw):
    """Square matrices up to 5x5: plain, singular, with a zero leading minor,
    symmetric (mostly indefinite) or a positive definite Gram matrix."""
    k = draw(st.integers(1, 5))
    rows = [draw(st.lists(st.integers(-4, 4), min_size=k, max_size=k)) for _ in range(k)]
    kind = draw(st.sampled_from(["plain", "singular", "zero-minor", "symmetric", "gram"]))
    if kind == "singular":  # the last row a combination of the others
        cs = draw(st.lists(st.integers(-2, 2), min_size=k - 1, max_size=k - 1))
        rows[-1] = [sum(c * r[j] for c, r in zip(cs, rows)) for j in range(k)]
    elif kind == "zero-minor":  # the leading j x j block gets a dependent last row
        j = draw(st.integers(1, k))
        cs = draw(st.lists(st.integers(-2, 2), min_size=j - 1, max_size=j - 1))
        rows[j - 1][:j] = [sum(c * r[t] for c, r in zip(cs, rows)) for t in range(j)]
    elif kind == "symmetric":
        rows = [[rows[min(i, t)][max(i, t)] for t in range(k)] for i in range(k)]
    elif kind == "gram":  # B B^T + I
        rows = [[sum(x * y for x, y in zip(rows[i], rows[t])) + (i == t) for t in range(k)]
                for i in range(k)]
    return rows


@seed(0x4de82c673a712ebcf78035668b06f920b89f7c46e9d852f6839bf459594b1bc6a3946c2bef01a17ea37a6ca4896c6469)
@settings(max_examples=400, derandomize=True)
@given(bareiss_squares())
def test_bareiss_matches_leibniz_and_fraction_inverse(a):
    k = len(a)
    rows = [r + [int(i == j) for j in range(k)] for i, r in enumerate(a)]
    lead, det = _bareiss(rows, k)
    assert det == _leibniz_det(a) == IntMatrix(a).det()
    # the pivots are the leading minors up to and including the first zero one
    minors = [_leibniz_det([r[:j] for r in a[:j]]) for j in range(1, k + 1)]
    prefix = minors[:next((j + 1 for j, m in enumerate(minors) if not m), k)]
    assert lead[:len(prefix)] == prefix
    assert all(m > 0 for m in lead) == all(m > 0 for m in minors)
    if det:
        assert [r[:k] for r in rows] == [[det * (i == j) for j in range(k)] for i in range(k)]
        assert [[Fraction(e, det) for e in r[k:]] for r in rows] == rational_inverse(a)


def test_moment_data_with_a_zero_leading_pivot():
    # [[0, 1], [1, 0]] needs a row swap: its first leading minor is 0 and det is -1
    m = MomentData(2, (Fraction(0), Fraction(0)),
                   ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))))
    assert not m.is_positive_definite()
    assert m.covariance_det == -1
    assert [[Fraction(e, m._det) for e in r] for r in m._q] == [[0, 1], [1, 0]]


def _assert_snf_matches_sweep(m):
    got, want = snf(m), sweep_snf(m)
    assert got[0] == want[0]
    _assert_smith_contract(m, *got)


@seed(0xb2ed353baa27ea6ae0ccb5cfb9f57432c9ffdbde33be83def053b1c365e138a08c231e34c2046c8c9690f53c5e8a25a8)
@settings(max_examples=300, derandomize=True)
@given(matrices(max_dim=6))
def test_snf_matches_sweep_reference(m):
    _assert_snf_matches_sweep(m)


# The walk sweep's group shapes, and one with a free axis.
SHAPES = ((12,), (30,), (2, 6), (4, 4), (3, 9), (2, 2, 4), (2, 2, 6), (3, 3, 3), (4, 6, 0))


@st.composite
def subgroups(draw):
    """A subgroup of one of SHAPES (a trailing 0 is a free axis) from up to 3 generators."""
    shape = draw(st.sampled_from(SHAPES))
    g = GroupSpec([m for m in shape if m], shape.count(0))
    coord = [st.integers(0, m - 1) if m else st.integers(-6, 6) for m in shape]
    gens = draw(st.lists(st.tuples(*coord), max_size=3))
    return Subgroup(g, gens)


def _scaled_annihilator_rows(h):
    g = h.parent
    big = reduce(lcm, g.torsion_moduli, 1)
    return [[row[i] * (big // m) for i, m in enumerate(g.torsion_moduli)] for row in h.basis.data]


@seed(0x493647e83ec878786e0ae413e1318a375ffda25b9dcadced912300c1a4b14c39dcd2bcbefc0abf997b127888413c6dcd)
@settings(max_examples=300, derandomize=True)
@given(subgroups())
def test_snf_matches_sweep_on_program_shapes(h):
    g = h.parent
    relations = [[m * int(i == j) for j in range(g.dim)] for i, m in enumerate(g.torsion_moduli)]
    _assert_snf_matches_sweep(h.basis)
    _assert_snf_matches_sweep(IntMatrix([*h.basis.data, *relations], cols=g.dim))
    _assert_snf_matches_sweep(IntMatrix.diag(g.torsion_moduli))
    if g.is_finite:
        _assert_snf_matches_sweep(IntMatrix(_scaled_annihilator_rows(h), cols=g.dim))


@seed(0x1b4c87894739a96cb5809bdb448ff95396a75282f0cfcc188c54a7019a25240c1c57081c8e7823880517b79d4f75663d)
@settings(max_examples=300, derandomize=True)
@given(subgroups(), st.lists(st.integers(-20, 20), min_size=4, max_size=4))
def test_subgroup_algebra_matches_sweep_reference(h, seed_coords):
    g = h.parent
    xs = [g.element_from_coords([(c + 7 * i) for c in seed_coords[:g.dim]]) for i in range(3)]
    free = GroupSpec((), g.dim)
    got_spec, got_proj = Subgroup(free, h.basis.data).quotient_map()
    got = (h.quotient_invariants(), [h.coset_order(x) for x in xs],
           h.annihilator() if g.is_finite else None)
    with mock.patch.object(dancewalk.group, "snf", sweep_snf):
        want_spec, want_proj = Subgroup(free, h.basis.data).quotient_map()
        fresh = Subgroup(g, h.basis.data)  # h keeps the quotient map it already computed
        want = (fresh.quotient_invariants(), [fresh.coset_order(x) for x in xs],
                fresh.annihilator() if g.is_finite else None)
    assert got == want
    assert got_spec == want_spec
    # the projections need not agree, but each is onto with kernel the row span
    relations = Subgroup(free, h.basis.data)
    for proj in (got_proj, want_proj):
        units = [proj(free.element_from_coords(r)) for r in IntMatrix.identity(g.dim).data]
        assert subgroup_generated(got_spec, units) == whole_group(got_spec)
        zero = got_spec.identity()
        assert all(proj(free.element_from_coords(r)) == zero for r in h.basis.data)
        for x in xs:
            y = free.element_from_coords(x.coords())
            assert (proj(y) == zero) == relations.contains(y)

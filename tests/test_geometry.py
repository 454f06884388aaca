"""Exact linear algebra and cone representation tests."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recdom.corpus import corpus_cones, hexagon_cone, pentagon_cone, square_cone
from recdom.geometry import (
    GF2,
    QQ,
    MILLER_RABIN_LIMIT,
    Cone,
    FieldSpec,
    NotFullDimensional,
    NotPointed,
    dual_description,
    faces_of,
    integer_kernel,
    is_prime,
    primitive,
    rank_over_field,
)

# -- independent rank oracles -------------------------------------------------

def oracle_rank_fraction(rows):
    m = [[Fraction(a) for a in r] for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c] / m[rank][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def oracle_rank_mod(rows, p):
    m = [[a % p for a in r] for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], p - 2, p)
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = (m[i][c] * inv) % p
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def rp2_boundary_matrix_2():
    """Triangle-to-edge boundary matrix of the 6-vertex projective plane."""
    triangles = [
        (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
        (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5),
    ]
    edges = sorted({e for t in triangles for e in combinations(t, 2)})
    index = {e: i for i, e in enumerate(edges)}
    matrix = [[0] * len(triangles) for _ in edges]
    for j, t in enumerate(triangles):
        for i in range(3):
            sub = t[:i] + t[i + 1 :]
            matrix[index[sub]][j] += (-1) ** i
    return matrix


def test_rank_identity():
    assert rank_over_field([[1, 0, 0], [0, 1, 0], [0, 0, 1]], QQ) == 3


def test_rank_mod_two():
    assert rank_over_field([[2]], GF2) == 0


def test_rank_projective_plane_boundary():
    matrix = rp2_boundary_matrix_2()
    rank_q = rank_over_field(matrix, QQ)
    rank_f2 = rank_over_field(matrix, GF2)
    assert rank_q == oracle_rank_fraction(matrix) == 10
    assert rank_f2 == oracle_rank_mod(matrix, 2) == 9
    assert rank_q - rank_f2 == 1


def test_rank_against_oracles_random():
    rng = random.Random(7)
    sympy = pytest.importorskip("sympy")
    for _ in range(25):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        assert rank_over_field(m, QQ) == oracle_rank_fraction(m)
        assert rank_over_field(m, QQ) == sympy.Matrix(m).rank()
        for p in (2, 3, 5):
            assert rank_over_field(m, FieldSpec(p)) == oracle_rank_mod(m, p)


def test_rank_rejects_ragged_matrices():
    # an empty first row must not hide a longer second one
    for rows in ([[], [1, 2]], [[1, 2], [3]], [[1], [2, 3], [4]]):
        for field in (QQ, GF2):
            with pytest.raises(ValueError, match="ragged"):
                rank_over_field(rows, field)
    assert rank_over_field([]) == rank_over_field([[]]) == rank_over_field([[], []]) == 0


@st.composite
def dense_matrices(draw):
    """Integer matrices up to 7 x 7 with small or large entries, some rows
    integer combinations of others, in shuffled order."""
    n_rows, n_cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    entry = st.one_of(st.integers(-9, 9), st.integers(-10**12, 10**12))
    rows = [draw(st.lists(entry, min_size=n_cols, max_size=n_cols)) for _ in range(n_rows)]
    for _ in range(draw(st.integers(0, 3))):
        coeffs = draw(st.lists(st.integers(-5, 5), min_size=len(rows), max_size=len(rows)))
        rows.append([sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(n_cols)])
    return [rows[i] for i in draw(st.permutations(range(len(rows))))]


@st.composite
def boundary_like_matrices(draw):
    """Sparse matrices up to 14 x 14 whose columns have one to four entries
    of +-1, like the boundary matrices of simplicial complexes."""
    n_rows, n_cols = draw(st.integers(1, 14)), draw(st.integers(1, 14))
    matrix = [[0] * n_cols for _ in range(n_rows)]
    for j in range(n_cols):
        support = draw(st.sets(st.integers(0, n_rows - 1), min_size=1, max_size=min(4, n_rows)))
        for i in support:
            matrix[i][j] = draw(st.sampled_from((1, -1)))
    return matrix


def check_rank_against_oracles(matrix):
    sympy = pytest.importorskip("sympy")
    rank = rank_over_field(matrix, QQ)
    assert rank == oracle_rank_fraction(matrix) == sympy.Matrix(matrix).rank()
    for p in (2, 3, 1000003):
        assert rank_over_field(matrix, FieldSpec(p)) == oracle_rank_mod(matrix, p)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(dense_matrices())
def test_rank_of_dense_matrices_matches_oracles(matrix):
    check_rank_against_oracles(matrix)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(boundary_like_matrices())
def test_rank_of_sparse_signed_matrices_matches_oracles(matrix):
    check_rank_against_oracles(matrix)


def test_field_spec_parse_and_validate():
    assert FieldSpec.parse("Q").characteristic == 0
    assert FieldSpec.parse("F2") == GF2
    assert FieldSpec.parse("F97").characteristic == 97
    assert FieldSpec.parse("GF(5)").characteristic == 5
    with pytest.raises(ValueError):
        FieldSpec(4)


def test_field_spec_primality_is_fast_and_exact():
    assert FieldSpec(2**61 - 1).characteristic == 2**61 - 1
    assert FieldSpec(1000003).label == "F1000003"
    # 561 is a Carmichael number; 3215031751 is a strong pseudoprime to the
    # bases 2, 3, 5 and 7, and 3825123056546413051 to every prime base below 37
    for composite in (4, 561, 3215031751, 3825123056546413051, 1000003 * (2**31 - 1), 1, -7):
        with pytest.raises(ValueError, match="prime"):
            FieldSpec(composite)
    trial = [n for n in range(3000) if n > 1 and all(n % q for q in range(2, int(n**0.5) + 1))]
    assert [n for n in range(3000) if is_prime(n)] == trial
    with pytest.raises(ValueError, match="too large"):
        FieldSpec(MILLER_RABIN_LIMIT + 2)


def test_primitive():
    assert primitive((2, -4, 6)) == (1, -2, 3)
    with pytest.raises(ValueError):
        primitive((0, 0))


def test_dual_description_quadrant():
    cone = dual_description([(1, 0), (0, 1)])
    assert cone.rays == ((0, 1), (1, 0))
    assert [f.coeffs for f in cone.facets] == [(0, 1), (1, 0)]
    assert [sorted(f.incident_rays) for f in cone.facets] == [[1], [0]]


def oracle_hyperplane_scan(rays):
    """Independent facet scan via sympy nullspaces."""
    sympy = pytest.importorskip("sympy")
    d = len(rays[0])
    found = set()
    for subset in combinations(rays, d - 1):
        ns = sympy.Matrix(list(subset)).nullspace() if subset else sympy.eye(d).columnspace()
        if len(ns) != 1:
            continue
        vec = ns[0]
        denominators = [sympy.fraction(x)[1] for x in vec]
        scale = sympy.lcm(denominators)
        ints = [int(x * scale) for x in vec]
        g = 0
        for a in ints:
            g = __import__("math").gcd(g, a)
        n = tuple(a // g for a in ints)
        values = [sum(a * b for a, b in zip(n, r)) for r in rays]
        if all(v >= 0 for v in values):
            found.add(n)
        elif all(v <= 0 for v in values):
            found.add(tuple(-a for a in n))
    return sorted(found)


def test_dual_description_square_cone_vs_oracle():
    rays = [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
    cone = dual_description(rays)
    expected = [(-1, 0, 1), (0, -1, 1), (0, 1, 0), (1, 0, 0)]
    assert [f.coeffs for f in cone.facets] == expected
    assert oracle_hyperplane_scan(cone.rays) == expected


def test_dual_description_not_pointed():
    with pytest.raises(NotPointed):
        dual_description([(1, 0), (-1, 0), (0, 1)])


def test_dual_description_not_full_dimensional():
    with pytest.raises(NotFullDimensional):
        dual_description([(1, 0, 0), (0, 1, 0)])


def test_dual_description_thirteen_rays():
    cone = dual_description([(i, 1) for i in range(13)])
    assert cone.rays == ((0, 1), (12, 1))
    assert [f.coeffs for f in cone.facets] == [(-1, 12), (1, 0)]


def lattice_16_gon():
    """A convex lattice polygon with 16 vertices: the edge directions in
    angular order, each used once."""
    steps = [(1, 0), (3, 1), (2, 1), (1, 1), (1, 2), (1, 3), (0, 1), (-1, 3)]
    steps += [(-a, -b) for a, b in steps]
    point, polygon = (0, 0), []
    for dx, dy in steps:
        polygon.append(point)
        point = (point[0] + dx, point[1] + dy)
    assert point == (0, 0)
    return polygon


def test_dual_description_cone_over_16_gon():
    rays = [(x, y, 1) for x, y in lattice_16_gon()]
    cone = dual_description(rays)
    assert sorted(cone.rays) == sorted(rays)
    assert [f.coeffs for f in cone.facets] == oracle_hyperplane_scan(cone.rays)
    assert len(faces_of(cone)) == 16 * 2 + 2


def test_from_inequalities_half_plane_is_not_pointed():
    with pytest.raises(NotPointed):
        Cone.from_inequalities([(1, 0)])


def test_dual_description_drops_redundant_rays():
    cone = dual_description([(1, 0), (0, 1), (1, 1)])
    assert cone == dual_description([(1, 0), (0, 1)])
    # a generator in the relative interior of a facet is not extreme either
    square = dual_description([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])
    padded = dual_description(
        [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1), (1, 0, 2), (1, 1, 2)]
    )
    assert padded == square


def test_double_description_round_trip():
    for name, cone in corpus_cones().items():
        rebuilt = Cone.from_inequalities([f.coeffs for f in cone.facets])
        assert rebuilt.rays == cone.rays, name
        assert [f.coeffs for f in rebuilt.facets] == [f.coeffs for f in cone.facets]


def test_facet_values_on_rays():
    for name, cone in corpus_cones().items():
        for facet in cone.facets:
            for i, ray in enumerate(cone.rays):
                value = facet(ray)
                assert value >= 0
                assert (value == 0) == (i in facet.incident_rays), name


def test_faces_of_quadrant():
    cone = dual_description([(1, 0), (0, 1)])
    faces = faces_of(cone)
    assert len(faces) == 4
    assert sorted(f.dim for f in faces) == [0, 1, 1, 2]


def test_faces_of_half_line():
    cone = dual_description([(1,)])
    faces = faces_of(cone)
    assert len(faces) == 2
    assert sorted(f.dim for f in faces) == [0, 1]


def test_faces_of_square_cone_vs_bruteforce():
    cone = square_cone()
    faces = faces_of(cone)
    assert len(faces) == 10
    assert sorted(f.dim for f in faces) == [0, 1, 1, 1, 1, 2, 2, 2, 2, 3]
    # brute-force closure oracle: every subset of facets, dedup by tight rays
    seen = {}
    nf = len(cone.facets)
    for mask in range(1 << nf):
        rays = [
            i
            for i, r in enumerate(cone.rays)
            if all(cone.facets[j](r) == 0 for j in range(nf) if mask >> j & 1)
        ]
        seen[frozenset(rays)] = None
    assert {f.rays for f in faces} == set(seen)


def test_face_dimensions_are_ray_ranks():
    for name, cone in corpus_cones().items():
        for face in faces_of(cone):
            rays = [cone.rays[i] for i in face.rays]
            assert face.dim == (rank_over_field(rays) if rays else 0), name


def test_pentagon_hexagon_facet_counts():
    assert len(pentagon_cone().facets) == 5
    assert len(hexagon_cone().facets) == 6


def test_kernel_basis_empty_matrix():
    assert integer_kernel([], 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

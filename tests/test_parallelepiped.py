"""Fundamental-parallelepiped points by Smith normal form, against the box scan."""

from fractions import Fraction
from itertools import combinations, count, product
from math import gcd

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from recdom.enumerator import (
    HalfOpenCone,
    _face_decomposition,
    _parallelepiped_points,
    _pulling_triangulation,
    simplicial_gf,
)
from recdom.geometry import Cone, dot, faces_of, rank_over_field, smith_normal_form, solve_exact

ENTRIES = st.integers(-2, 2)


def oracle_parallelepiped_points(generators):
    """The former kernel: scan the bounding box, one exact solve per point."""
    d = len(generators[0])
    lows = [sum(min(0, v[i]) for v in generators) for i in range(d)]
    highs = [sum(max(0, v[i]) for v in generators) for i in range(d)]
    rows = [[v[i] for v in generators] for i in range(d)]
    points = []
    for z in product(*(range(lo, hi + 1) for lo, hi in zip(lows, highs))):
        lam = solve_exact(rows, z)
        if lam is None:
            continue
        if all(0 <= l < 1 for l in lam):
            points.append((z, lam))
    return points


def oracle_face_decomposition(cone, face):
    """The former construction of the face pieces: each wall covector by an
    exact Fraction solve (value 1 on its generator, 0 on the others), and the
    reference point sum_j b^-j v_j in Fractions."""
    simplices = _pulling_triangulation(cone, face)
    gens = {s: tuple(cone.rays[i] for i in s) for s in simplices}
    walls = {}
    for s in simplices:
        for i in range(len(s)):
            rows = [g for j, g in enumerate(gens[s]) if j != i] + [gens[s][i]]
            walls[(s, i)] = solve_exact(rows, [Fraction(0)] * (len(s) - 1) + [Fraction(1)])
    rays = [cone.rays[i] for i in sorted(face.rays)]
    for b in count(2):
        q = tuple(
            sum(Fraction(1, b) ** j * v[i] for j, v in enumerate(rays)) for i in range(cone.dim)
        )
        if all(dot(n, q) != 0 for n in walls.values()):
            break
    return tuple(
        HalfOpenCone(gens[s], tuple(dot(walls[(s, i)], q) < 0 for i in range(len(s))))
        for s in simplices
    )


def determinant(m):
    if not m:
        return 1
    return sum(
        (-1) ** j * m[0][j] * determinant([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(len(m))
        if m[0][j]
    )


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def lattice_index(generators):
    """Index of the generator lattice in the lattice points of its span: the
    gcd of the maximal minors of the generator matrix."""
    k, d = len(generators), len(generators[0])
    g = 0
    for coords in combinations(range(d), k):
        g = gcd(g, determinant([[v[i] for i in coords] for v in generators]))
    return g


@st.composite
def generator_sets(draw):
    d = draw(st.integers(1, 4))
    k = draw(st.integers(1, d))
    vectors = st.tuples(*[ENTRIES] * d)
    return tuple(draw(st.lists(vectors, min_size=k, max_size=k)))


@st.composite
def integer_matrices(draw):
    n_rows = draw(st.integers(1, 4))
    n_cols = draw(st.integers(1, 4))
    row = st.lists(st.integers(-6, 6), min_size=n_cols, max_size=n_cols)
    return draw(st.lists(row, min_size=n_rows, max_size=n_rows))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(generator_sets())
# Smith forms with more than one diagonal entry above 1, which random sets
# of small entries rarely have: (2, 4), (2, 4) with k < d, and (2, 2, 4).
@example(((2, 2), (-2, 2)))
@example(((2, 2, 0), (-2, 2, 0)))
@example(((2, 0, 0), (0, 2, 2), (0, -2, 2)))
def test_parallelepiped_points_match_box_scan(gens):
    assume(rank_over_field(gens) == len(gens))
    # the coefficients come as integer numerators over the last Smith
    # diagonal entry of the generator matrix
    denom = smith_normal_form([[v[i] for v in gens] for i in range(len(gens[0]))])[1][-1]
    points = [
        (z, tuple(Fraction(n, denom) for n in nums)) for z, nums in _parallelepiped_points(gens)
    ]
    assert points == oracle_parallelepiped_points(gens)


@st.composite
def pointed_cones(draw):
    """A pointed full-dimensional cone in R^2..R^4 spanned by at most 7
    integer rays, each with a positive last coordinate."""
    dim = draw(st.integers(2, 4))
    ray = st.tuples(*[st.integers(-3, 3)] * (dim - 1), st.integers(1, 3))
    rays = draw(st.lists(ray, min_size=dim, max_size=7, unique=True))
    assume(rank_over_field(rays) == dim)
    return Cone.from_rays(rays)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(pointed_cones())
def test_face_pieces_match_fraction_oracle(cone):
    for face in faces_of(cone):
        assert _face_decomposition.__wrapped__(cone, face) == oracle_face_decomposition(cone, face)


def oracle_pulling_triangulation(cone, face):
    """The enumerator's former recursion: a simplicial face is its own
    simplex, any other is coned from its smallest ray over the pieces of
    its facets that miss that ray."""
    ray_list = sorted(face.rays)
    if len(ray_list) == face.dim:
        return (tuple(ray_list),)
    apex = ray_list[0]
    simplices = []
    for sub in faces_of(cone):
        if sub.dim == face.dim - 1 and apex not in sub.rays and sub.rays < face.rays:
            for s in oracle_pulling_triangulation(cone, sub):
                simplices.append(tuple(sorted((apex,) + s)))
    return tuple(sorted(simplices))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(pointed_cones())
def test_pulling_triangulation_matches_former_recursion(cone):
    for face in faces_of(cone):
        assert _pulling_triangulation.__wrapped__(cone, face) == oracle_pulling_triangulation(cone, face)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(integer_matrices())
def test_smith_normal_form(matrix):
    p_inv, diagonal, q = smith_normal_form(matrix)
    n_rows, n_cols = len(matrix), len(matrix[0])
    assert len(diagonal) == min(n_rows, n_cols)
    d = [[diagonal[i] if i == j else 0 for j in range(n_cols)] for i in range(n_rows)]
    assert matmul(matrix, q) == matmul(p_inv, d)
    assert abs(determinant(p_inv)) == 1
    assert abs(determinant(q)) == 1
    assert all(a >= 0 for a in diagonal)
    assert all(b % a == 0 if a else b == 0 for a, b in zip(diagonal, diagonal[1:]))
    assert sum(1 for a in diagonal if a) == rank_over_field(matrix)


def test_smith_normal_form_known_case():
    # the lattice spanned by (2, 0) and (1, 3) has index 6 in Z^2
    assert smith_normal_form([[2, 1], [0, 3]])[1] == [1, 6]
    assert smith_normal_form([[2, 0], [0, 4], [0, 0]])[1] == [2, 4]
    assert smith_normal_form([[0, 0]])[1] == [0]


def test_open_walls_length_must_match_generators():
    with pytest.raises(ValueError, match="1 wall flags for 2 generators"):
        simplicial_gf(((1, 0), (0, 1)), (True,))
    with pytest.raises(ValueError, match="3 wall flags for 2 generators"):
        simplicial_gf(((1, 0), (0, 1)), (True, False, False))


def test_ragged_or_missing_generators_are_rejected():
    with pytest.raises(ValueError, match="one length"):
        simplicial_gf(((1, 0), (0, 1, 1)))
    with pytest.raises(ValueError, match="one length"):
        simplicial_gf(())


def test_dilated_square_numerators_need_no_fraction_solves(fraction_solves):
    # Work guard: every face piece of the square cone dilated by 20, walls
    # and all, and its numerator of exactly |det| points (the index of its
    # generator lattice) come without a single Fraction row reduction.
    k = 20
    cone = Cone.from_rays([(0, 0, 1), (k, 0, 1), (0, k, 1), (k, k, 1)])
    pieces = [
        piece
        for face in faces_of(cone)
        if face.dim > 0
        for piece in _face_decomposition.__wrapped__(cone, face)
    ]
    sizes = []
    for piece in pieces:
        gf = simplicial_gf(piece.generators, piece.open_walls)
        assert sum(gf.numerator.terms.values()) == lattice_index(piece.generators)
        sizes.append(len(piece.generators))
    assert fraction_solves == []
    assert sorted(set(sizes)) == [1, 2, 3]
    assert max(lattice_index(piece.generators) for piece in pieces) == k * k

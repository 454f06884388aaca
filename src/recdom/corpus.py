"""Built-in cones and complexes shared by the tests and the corpus runner."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations, product

from .geometry import Cone, NotFullDimensional
from .lifting import embedded_complex
from .topology import PolyhedralComplex, SimplicialComplex


def quadrant() -> Cone:
    return Cone.from_rays([(1, 0), (0, 1)])


def square_cone() -> Cone:
    return Cone.from_rays([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])


def polygon_cone(polygon) -> Cone:
    """Cone over a convex lattice polygon placed at height 1."""
    return Cone.from_rays([(x, y, 1) for x, y in polygon])


def pentagon_cone() -> Cone:
    return polygon_cone([(0, 0), (1, 0), (2, 1), (1, 2), (0, 1)])


def hexagon_cone() -> Cone:
    return polygon_cone([(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)])


def random_polygon_cone(seed: int) -> Cone:
    """Seeded random 3-dimensional pointed cone over a lattice polygon with 4
    to 8 vertices."""
    rng = random.Random(seed)
    while True:
        sample = {(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(10)}
        try:
            cone = polygon_cone(sample)
        except NotFullDimensional:
            continue
        if 4 <= len(cone.rays) <= 8:
            return cone


def corpus_cones(seed: int = 0) -> dict[str, Cone]:
    return {
        "quadrant": quadrant(),
        "square": square_cone(),
        "pentagon": pentagon_cone(),
        "hexagon": hexagon_cone(),
        "random-1": random_polygon_cone(2 * seed + 1),
        "random-2": random_polygon_cone(2 * seed + 2),
    }


def facet_pairs_sharing_no_ray(cone: Cone):
    """Facet index pairs with disjoint incident rays ("opposite" pairs)."""
    pairs = []
    for i, j in combinations(range(len(cone.facets)), 2):
        if not cone.facets[i].incident_rays & cone.facets[j].incident_rays:
            pairs.append(frozenset((i, j)))
    return pairs


def facet_pairs_sharing_a_ray(cone: Cone):
    """Facet index pairs whose incident rays meet ("adjacent" pairs)."""
    pairs = []
    for i, j in combinations(range(len(cone.facets)), 2):
        if cone.facets[i].incident_rays & cone.facets[j].incident_rays:
            pairs.append(frozenset((i, j)))
    return pairs


# ---------------------------------------------------------------------------
# simplicial complexes


def two_points() -> SimplicialComplex:
    return SimplicialComplex.from_faces(2, [(0,), (1,)])


def path_complex(n_edges: int) -> SimplicialComplex:
    return SimplicialComplex.from_faces(
        n_edges + 1, [(i, i + 1) for i in range(n_edges)]
    )


def cycle_complex(n: int) -> SimplicialComplex:
    return SimplicialComplex.from_faces(n, [(i, (i + 1) % n) for i in range(n)])


def hollow_triangle() -> SimplicialComplex:
    return cycle_complex(3)


def two_triangles() -> SimplicialComplex:
    return SimplicialComplex.from_faces(4, [(0, 1, 2), (1, 2, 3)])


def three_triangles_on_edge() -> SimplicialComplex:
    return SimplicialComplex.from_faces(5, [(0, 1, 2), (0, 1, 3), (0, 1, 4)])


def two_disjoint_edges() -> SimplicialComplex:
    return SimplicialComplex.from_faces(4, [(0, 1), (2, 3)])


def tetrahedron_ball() -> SimplicialComplex:
    return SimplicialComplex.from_faces(4, [(0, 1, 2, 3)])


def tetrahedron_boundary() -> SimplicialComplex:
    return SimplicialComplex.from_faces(4, list(combinations(range(4), 3)))


def annulus() -> SimplicialComplex:
    return SimplicialComplex.from_faces(
        6,
        [(0, 1, 3), (1, 4, 3), (1, 2, 4), (2, 5, 4), (2, 0, 5), (0, 3, 5)],
    )


def projective_plane() -> SimplicialComplex:
    """The 6-vertex triangulation of the real projective plane."""
    return SimplicialComplex.from_faces(
        6,
        [
            (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
            (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5),
        ],
    )


def cubical_complex(cubes) -> SimplicialComplex:
    """Union of unit grid cubes, each split into six tetrahedra.

    The split follows sorted-coordinate chains, so neighbouring cubes agree
    on their shared faces."""
    cubes = sorted(set(tuple(c) for c in cubes))
    corners = sorted(
        {tuple(c + o for c, o in zip(cube, offset)) for cube in cubes for offset in product((0, 1), repeat=3)}
    )
    index = {c: i for i, c in enumerate(corners)}
    tetrahedra = []
    for cube in cubes:
        for axes in permutations(range(3)):
            chain = [tuple(cube)]
            for axis in axes:
                prev = chain[-1]
                nxt = list(prev)
                nxt[axis] += 1
                chain.append(tuple(nxt))
            tetrahedra.append(tuple(sorted(index[p] for p in chain)))
    return SimplicialComplex.from_faces(len(corners), tetrahedra)


def solid_torus() -> SimplicialComplex:
    """A 3 x 3 x 1 slab of cubes with the middle cube removed."""
    cells = [(x, y, 0) for x in range(3) for y in range(3) if (x, y) != (1, 1)]
    return cubical_complex(cells)


def genus2_handlebody() -> SimplicialComplex:
    """A 5 x 3 x 1 slab with two separated through-holes."""
    cells = [
        (x, y, 0)
        for x in range(5)
        for y in range(3)
        if (x, y) not in ((1, 1), (3, 1))
    ]
    return cubical_complex(cells)


def corpus_complexes() -> dict[str, SimplicialComplex]:
    """Small complexes for the homology and subdivision invariants."""
    return {
        "two-points": two_points(),
        "path-3": path_complex(3),
        "hollow-triangle": hollow_triangle(),
        "two-triangles": two_triangles(),
        "two-disjoint-edges": two_disjoint_edges(),
        "annulus": annulus(),
        "tetra-ball": tetrahedron_ball(),
        "tetra-boundary": tetrahedron_boundary(),
        "projective-plane": projective_plane(),
    }


# ---------------------------------------------------------------------------
# embedded complexes


def two_segments_1d() -> PolyhedralComplex:
    return embedded_complex([(0,), (1,), (2,), (3,)], [(0, 1), (2, 3)])


def one_point_1d() -> PolyhedralComplex:
    return embedded_complex([(1,)], [(0,)])


def two_triangles_2d() -> PolyhedralComplex:
    return embedded_complex(
        [(0, 0), (1, 0), (0, 1), (1, 1)], [(0, 1, 2), (1, 2, 3)]
    )


def unit_square_2d() -> PolyhedralComplex:
    return embedded_complex([(0, 0), (1, 0), (0, 1), (1, 1)], [(0, 1, 2, 3)])


def segment_2d() -> PolyhedralComplex:
    return embedded_complex([(0, 0), (2, 1)], [(0, 1)])


def cube_vertices():
    return [tuple(Fraction(c) for c in corner) for corner in product((0, 1), repeat=3)]

"""Embedding validation, Schlegel projection, subdivision, and lifting."""

import json
import os
import random
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

from recdom import geometry, jsonio, lifting
from recdom.corpus import (
    cube_vertices,
    cubical_complex,
    one_point_1d,
    segment_2d,
    two_segments_1d,
    two_triangles_2d,
    unit_square_2d,
)
from recdom.geometry import QQ, GF2, dot
from recdom.lifting import (
    AffineHyperplane,
    Arrangement,
    ArrangementDoesNotCover,
    SubcomplexTouchesAvoidedFacet,
    cell_affine_piece,
    cell_measure,
    covering_arrangement,
    embedded_complex,
    induced_subdivision,
    lift,
    lift_height,
    schlegel,
    support_measure,
    verify_embedding,
    verify_lower_hull,
)
from recdom.topology import Cell, PolyhedralComplex, barycentric, reduced_homology


def test_verify_embedding_shared_edge():
    assert verify_embedding(two_triangles_2d())


def test_verify_embedding_overlapping_squares():
    vertices = [
        (0, 0), (2, 0), (0, 2), (2, 2),
        (1, 1), (3, 1), (1, 3), (3, 3),
    ]
    pc = embedded_complex(vertices, [(0, 1, 2, 3)])
    shifted = embedded_complex(vertices, [(4, 5, 6, 7)])
    combined_cells = pc.cells + shifted.cells
    from recdom.topology import PolyhedralComplex

    bad = PolyhedralComplex(pc.vertices, combined_cells)
    assert not verify_embedding(bad)


def test_verify_embedding_vertex_not_shared():
    # two segments crossing in their interiors
    pc = embedded_complex([(0, 0), (2, 2)], [(0, 1)])
    from recdom.topology import PolyhedralComplex

    other = embedded_complex([(0, 2), (2, 0)], [(0, 1)])
    vertices = pc.vertices + other.vertices
    cells = pc.cells + tuple(
        type(c)(tuple(v + 2 for v in c.vertices), c.dim) for c in other.cells
    )
    assert not verify_embedding(PolyhedralComplex(vertices, cells))


# -- schlegel ----------------------------------------------------------------------


def test_schlegel_cube_two_squares():
    cube = cube_vertices()
    # squares z=0 {0,2,4,6} and y=0 {0,1,4,5}, avoid z=1 facet {1,3,5,7}
    out = schlegel(cube, [(0, 2, 4, 6), (0, 1, 4, 5)], 5)
    assert out.ambient_dim == 2
    maximal = out.maximal_cells()
    assert len(maximal) == 2
    assert all(len(c.vertices) == 4 and c.dim == 2 for c in maximal)
    shared = set(maximal[0].vertices) & set(maximal[1].vertices)
    assert len(shared) == 2  # one common edge
    assert verify_embedding(out)


def test_schlegel_tetrahedron_triangle():
    tet = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    out = schlegel(tet, [(1, 2, 3)], 0)
    assert out.ambient_dim == 2
    assert [c.dim for c in out.maximal_cells()] == [2]
    assert verify_embedding(out)


def test_schlegel_rejects_kept_avoided_facet():
    cube = cube_vertices()
    with pytest.raises(SubcomplexTouchesAvoidedFacet):
        schlegel(cube, [(1, 3, 5, 7)], 5)


def test_schlegel_rejects_non_face():
    cube = cube_vertices()
    with pytest.raises(ValueError):
        schlegel(cube, [(0, 3, 5)], 5)
    # the square {0, 2, 4, 6} is a face, but not with a vertex listed twice
    with pytest.raises(ValueError):
        schlegel(cube, [(0, 0, 2, 4, 6)], 5)


def test_schlegel_of_cone_selection():
    from recdom.corpus import facet_pairs_sharing_a_ray, pentagon_cone, square_cone
    from recdom.enumerator import FacetSelection
    from recdom.lifting import schlegel_of_selection

    pent = pentagon_cone()
    pair = facet_pairs_sharing_a_ray(pent)[0]
    used = set().union(*(pent.facets[i].incident_rays for i in pair))
    avoid = next(
        i
        for i in range(5)
        if i not in pair and not (pent.facets[i].incident_rays & used)
    )
    out = schlegel_of_selection(FacetSelection(pent, pair), avoid)
    assert out.ambient_dim == 1
    maximal = out.maximal_cells()
    assert len(maximal) == 2 and all(c.dim == 1 for c in maximal)
    # the two segments share one endpoint: a path, as in the cross-section
    assert len(set(maximal[0].vertices) & set(maximal[1].vertices)) == 1

    square = square_cone()
    out2 = schlegel_of_selection(FacetSelection(square, frozenset({0})), 3)
    assert out2.ambient_dim == 1 and len(out2.maximal_cells()) == 1


def test_lift_lower_dimensional_cell_in_plane():
    result = lift(segment_2d())
    assert verify_lower_hull(result)
    assert result.lifted_complex.cells == result.subdivision.cells
    # every subdivision vertex carries height zero on its own hull line only
    # if no other cuts pass through it; values are just checked for exactness
    for i, v in enumerate(result.subdivision.vertices):
        assert result.lift_values[i] == lift_height(result.arrangement, v)


# -- induced subdivision --------------------------------------------------------------


def test_subdivision_segment():
    seg = embedded_complex([(0,), (2,)], [(0, 1)])
    arr = Arrangement(
        (AffineHyperplane((1,), 0), AffineHyperplane((1,), 1), AffineHyperplane((1,), 2))
    )
    sub = induced_subdivision(seg, arr)
    assert [c.vertices for c in sub.maximal_cells()] == [(0, 1), (1, 2)]
    assert support_measure(sub) == support_measure(seg) == 2


def test_subdivision_square_with_diagonal():
    square = unit_square_2d()
    arr = Arrangement(
        (
            AffineHyperplane((1, 0), 0),
            AffineHyperplane((1, 0), 1),
            AffineHyperplane((0, 1), 0),
            AffineHyperplane((0, 1), 1),
            AffineHyperplane((1, -1), 0),
        )
    )
    sub = induced_subdivision(square, arr)
    maximal = sub.maximal_cells()
    assert len(maximal) == 2
    assert all(len(c.vertices) == 3 for c in maximal)
    assert support_measure(sub) == 1
    assert verify_embedding(sub)


def test_cell_measure_in_every_dimension():
    assert cell_measure([(3,), (1,), (Fraction(5, 2),)]) == 2
    # a point inside the cell and one on an edge are not vertices
    assert cell_measure([(1, 1), (0, 0), (2, 0), (1, 0), (0, 2), (2, 2)]) == 4
    assert cell_measure([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]) == Fraction(1, 6)
    box = [(x, y, z) for x in (0, 2) for y in (0, 3) for z in (0, 1)]
    assert cell_measure([(1, 1, Fraction(1, 2))] + box) == 6
    octahedron = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    assert cell_measure(octahedron) == Fraction(4, 3)


def test_subdivision_compatible_arrangement_is_identity():
    square = unit_square_2d()
    arr = covering_arrangement(square)
    sub = induced_subdivision(square, arr)
    assert {c.vertices for c in sub.maximal_cells()} == {(0, 1, 2, 3)}
    assert len(sub.cells) == len(square.cells)


def test_subdivision_cover_check():
    seg = embedded_complex([(0,), (2,)], [(0, 1)])
    missing = Arrangement((AffineHyperplane((1,), 0),))  # no cut at x = 2
    with pytest.raises(ArrangementDoesNotCover):
        induced_subdivision(seg, missing)
    # three planes through a point of R^3 that all contain the z-axis
    point = embedded_complex([(0, 0, 0)], [(0,)])
    pencil = Arrangement(
        (AffineHyperplane((1, 0, 0), 0), AffineHyperplane((0, 1, 0), 0), AffineHyperplane((1, 1, 0), 0))
    )
    with pytest.raises(ArrangementDoesNotCover):
        induced_subdivision(point, pencil)


def test_lift_needs_a_complex_closed_under_faces():
    # the arrangement is the cells' hull equations, so a triangle listed
    # without its edges leaves every edge uncut
    bare = PolyhedralComplex(((0, 0), (1, 0), (0, 1)), (Cell((0, 1, 2), 2),))
    assert covering_arrangement(bare).hyperplanes == ()
    with pytest.raises(ArrangementDoesNotCover, match="not covered"):
        lift(bare)
    closed = embedded_complex(bare.vertices, [(0, 1, 2)])
    assert verify_lower_hull(lift(closed))


def test_lift_checks_a_cell_that_is_not_a_face_on_its_own():
    # a triangle on three corners of a square is not a face of it, and no
    # cell lies on its diagonal, so the triangle is not covered although
    # the square is
    square = embedded_complex([(0, 0), (1, 0), (0, 1), (1, 1)], [(0, 1, 2, 3)])
    pc = PolyhedralComplex(square.vertices, square.cells + (Cell((0, 1, 3), 2),))
    assert not verify_embedding(pc)
    with pytest.raises(ArrangementDoesNotCover, match=r"cell \(0, 1, 3\) is not covered"):
        lift(pc)


def test_covering_arrangement_covers_own_complex():
    for pc in (two_segments_1d(), two_triangles_2d(), segment_2d()):
        arr = covering_arrangement(pc)
        induced_subdivision(pc, arr)  # raises if not covered


# -- lift --------------------------------------------------------------------------


def test_lift_two_segments_breakpoints():
    result = lift(two_segments_1d())
    assert result.lift_values == (Fraction(6), Fraction(4), Fraction(4), Fraction(6))
    assert result.max_value == 6 and result.margin == 1
    assert verify_lower_hull(result)
    # the lifted graph cells are exactly the two segments, projecting back
    assert result.lifted_complex.cells == result.subdivision.cells
    assert [c.vertices for c in result.subdivision.maximal_cells()] == [(0, 1), (2, 3)]
    lower = {
        (Fraction(0), Fraction(6)),
        (Fraction(1), Fraction(4)),
        (Fraction(2), Fraction(4)),
        (Fraction(3), Fraction(6)),
    }
    assert lower <= set(result.polytope_vertices)


def test_lower_hull_check_on_rational_heights_and_altered_lifts():
    # half-integer vertices give heights 4, 5/2, 7/2, which the check
    # compares by cross-multiplying; a changed height, or a lifted vertex
    # sunk below its cell's piece, must fail it
    result = lift(embedded_complex([(0,), (Fraction(1, 2),), (Fraction(3, 2),)], [(0, 1), (1, 2)]))
    assert result.lift_values == (4, Fraction(5, 2), Fraction(7, 2))
    assert verify_lower_hull(result)
    raised = (result.lift_values[0], result.lift_values[1] + Fraction(1, 3), result.lift_values[2])
    assert not verify_lower_hull(replace(result, lift_values=raised))
    lifted = result.subdivision.vertices[1] + (result.lift_values[1],)
    assert lifted in result.polytope_vertices
    sunk = tuple(v[:-1] + (v[-1] - 1,) if v == lifted else v for v in result.polytope_vertices)
    assert not verify_lower_hull(replace(result, polytope_vertices=sunk))


def test_lift_single_point():
    result = lift(one_point_1d())
    assert result.max_value == 0
    lifted_vertex = result.lifted_complex.vertices[0]
    assert lifted_vertex in result.polytope_vertices


def test_lift_two_triangles():
    source = two_triangles_2d()
    result = lift(source)
    assert verify_lower_hull(result)
    assert support_measure(result.subdivision) == support_measure(source)
    assert result.lifted_complex.cells == result.subdivision.cells
    # gradient changes across the shared wall
    pieces = [cell_affine_piece(result, c) for c in result.subdivision.maximal_cells()]
    assert pieces[0][0] != pieces[1][0]
    # but both pieces agree on the shared edge
    shared = set(result.subdivision.maximal_cells()[0].vertices) & set(
        result.subdivision.maximal_cells()[1].vertices
    )
    for i in shared:
        x = result.subdivision.point(i)
        for coeffs, offset in pieces:
            assert dot(coeffs, x) - offset == result.lift_values[i]


def _lift_3d(vertices, cells):
    pc = embedded_complex(vertices, cells)
    assert verify_embedding(pc)
    result = lift(pc)
    assert verify_lower_hull(result)
    assert result.lifted_complex.cells == result.subdivision.cells
    assert {c.dim for c in result.subdivision.maximal_cells()} == {3}
    assert set(pc.vertices) <= set(result.subdivision.vertices)
    assert support_measure(result.subdivision) == support_measure(pc)
    return result


def test_lift_tetrahedron_in_r3():
    _lift_3d([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 1, 2, 3)])


def test_lift_two_tetrahedra_sharing_a_face_in_r3():
    vertices = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
    result = _lift_3d(vertices, [(0, 1, 2, 3), (1, 2, 3, 4)])
    # the height bends where the diagonal crosses the shared face x + y + z = 1
    diagonal = [(Fraction(k, 5),) * 3 for k in (1, 2, 3)]
    heights = [lift_height(result.arrangement, p) for p in diagonal]
    assert heights[0] + heights[2] > 2 * heights[1]


def _work(monkeypatch, run, *args, names=("extreme_rays", "_Polytope")):
    """Calls of the lifting module's ``names`` (``extreme_rays`` and
    ``_Polytope`` constructions by default) in ``run(*args)``, counted
    through the attributes the module looks them up by, and calls of the
    Fraction ``geometry.rref``, which lifting has no use for, through every
    recdom module that binds it."""
    counts = dict.fromkeys(names + ("rref",), 0)

    def counting(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(lifting, name, counting(name, getattr(lifting, name)))
    rref = geometry.rref
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("recdom") and getattr(module, "rref", None) is rref:
            monkeypatch.setattr(module, "rref", counting("rref", rref))
    outcome = run(*args)
    monkeypatch.undo()
    return counts, outcome


def _pinned_inputs():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "data", "two_triangles.json")
    with open(path) as handle:
        triangles = jsonio.embedded_from_dict(json.load(handle))
    assert len(triangles.cells) == 11  # 2 triangles, 5 edges, 4 vertices
    tetrahedron = embedded_complex([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 1, 2, 3)])
    assert len(tetrahedron.cells) == 15  # 1 solid, 4 triangles, 6 edges, 4 vertices
    return triangles, tetrahedron


def _lift_and_check(pc):
    result = lift(pc)
    return verify_lower_hull(result)


def test_lift_work_is_pinned(monkeypatch):
    # The maximal cells' polytopes, which the subdivision cover-checks and
    # cuts (every other cell is a face of one, so needs none), are the ones
    # embedded_complex built and the complex keeps.  The lift builds one
    # _Polytope, for the box, and none in the cut loop or for the covering
    # arrangement, which reads hull equations off the points; one
    # extreme_rays call for the box's facets and one for the lifted
    # polytope's vertices.  Neither building the inputs, nor the lift and
    # its check, nor a Schlegel projection makes a Fraction row reduction.
    # A polytope reads its facets off the cone of its homogeneous vertex
    # rows, so building the inputs makes no chart (no dual_rows call); a
    # Schlegel projection makes two, the polytope's and the avoided facet's.
    counts, (triangles, tetrahedron) = _work(monkeypatch, _pinned_inputs, names=("dual_rows",))
    assert counts == {"dual_rows": 0, "rref": 0}
    counts, verified = _work(monkeypatch, _lift_and_check, triangles)
    assert verified and counts == {"extreme_rays": 1 + 1, "_Polytope": 1, "rref": 0}
    counts, verified = _work(monkeypatch, _lift_and_check, tetrahedron)
    assert verified and counts == {"extreme_rays": 1 + 1, "_Polytope": 1, "rref": 0}
    counts, out = _work(
        monkeypatch, schlegel, cube_vertices(), [(0, 2, 4, 6), (0, 1, 4, 5)], 5, names=("dual_rows",)
    )
    assert len(out.maximal_cells()) == 2 and counts == {"dual_rows": 2, "rref": 0}


def test_verify_embedding_work_is_pinned(monkeypatch):
    # The maximal cells' polytopes, kept on the complex by embedded_complex,
    # whose facets and hull equations every pair reuses, and a combinatorial
    # face test for every cell: no _Polytope built, one H-to-V pass (one
    # extreme_rays call) per pair of maximal cells whose bounding boxes meet
    # (the one pair of the triangles, none for the lone tetrahedron), one
    # integer_kernel call per cell in such a pair, and no Fraction row
    # reduction.
    names = ("extreme_rays", "_Polytope", "integer_kernel")
    triangles, tetrahedron = _pinned_inputs()
    counts, embedded = _work(monkeypatch, verify_embedding, triangles, names=names)
    assert embedded and counts == {
        "extreme_rays": 1, "_Polytope": 0, "integer_kernel": 2, "rref": 0
    }
    counts, embedded = _work(monkeypatch, verify_embedding, tetrahedron, names=names)
    assert embedded and counts == {
        "extreme_rays": 0, "_Polytope": 0, "integer_kernel": 0, "rref": 0
    }


def _embed_verify_lift(vertices, cells):
    pc = embedded_complex(vertices, cells)
    return pc, verify_embedding(pc) and verify_lower_hull(lift(pc))


def test_embed_verify_lift_builds_each_maximal_cell_once(monkeypatch):
    # embedded_complex builds the maximal cells' polytopes and the complex
    # keeps them, so the embedding check and the lift build only the box
    triangles = ([(0, 0), (1, 0), (0, 1), (1, 1)], [(0, 1, 2), (1, 2, 3)])
    tetrahedron = ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 1, 2, 3)])
    for vertices, cells in (triangles, tetrahedron, _cube_slab()):
        counts, (pc, verified) = _work(
            monkeypatch, _embed_verify_lift, vertices, cells, names=("_Polytope",)
        )
        assert verified and counts == {"_Polytope": len(pc.maximal_cells()) + 1, "rref": 0}


def _cube_slab():
    """The 2x2x1 slab of unit cubes, each split into six tetrahedra."""
    sc = cubical_complex([(x, y, 0) for x in range(2) for y in range(2)])
    corners = sorted({(x, y, z) for x in range(3) for y in range(3) for z in range(2)})
    return corners, sorted(sc.facets)


def test_cube_slab_is_embedded_and_lifts(monkeypatch):
    # 24 tetrahedra and 163 cells, whose 24 polytopes the embedding check
    # and the volume read off the complex, where embedded_complex left them
    pc = embedded_complex(*_cube_slab())
    assert len(pc.maximal_cells()) == 24 and len(pc.cells) == 163
    counts, embedded = _work(monkeypatch, verify_embedding, pc, names=("_Polytope",))
    assert embedded and counts == {"_Polytope": 0, "rref": 0}
    counts, measure = _work(monkeypatch, support_measure, pc, names=("_Polytope",))
    assert measure == 4 and counts == {"_Polytope": 0, "rref": 0}
    result = lift(pc)
    assert verify_lower_hull(result)
    assert support_measure(result.subdivision) == support_measure(pc) == 4


def test_schlegel_of_selection_builds_the_cross_section_once(monkeypatch):
    # one _Polytope for the cone's cross-section, which both finds the
    # avoided facet and is projected, and one for each of the image's two
    # maximal cells in the embedding check
    from recdom.corpus import pentagon_cone
    from recdom.enumerator import FacetSelection
    from recdom.lifting import schlegel_of_selection

    selection = FacetSelection(pentagon_cone(), frozenset({0, 1}))
    counts, out = _work(monkeypatch, schlegel_of_selection, selection, 3, names=("_Polytope",))
    assert len(out.maximal_cells()) == 2
    assert counts == {"_Polytope": 3, "rref": 0}


def test_lift_height_convexity_seeded():
    for source in (two_segments_1d(), two_triangles_2d()):
        result = lift(source)
        rng = random.Random(11)
        cells = result.subdivision.maximal_cells()
        for _ in range(100):
            pts = []
            for _ in range(2):
                cell = cells[rng.randrange(len(cells))]
                corners = result.subdivision.cell_points(cell)
                weights = [Fraction(rng.randint(1, 9)) for _ in corners]
                total = sum(weights)
                pts.append(
                    tuple(
                        sum(w * p[i] for w, p in zip(weights, corners)) / total
                        for i in range(result.subdivision.ambient_dim)
                    )
                )
            a, b = pts
            mid = tuple((x + y) / 2 for x, y in zip(a, b))
            fa = lift_height(result.arrangement, a)
            fb = lift_height(result.arrangement, b)
            fm = lift_height(result.arrangement, mid)
            assert 2 * fm <= fa + fb


def test_lift_height_affine_on_each_cell():
    result = lift(two_triangles_2d())
    for cell in result.subdivision.maximal_cells():
        coeffs, offset = cell_affine_piece(result, cell)
        for i in cell.vertices:
            x = result.subdivision.point(i)
            assert dot(coeffs, x) - offset == lift_height(result.arrangement, x)
        corners = result.subdivision.cell_points(cell)
        mid = tuple(sum(p[i] for p in corners) / len(corners) for i in range(2))
        assert dot(coeffs, mid) - offset == lift_height(result.arrangement, mid)


def test_lift_then_schlegel_round_trip():
    result = lift(two_segments_1d())
    verts = result.polytope_vertices
    # identify the lifted cells inside the polytope vertex list
    index = {v: i for i, v in enumerate(verts)}
    lifted_cells = []
    for cell in result.lifted_complex.maximal_cells():
        ids = tuple(
            sorted(index[result.lifted_complex.point(i)] for i in cell.vertices)
        )
        lifted_cells.append(ids)
    # the top facet t = M + 1 is the facet whose vertices all have last coord
    # 7; Schlegel indexes the facets in its chart's order
    from recdom.lifting import _chart, _Polytope

    _, facets = _chart(_Polytope(verts))
    top = next(
        i
        for i, (_, tight) in enumerate(facets)
        if all(verts[j][-1] == result.max_value + 1 for j in tight)
    )
    out = schlegel(verts, lifted_cells, top)
    assert out.ambient_dim == 1
    assert len(out.maximal_cells()) == 2
    assert all(c.dim == 1 for c in out.maximal_cells())
    # same face lattice as the subdivision: cell-count profile by dimension
    assert sorted((c.dim, len(c.vertices)) for c in out.cells) == sorted(
        (c.dim, len(c.vertices)) for c in result.subdivision.cells
    )
    assert verify_embedding(out)


def test_homology_agrees_for_input_subdivision_and_lift():
    for source in (two_segments_1d(), two_triangles_2d()):
        result = lift(source)
        reference = reduced_homology(barycentric(source), QQ).betti
        for complex_ in (result.subdivision, result.lifted_complex):
            assert reduced_homology(barycentric(complex_), QQ).betti == reference


def test_acyclicity_of_embedded_cm_complexes():
    # full-dimensional embedded complexes that are CM must be acyclic
    from recdom.topology import is_cohen_macaulay

    cases = [two_segments_1d(), two_triangles_2d(), unit_square_2d()]
    for pc in cases:
        sd = barycentric(pc)
        for field in (QQ, GF2):
            if is_cohen_macaulay(sd, field).is_cm and pc.dim == pc.ambient_dim:
                assert all(b == 0 for b in reduced_homology(sd, field).betti)

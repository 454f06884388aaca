"""Piecewise-linear embeddings and convex lifting.

An embedded complex is a :class:`~recdom.topology.PolyhedralComplex` whose
rational coordinates realize a PL embedding: any two cells meet in a common
(possibly empty) face.  This module validates that property exactly, projects
boundary subcomplexes of a polytope into the hyperplane of an avoided facet,
slices complexes along hyperplane arrangements, and lifts an embedded complex
onto the lower hull of a polytope one dimension up via the convex height
``sum_i |a_i . x - b_i|``.

The work is integer arithmetic from the input points to the output points.
A :class:`_Polytope` puts a cell's points x over one common denominator S
as homogeneous integer rows (x.S, S) and runs the integer double-description
kernel :func:`~recdom.geometry.extreme_rays` once on the cone {y : row.y >=
0} they cut out, the affine functions nonnegative on the cell.  Its
lineality space gives the dimension, and its extreme rays that vanish on
some vertex are the facets, in ambient coordinates.  The hull equations come
from the fraction-free :func:`~recdom.geometry.integer_kernel` on the
differences D = P_i - P_0 of the integer points P = x.S that are independent
of those before them.  Only the Schlegel projection works in a chart of the
affine hull, with D as its basis (:func:`_chart`).  Only maximal cells become
polytopes, built once per complex and kept on it, which the embedding check
intersects pairwise and the subdivision cuts; every other cell is tested as
a face of a maximal cell, combinatorially: a vertex set is a face when the
facets through it meet in exactly that set.

The covering arrangement is the set of the cells' hull equations, read
straight off each cell's points.  The complex is closed under faces, so each
facet of a cell is a cell, and one of its hull equations cuts the facet off
the rest of the cell.

Slicing works on homogeneous integer rows.  A region carries each vertex x as
a row (x.s, s) with s > 0, plus its facet vertex sets.  A hyperplane's value
on a row is an integer with the sign of its value at x, so a cut needs no
fractions: it follows the region's edge graph (two vertices span an edge
when no third vertex lies on every facet through both), the crossing point
of an edge uv is the primitive row of V_u.row_v - V_v.row_u, and each half's
vertices and facets follow from the parent's.  Rational points reappear only
when the faces of the final pieces are read off
:func:`~recdom.geometry.graded_closure`.  The lift cuts a bounding box the
same way and reads each piece's signs off the sum of its rows, a point
inside it; the lower-hull check reads each cell's piece off the same sum,
and the height at x is the sum of |h(row)| over the hyperplanes, divided by
s.

The Euclidean distance to a hyperplane is replaced throughout by the absolute
functional value: it is piecewise linear and convex with the same domains of
linearity, and it keeps every computation rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import ceil, factorial, floor

from .geometry import (
    InvariantViolation,
    common_denominator,
    cross_section_vertices,
    dot,
    dual_rows,
    extreme_rays,
    fraction_free_rref,
    graded_closure,
    integer_kernel,
    primitive,
    primitive_rational,
    pulling_simplices,
    rank_over_field,
)
from .topology import Cell, PolyhedralComplex


class SubcomplexTouchesAvoidedFacet(ValueError):
    """The kept subcomplex meets the facet chosen for projection."""


class ArrangementDoesNotCover(ValueError):
    """Some cell is not an intersection of halfspaces from the arrangement."""


Point = tuple[Fraction, ...]


@dataclass(frozen=True)
class AffineHyperplane:
    """Primitive integer functional and offset: the set {x : coeffs.x == rhs}."""

    coeffs: tuple[int, ...]
    rhs: int

    def value(self, point):
        return dot(self.coeffs, point) - self.rhs

    def row_value(self, row):
        """s times the value at x, for the homogeneous row (x.s, s) of x."""
        return dot(self.coeffs, row) - self.rhs * row[-1]

    @classmethod
    def through(cls, normal, base) -> "AffineHyperplane":
        """The hyperplane with the nonzero rational ``normal`` through the
        rational point ``base``."""
        return cls.through_row(primitive_rational(normal), _homogeneous(base))

    @classmethod
    def through_row(cls, normal, row) -> "AffineHyperplane":
        """The hyperplane with the nonzero integer ``normal`` through the
        point x of the homogeneous row (x.s, s), s > 0."""
        extended = primitive(tuple(row[-1] * a for a in normal) + (-dot(normal, row),))
        lead = next(a for a in extended if a)
        if lead < 0:
            extended = tuple(-a for a in extended)
        return cls(extended[:-1], -extended[-1])


@dataclass(frozen=True)
class Arrangement:
    """A finite set of affine hyperplanes, canonically ordered."""

    hyperplanes: tuple[AffineHyperplane, ...]

    def __post_init__(self):
        dedup = sorted({h for h in self.hyperplanes}, key=lambda h: (h.coeffs, h.rhs))
        object.__setattr__(self, "hyperplanes", tuple(dedup))


def _homogeneous(point):
    """The primitive integer row (x.s, s), s > 0, of a rational point x."""
    s, (row,) = common_denominator([point])
    return primitive(row + (s,))


def _point(row):
    """The rational point x of a homogeneous row (x.s, s)."""
    s = row[-1]
    return tuple(Fraction(a, s) for a in row[:-1])


def _directions(rows):
    """The differences P_i - P_0 of integer points P_i that are independent
    of those before them: a basis of the directions of their affine hull,
    read off the pivot columns of one elimination with the differences as
    columns."""
    base = rows[0]
    diffs = [tuple(a - b for a, b in zip(p, base)) for p in rows[1:]]
    _, pivots, _ = fraction_free_rref(list(zip(*diffs)), len(diffs))
    return [diffs[j] for j in pivots]


def _hull_equations(directions, row):
    """Independent integer hyperplanes through the point of the homogeneous
    row ``row`` that cut out its affine span with ``directions``."""
    return tuple(AffineHyperplane.through_row(n, row) for n in integer_kernel(directions, len(row) - 1))


class _Polytope:
    """Exact V/H bookkeeping for one convex cell at desk scale.

    ``rows`` are the vertices x as integer rows (x.S, S) over one common
    denominator S.  The cone {y : row.y >= 0} of those rows is every affine
    function nonnegative on the cell: its lineality space is the functions
    that vanish on the affine hull, and its extreme rays (c, e) that vanish
    on some vertex are the facets.  ``facets`` are their vertex index sets
    and ``ambient_inequalities`` the same facets as primitive integer
    (coeffs, rhs) = (-c, e), coeffs.x <= rhs on the affine hull."""

    __slots__ = ("vertices", "rows", "dim", "facets", "ambient_inequalities", "_equations")

    def __init__(self, points):
        pts = tuple(tuple(Fraction(x) for x in p) for p in points)
        s, scaled = common_denominator(pts)
        self.vertices = pts
        self.rows = tuple(p + (s,) for p in scaled)
        width = len(self.rows[0])
        lineality, rays = extreme_rays([], self.rows, width)
        self.dim = width - 1 - len(lineality)
        facets, ambient = [], []
        for ray in rays:
            tight = tuple(i for i, row in enumerate(self.rows) if dot(row, ray) == 0)
            if tight:
                facets.append(tight)
                ambient.append((tuple(-c for c in ray[:-1]), ray[-1]))
        self.facets = tuple(facets)
        self.ambient_inequalities = tuple(ambient)
        self._equations = None

    def hull_equations(self):
        """Independent integer hyperplanes cutting out the affine hull."""
        if self._equations is None:
            self._equations = _hull_equations(_directions([r[:-1] for r in self.rows]), self.rows[0])
        return self._equations

    def face_vertex_sets(self):
        """Vertex index sets of all nonempty faces, with their dimensions."""
        ranks = graded_closure(range(len(self.vertices)), self.facets)
        return {tuple(sorted(face)): rank - 1 for face, rank in ranks.items() if face}

    def is_face(self, vertex_ids) -> bool:
        """Face test: the facets through the candidate must meet in exactly
        the candidate's vertices (a repeated index is never a face)."""
        target = tuple(sorted(vertex_ids))
        members = set(target)
        meet = set(range(len(self.vertices)))
        for tight in self.facets:
            if members.issubset(tight):
                meet.intersection_update(tight)
        return tuple(sorted(meet)) == target


def _polytope(pc: PolyhedralComplex, cell: Cell) -> _Polytope:
    """The cell's polytope, kept on the complex once built."""
    if cell not in pc._polytopes:
        pc._polytopes[cell] = _Polytope(pc.cell_points(cell))
    return pc._polytopes[cell]


def _cone_vertices(equalities, inequalities, dim):
    """Vertices of {x : eq.(x, 1) == 0, ineq.(x, 1) >= 0}, sorted, from
    integer rows.

    The extreme rays (x, s) of the homogenized cone with s >= 0 and s > 0 are
    the vertices (x / s); a polyhedron with a line has none."""
    lineality, rays = extreme_rays(equalities, [(0,) * dim + (1,)] + inequalities, dim + 1)
    if lineality:
        return []
    return sorted(_point(ray) for ray in rays if ray[-1])


def embedded_complex(vertices, maximal_cells) -> PolyhedralComplex:
    """Build a polyhedral complex from maximal cells, closing under faces.

    Face structure comes from each cell's exact convex geometry; shared faces
    are deduplicated by vertex set; the complex keeps the cells' polytopes.
    Raises ``ValueError`` when a cell's listed points are not the distinct
    vertices of their hull."""
    pts = tuple(tuple(Fraction(x) for x in p) for p in vertices)
    cells, polys = {}, {}
    for cell in maximal_cells:
        ids = tuple(sorted(cell))
        poly = _Polytope([pts[i] for i in ids])
        faces = poly.face_vertex_sets()
        if {vs for vs, dim in faces.items() if dim == 0} != {(i,) for i in range(len(ids))}:
            raise ValueError(f"cell {list(cell)} lists points that are not its hull's distinct vertices")
        for local_vs, dim in faces.items():
            global_vs = tuple(sorted(ids[i] for i in local_vs))
            cells[global_vs] = dim
        polys[Cell(ids, poly.dim)] = poly
    pc = PolyhedralComplex(pts, tuple(Cell(vs, dim) for vs, dim in cells.items()))
    pc._polytopes.update(polys)
    return pc


def _non_faces(pc: PolyhedralComplex):
    """The cells that are not a face of the first maximal cell holding their
    vertices (a maximal cell is a face of itself)."""
    holders = [(set(cell.vertices), cell) for cell in pc.maximal_cells()]
    for cell in pc.cells:
        holder = next(m for vs, m in holders if vs.issuperset(cell.vertices))
        if not _polytope(pc, holder).is_face(map(holder.vertices.index, cell.vertices)):
            yield cell


def verify_embedding(pc: PolyhedralComplex) -> bool:
    """True when every pair of cells meets in a common face of each.

    Only maximal cells are built as polytopes and intersected pairwise; each
    intersection must consist of shared vertices and be an exposed face on
    both sides.  Every other cell must be a face of one maximal cell holding
    its vertices.  Two faces of a polytope meet in a face of both (Ziegler,
    *Lectures on Polytopes*, 5.1), so when maximal cells meet in a common face
    G, faces F and F' of theirs meet in (F & G) & (F' & G), a face of both."""
    if any(_non_faces(pc)):
        return False
    maximal = pc.maximal_cells()
    point_ids = {pt: i for i, pt in enumerate(pc.vertices)}
    # bounding boxes, as (min, max) per axis
    boxes = {cell: [(min(x), max(x)) for x in zip(*pc.cell_points(cell))] for cell in maximal}
    for a, b in combinations(maximal, 2):
        if any(hi_a < lo_b or hi_b < lo_a for (lo_a, hi_a), (lo_b, hi_b) in zip(boxes[a], boxes[b])):
            continue
        pa, pb = _polytope(pc, a), _polytope(pc, b)
        eqs = [h.coeffs + (-h.rhs,) for h in pa.hull_equations() + pb.hull_equations()]
        ineqs = [
            tuple(-x for x in c) + (r,)
            for c, r in pa.ambient_inequalities + pb.ambient_inequalities
        ]
        inter = _cone_vertices(eqs, ineqs, pc.ambient_dim)
        if not inter:
            continue
        ids = [point_ids.get(p) for p in inter]
        if None in ids or not set(ids) <= set(a.vertices) & set(b.vertices):
            return False
        if not pa.is_face([a.vertices.index(i) for i in ids]):
            return False
        if not pb.is_face([b.vertices.index(i) for i in ids]):
            return False
    return True


def _chart(poly: _Polytope):
    """The vertices' coordinates y in a chart of the affine hull, and the
    facets there: primitive integer (n, b), n.y <= b, sorted, each with its
    vertex index set.

    The chart's basis is the independent differences D = P_i - P_0 of the
    integer rows P = x.S.  The Gram matrix G = D.D^T is positive definite,
    so :func:`~recdom.geometry.dual_rows` gives det(G) > 0 and adj(G).D, and
    det(G).y is adj(G).D.(P - P_0).  Then P = P_0 + D^T.y, so a facet
    c.x <= r reads (D.c).y <= r.S - c.P_0 in the chart."""
    s = poly.rows[0][-1]
    points = [row[:-1] for row in poly.rows]
    base = points[0]
    directions = _directions(points)
    det, chart_map = dual_rows(directions)
    offsets = [dot(row, base) for row in chart_map]
    chart = tuple(
        tuple(Fraction(dot(row, p) - c, det) for row, c in zip(chart_map, offsets)) for p in points
    )
    facets = sorted(
        (primitive(tuple(dot(d, c) for d in directions) + (r * s - dot(c, base),)), tight)
        for (c, r), tight in zip(poly.ambient_inequalities, poly.facets)
    )
    return chart, tuple(((row[:-1], row[-1]), tight) for row, tight in facets)


def _beyond_point(chart, facets, facet_index):
    """A point beyond one chart facet and strictly inside every other."""
    (normal, rhs), tight = facets[facet_index]
    centroid = tuple(sum(chart[i][j] for i in tight) / len(tight) for j in range(len(normal)))
    step = Fraction(1)
    while True:
        z = tuple(c + step * n for c, n in zip(centroid, normal))
        if all(
            dot(n2, z) < b2
            for idx, ((n2, b2), _) in enumerate(facets)
            if idx != facet_index
        ):
            if dot(normal, z) <= rhs:
                raise InvariantViolation("the point beyond a facet is not beyond it")
            return z
        step /= 2


def schlegel(vertices, cells, avoid: int) -> PolyhedralComplex:
    """Project boundary cells of a polytope into the avoided facet's hyperplane.

    ``vertices`` spans the polytope, ``cells`` lists vertex index tuples of
    the boundary faces to keep (their faces are added), and ``avoid`` indexes
    the canonical facet list: the facets' primitive chart inequalities, sorted
    (see :func:`_chart`).  The kept subcomplex must stay off the avoided
    facet's relative interior, i.e. that facet may not itself be a kept cell;
    central projection happens from an exactly computed point just beyond it,
    and the image is returned in affine coordinates of the facet hyperplane
    (one dimension down), checked to be an embedded complex."""
    poly = _Polytope(vertices)
    return _schlegel(poly, *_chart(poly), cells, avoid)


def _schlegel(poly: _Polytope, chart, facets, cells, avoid: int) -> PolyhedralComplex:
    """:func:`schlegel` on a polytope and its :func:`_chart`, already built."""
    if not 0 <= avoid < len(facets):
        raise ValueError(f"facet index {avoid} out of range")
    (normal, rhs), avoid_tight = facets[avoid]
    avoid_vertices = set(avoid_tight)
    kept = []
    for cell in cells:
        ids = tuple(sorted(cell))
        if not poly.is_face(ids) or len(ids) == len(poly.vertices):
            raise ValueError(f"{ids} is not a proper boundary face of the polytope")
        if avoid_vertices <= set(ids):
            # distinct proper faces meet only along boundary faces, so the
            # projection is injective unless the avoided facet itself is kept
            raise SubcomplexTouchesAvoidedFacet(
                f"cell {ids} contains the avoided facet"
            )
        kept.append(set(ids))
    # the faces of a face of the polytope are its faces inside that face
    closure = {
        vs: dim
        for vs, dim in poly.face_vertex_sets().items()
        if any(k.issuperset(vs) for k in kept)
    }
    z = _beyond_point(chart, facets, avoid)
    used = sorted({i for vs in closure for i in vs})
    images = {}
    for i in used:
        v = chart[i]
        denom = dot(normal, v) - dot(normal, z)
        if denom == 0:
            raise InvariantViolation(f"vertex {i} is parallel to the avoided facet")
        s = Fraction(rhs - dot(normal, z), denom)
        images[i] = tuple(zc + s * (vc - zc) for zc, vc in zip(z, v))
    # coordinates in the chart of the avoided facet's points P_i = x_i.S
    scale, facet_rows = common_denominator([chart[i] for i in sorted(avoid_vertices)])
    det, chart_map = dual_rows(_directions(facet_rows))
    new_coords = {}
    for i, img in images.items():
        # an image x with row (X, t) has S.x - P_0 = (S.X - t.P_0) / t
        row = _homogeneous(img)
        t = row[-1]
        shifted = tuple(scale * a - t * b for a, b in zip(row, facet_rows[0]))
        new_coords[i] = tuple(Fraction(dot(r, shifted), det * t) for r in chart_map)
    relabel = {i: k for k, i in enumerate(used)}
    new_vertices = tuple(new_coords[i] for i in used)
    new_cells = tuple(
        Cell(tuple(sorted(relabel[i] for i in vs)), dim) for vs, dim in closure.items()
    )
    out = PolyhedralComplex(new_vertices, new_cells)
    if not verify_embedding(out):
        raise InvariantViolation("the Schlegel image is not an embedded complex")
    return out


def schlegel_of_selection(selection, avoid_facet: int) -> PolyhedralComplex:
    """Schlegel projection of a cone's boundary cross-section part.

    The cone's cross-section polytope plays the polytope role; the cells are
    the cross-sections of the selected facets, and ``avoid_facet`` is a cone
    facet index (translated to the matching cross-section facet)."""
    cone = selection.cone
    if not 0 <= avoid_facet < len(cone.facets):
        raise ValueError(f"facet index {avoid_facet} out of range")
    poly = _Polytope(cross_section_vertices(cone))
    chart, facets = _chart(poly)
    target = set(cone.facets[avoid_facet].incident_rays)
    avoid = next(
        (i for i, (_, tight) in enumerate(facets) if set(tight) == target),
        None,
    )
    if avoid is None:
        raise InvariantViolation(f"cone facet {avoid_facet} has no cross-section facet")
    cells = [tuple(sorted(cone.facets[i].incident_rays)) for i in sorted(selection.selected)]
    return _schlegel(poly, chart, facets, cells, avoid)


def covering_arrangement(pc: PolyhedralComplex) -> Arrangement:
    """Hyperplanes cutting out every cell: the affine hull equations of the
    cells, read straight off their points.

    The complex is closed under faces, so every facet of a cell is a cell
    whose hull equations include a hyperplane through the facet that misses
    the rest of the cell.  A maximal cell's equations are its kept
    polytope's, which the embedding check reads too."""
    maximal = set(pc.maximal_cells())
    hyperplanes = []
    for cell in pc.cells:
        if cell in maximal:
            hyperplanes.extend(_polytope(pc, cell).hull_equations())
        else:
            s, scaled = common_denominator(pc.cell_points(cell))
            hyperplanes.extend(_hull_equations(_directions(scaled), scaled[0] + (s,)))
    return Arrangement(tuple(hyperplanes))


def _arrangement_covers(poly: _Polytope, arrangement: Arrangement) -> bool:
    """True when the hyperplanes through the whole cell cut out its affine
    hull and every facet lies on a hyperplane that misses the cell."""
    rows = poly.rows
    whole = frozenset(range(len(rows)))
    containing, proper = [], []
    for h in arrangement.hyperplanes:
        zeros = frozenset(i for i, r in enumerate(rows) if h.row_value(r) == 0)
        if zeros == whole:
            containing.append(h.coeffs)
        else:
            proper.append(zeros)
    if rank_over_field(containing) != len(rows[0]) - 1 - poly.dim:
        return False
    return all(any(zeros.issuperset(tight) for zeros in proper) for tight in poly.facets)


def _region(poly: _Polytope):
    """A polytope as a region: its vertices as homogeneous integer rows, and
    its facet vertex sets."""
    return poly.rows, tuple(frozenset(f) for f in poly.facets)


def _cut(region, h: AffineHyperplane):
    """The two halves, positive side first, of a region that ``h`` strictly
    crosses, or None when every vertex lies on one closed side.

    Two vertices span an edge when no third vertex lies on every facet
    through both.  Each half keeps the vertices on its side and one new
    vertex per edge that crosses ``h``; its facets are the parent facets with
    a vertex strictly on its side, extended by the new vertices on their
    edges, and the cut facet through every vertex on ``h``.  A row's value
    s.h(x) has the sign of h(x), and the crossing point of an edge uv is the
    row V_u.row_v - V_v.row_u, on which ``h`` vanishes."""
    rows, facets = region
    values = [h.row_value(r) for r in rows]
    if all(v >= 0 for v in values) or all(v <= 0 for v in values):
        return None
    whole = frozenset(range(len(rows)))
    new_rows, new_edges = [], []
    for u, vu in enumerate(values):
        if vu <= 0:
            continue
        for v, vv in enumerate(values):
            if vv >= 0:
                continue
            common = whole
            for f in facets:
                if u in f and v in f:
                    common &= f
            if len(common) == 2:
                new_rows.append(primitive(tuple(vu * b - vv * a for a, b in zip(rows[u], rows[v]))))
                new_edges.append((u, v))
    halves = []
    for side in (1, -1):
        keep = [i for i, x in enumerate(values) if side * x >= 0]
        local = {i: j for j, i in enumerate(keep)}
        added = range(len(keep), len(keep) + len(new_rows))
        half_facets = [
            frozenset(local[i] for i in f if i in local)
            | frozenset(j for j, (u, v) in zip(added, new_edges) if u in f and v in f)
            for f in facets
            if any(side * values[i] > 0 for i in f)
        ]
        half_facets.append(frozenset(local[i] for i in keep if values[i] == 0) | frozenset(added))
        halves.append((tuple(rows[i] for i in keep) + tuple(new_rows), tuple(half_facets)))
    return halves


def _cut_regions(region, arrangement: Arrangement):
    """The regions a region falls into when cut along every hyperplane."""
    regions = [region]
    for h in arrangement.hyperplanes:
        nxt = []
        for r in regions:
            nxt.extend(_cut(r, h) or (r,))
        regions = nxt
    return regions


def _region_faces(region):
    """Point sets of a region's nonempty faces, with their dimensions."""
    rows, facets = region
    points = [_point(r) for r in rows]
    ranks = graded_closure(range(len(points)), facets)
    return {
        tuple(sorted(points[i] for i in face)): rank - 1 for face, rank in ranks.items() if face
    }


def induced_subdivision(pc: PolyhedralComplex, arrangement: Arrangement) -> PolyhedralComplex:
    """Slice every cell of the complex along all hyperplanes of the arrangement.

    The result is a subdivision with the same support; requires (and checks)
    that every cell is an intersection of halfspaces bounded by arrangement
    hyperplanes.  The maximal cells are cut, and checked with every cell
    that is not a face of one: a face F of a covered cell P is covered.  Its
    hull is cut out by the hull equations of P and the hyperplanes through
    the facets of P that contain F, and each facet of F lies on the
    hyperplane of a facet of P that misses F."""
    maximal = pc.maximal_cells()
    for cell in (*maximal, *_non_faces(pc)):
        if not _arrangement_covers(_polytope(pc, cell), arrangement):
            raise ArrangementDoesNotCover(f"cell {cell.vertices} is not covered")
    faces: dict[tuple[Point, ...], int] = {}
    for cell in maximal:
        for region in _cut_regions(_region(_polytope(pc, cell)), arrangement):
            faces.update(_region_faces(region))
    all_points = sorted({p for key in faces for p in key})
    index = {p: i for i, p in enumerate(all_points)}
    cells = tuple(
        Cell(tuple(sorted(index[p] for p in key)), dim) for key, dim in faces.items()
    )
    return PolyhedralComplex(tuple(all_points), cells)


def lift_height(arrangement: Arrangement, point) -> Fraction:
    """The convex piecewise-linear height: sum of absolute functional values."""
    row = _homogeneous(point)
    return Fraction(sum(abs(h.row_value(row)) for h in arrangement.hyperplanes), row[-1])


def _piece_inside(arrangement: Arrangement, rows):
    """The affine piece (coeffs, offset), height(x) = coeffs.x - offset, on a
    cell that no hyperplane of the arrangement crosses, from the homogeneous
    rows of its vertices.

    The sum of the rows is a point in the cell's relative interior, so each
    hyperplane has there its sign on the cell (zero counts as positive)."""
    inside = tuple(map(sum, zip(*rows)))
    signs = [1 if h.row_value(inside) >= 0 else -1 for h in arrangement.hyperplanes]
    coeffs = tuple(
        sum(s * h.coeffs[i] for s, h in zip(signs, arrangement.hyperplanes))
        for i in range(len(inside) - 1)
    )
    offset = sum(s * h.rhs for s, h in zip(signs, arrangement.hyperplanes))
    return coeffs, offset


@dataclass(frozen=True)
class LiftResult:
    """Outcome of lifting an embedded complex onto a lower hull.

    ``subdivision`` is the arrangement-induced refinement of the input,
    ``lift_values`` the height at each of its vertices, ``polytope_vertices``
    the vertex list of the region between the height graph and a flat top
    (truncated over an enlarged bounding box), and ``lifted_complex`` the
    graph cells over the subdivision, combinatorially identical to it."""

    subdivision: PolyhedralComplex
    lift_values: tuple[Fraction, ...]
    arrangement: Arrangement
    polytope_vertices: tuple[Point, ...]
    lifted_complex: PolyhedralComplex
    affine_pieces: tuple[tuple[tuple[int, ...], int], ...]
    max_value: Fraction
    margin: int


def lift(pc: PolyhedralComplex) -> LiftResult:
    """Lift an embedded complex onto the lower hull of a polytope one
    dimension up.

    A covering arrangement is read off the cells; the induced subdivision
    refines the complex into domains of linearity of the height function, and
    the graph of the height over the subdivision sits on the lower hull of
    {(x, t) : height(x) <= t <= M + 1} truncated over the bounding box of the
    complex enlarged by 1."""
    arrangement = covering_arrangement(pc)
    subdivision = induced_subdivision(pc, arrangement)
    values = tuple(lift_height(arrangement, v) for v in subdivision.vertices)
    max_value = max(values)
    d = pc.ambient_dim
    lows = [floor(min(p[i] for p in pc.vertices)) - 1 for i in range(d)]
    highs = [ceil(max(p[i] for p in pc.vertices)) + 1 for i in range(d)]
    box = _Polytope(product(*zip(lows, highs)))
    affine_pieces = tuple(sorted(
        {_piece_inside(arrangement, rows) for rows, _ in _cut_regions(_region(box), arrangement)}
    ))
    # rows r >= 0 on (x, t, 1): t >= coeffs.x - offset, the box, t <= M + 1
    inequalities = [tuple(-a for a in coeffs) + (1, offset) for coeffs, offset in affine_pieces]
    for i in range(d):
        unit = tuple(int(j == i) for j in range(d + 1))
        inequalities.append(tuple(-u for u in unit) + (highs[i],))
        inequalities.append(unit + (-lows[i],))
    top = max_value + 1
    inequalities.append((0,) * d + (-top.denominator, top.numerator))
    polytope_vertices = tuple(_cone_vertices([], inequalities, d + 1))
    lifted_vertices = tuple(
        v + (values[i],) for i, v in enumerate(subdivision.vertices)
    )
    lifted = PolyhedralComplex(lifted_vertices, subdivision.cells)
    return LiftResult(
        subdivision,
        values,
        arrangement,
        polytope_vertices,
        lifted,
        affine_pieces,
        max_value,
        1,
    )


def verify_lower_hull(result: LiftResult) -> bool:
    """Every lifted cell must be supported from below by its affine piece.

    Checks that the piece interpolates the lift values on the cell and that
    t >= piece(x) is valid on every polytope vertex, on homogeneous rows."""
    rows = [_homogeneous(v) for v in result.subdivision.vertices]
    tops = [_homogeneous(v) for v in result.polytope_vertices]
    for cell in result.subdivision.maximal_cells():
        coeffs, offset = _piece_inside(result.arrangement, [rows[i] for i in cell.vertices])
        for i in cell.vertices:
            row, value = rows[i], result.lift_values[i]
            if (dot(coeffs, row) - offset * row[-1]) * value.denominator != value.numerator * row[-1]:
                return False
        for top in tops:
            # (x, t) = (X, T) / w: coeffs.X - offset.w > T means piece(x) > t
            if dot(coeffs, top) - offset * top[-1] > top[-2]:
                return False
    return True


def cell_measure(points) -> Fraction:
    """Exact Lebesgue volume of a full-dimensional convex cell: the sum of
    |det| / k! over the simplices of a pulling triangulation.

    The vertices are the integer rows x.S over one common denominator S, so
    each simplex's |det| comes from one fraction-free elimination of its edge
    rows, S^k times the rational one."""
    return _measure(_Polytope(points))


def _measure(poly: _Polytope) -> Fraction:
    """:func:`cell_measure` of a polytope already built."""
    k = poly.dim
    if k == 0:
        return Fraction(0)
    if k != len(poly.rows[0]) - 1:
        raise NotImplementedError("only full-dimensional cells are measured")
    total = 0
    for simplex in pulling_simplices(poly.face_vertex_sets(), tuple(range(len(poly.vertices)))):
        apex = poly.rows[simplex[0]]
        edges = [tuple(a - b for a, b in zip(poly.rows[i][:-1], apex)) for i in simplex[1:]]
        _, pivots, det = fraction_free_rref(edges, k)
        if len(pivots) < k:
            raise InvariantViolation(f"pulling simplex {simplex} is degenerate")
        total += abs(det)
    return Fraction(total, factorial(k) * poly.rows[0][-1] ** k)


def support_measure(pc: PolyhedralComplex) -> Fraction:
    """Total top-dimensional volume of a complex's maximal cells."""
    top = pc.dim
    total = Fraction(0)
    for cell in pc.maximal_cells():
        if cell.dim == top:
            total += _measure(_polytope(pc, cell))
    return total

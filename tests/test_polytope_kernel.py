"""The double-description kernel against brute-force polytope and cone oracles.

The oracles try every k-subset of constraints (H to V, cone rays from
inequalities) or of points and rays (V to H, cone facets from rays) with
exact Fraction row reduction, and every subset of facets (faces).  They share
no code with :func:`recdom.geometry.extreme_rays`.  The region cutter of
:mod:`recdom.lifting` is checked against the construction it replaced: an
H-to-V pass on each half's constraints and a fresh polytope on its vertices.
Its integer cover check is checked against the same check in Fractions; the
facets of its polytopes, its Schlegel charts, its hull equations and its
cell volumes against the Fraction row reduction they replaced; its covering
arrangement against the one that also added a cut through every facet; and
its embedding check, which intersects maximal cells only, against the one
that intersected every pair of cells."""

from fractions import Fraction
from itertools import combinations
from math import ceil, factorial, floor

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from recdom.corpus import (
    corpus_cones,
    cubical_complex,
    one_point_1d,
    segment_2d,
    two_segments_1d,
    two_triangles_2d,
    unit_square_2d,
)
from recdom.geometry import (
    Cone,
    Face,
    FacetFunctional,
    NotFullDimensional,
    NotPointed,
    dot,
    dual_description,
    extreme_rays,
    faces_of,
    fraction_free_rref,
    integer_kernel,
    primitive,
    primitive_rational,
    pulling_simplices,
    rank_over_field,
    rref,
    solve_exact,
)
from recdom.lifting import (
    AffineHyperplane,
    Arrangement,
    ArrangementDoesNotCover,
    _arrangement_covers,
    _chart,
    _cone_vertices,
    _cut,
    _point,
    _Polytope,
    _region,
    _region_faces,
    cell_measure,
    covering_arrangement,
    embedded_complex,
    induced_subdivision,
    lift,
    lift_height,
    verify_embedding,
    verify_lower_hull,
)
from recdom.topology import Cell, PolyhedralComplex

# -- oracles -------------------------------------------------------------------


def rational_rank(rows) -> int:
    """Rank over Q by Fraction row reduction."""
    if not rows:
        return 0
    return len(rref(rows)[1])


def kernel_basis(rows, width):
    """Basis of the right kernel of a matrix with ``width`` columns, read
    off its Fraction reduced row echelon form: one vector per free column,
    1 there and 0 on the other free columns."""
    if not rows:
        return [tuple(Fraction(int(i == j)) for i in range(width)) for j in range(width)]
    m, pivots = rref(rows)
    out = []
    for fc in (c for c in range(width) if c not in pivots):
        v = [Fraction(0)] * width
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        out.append(tuple(v))
    return out


def oracle_polytope(points):
    """Chart, facet inequalities, facet vertex sets, ambient inequalities
    and hull equations of a polytope by the Fraction construction the
    integer one replaced: independent directions from the first point, the
    left inverse G^-1.D of the directions D from a Fraction reduction of
    [G | I] with G = D.D^T, and hull normals from :func:`kernel_basis`."""
    pts = [tuple(Fraction(x) for x in p) for p in points]
    base = pts[0]
    dirs = []
    for p in pts[1:]:
        d = tuple(a - b for a, b in zip(p, base))
        if len(dirs) < len(base) and any(d) and rational_rank(dirs + [d]) > len(dirs):
            dirs.append(d)
    k = len(dirs)
    left = ()
    if k:
        gram = [[dot(a, b) for b in dirs] + [int(i == j) for j in range(k)] for i, a in enumerate(dirs)]
        m, _ = rref(gram)
        left = [
            tuple(sum(m[j][k + unit] * dirs[j][i] for j in range(k)) for i in range(len(base)))
            for unit in range(k)
        ]
    chart = tuple(tuple(dot(row, tuple(a - b for a, b in zip(p, base))) for row in left) for p in pts)
    inequalities, facets = (), ()
    if k:
        rows = [primitive_rational(tuple(-a for a in y) + (1,)) for y in chart]
        rays = [ray for ray in extreme_rays([], rows, k + 1)[1] if any(ray[:-1])]
        inequalities = tuple((ray[:-1], ray[-1]) for ray in rays)
        facets = tuple(tuple(i for i, row in enumerate(rows) if dot(row, ray) == 0) for ray in rays)
    ambient = []
    for normal, rhs in inequalities:
        coeffs = tuple(sum(normal[j] * left[j][i] for j in range(k)) for i in range(len(base)))
        row = primitive_rational(coeffs + (rhs + dot(coeffs, base),))
        ambient.append((row[:-1], row[-1]))
    equations = []
    for n in kernel_basis([list(d) for d in dirs], len(base)):
        extended = primitive_rational(tuple(n) + (-dot(n, base),))
        if next(a for a in extended if a) < 0:
            extended = tuple(-a for a in extended)
        equations.append(AffineHyperplane(extended[:-1], -extended[-1]))
    return chart, inequalities, facets, tuple(ambient), tuple(equations)


def vertices_from_constraints(equalities, inequalities, dim):
    """Vertices of {x : eq.x == rhs, ineq.x <= rhs}, sorted, by the
    library's H-to-V pass on the primitive integer rows of the constraints."""
    eqs = [primitive_rational(tuple(c) + (-r,)) for c, r in equalities if any(c) or r]
    ineqs = [primitive_rational(tuple(-a for a in c) + (r,)) for c, r in inequalities if any(c) or r]
    return _cone_vertices(eqs, ineqs, dim)


def brute_force_vertices(equalities, inequalities, dim):
    """Vertices of {x : eq.x == rhs, ineq.x <= rhs}: solve every dim-subset
    of constraint rows and keep the feasible solutions."""
    rows = [(tuple(c), r) for c, r in equalities] + [(tuple(c), r) for c, r in inequalities]
    n_eq = len(equalities)
    candidates = set()
    for subset in combinations(range(len(rows)), dim):
        mat = [list(rows[i][0]) for i in subset]
        if rational_rank(mat) != dim:
            continue
        pt = solve_exact(mat, [rows[i][1] for i in subset])
        if pt is None:
            continue
        ok = all(dot(c, pt) == r for c, r in rows[:n_eq])
        ok = ok and all(dot(c, pt) <= r for c, r in rows[n_eq:])
        if ok:
            candidates.add(pt)
    return sorted(candidates)


def brute_force_chart_facets(chart, k):
    """Facets (n, b), n.y <= b, of full-dimensional points in R^k: every
    hyperplane through k affinely independent points with all points on one
    side."""
    if k == 0:
        return ()
    found = set()
    for subset in combinations(range(len(chart)), k):
        pts = [chart[i] for i in subset]
        diffs = [tuple(a - b for a, b in zip(p, pts[0])) for p in pts[1:]]
        if rational_rank(diffs) != k - 1:
            continue
        kb = kernel_basis(diffs, k)
        if len(kb) != 1:
            continue
        normal = kb[0]
        rhs = dot(normal, pts[0])
        values = [dot(normal, p) - rhs for p in chart]
        if all(v >= 0 for v in values):
            normal, rhs = tuple(-a for a in normal), -rhs
        elif not all(v <= 0 for v in values):
            continue
        scaled = primitive_rational(tuple(normal) + (rhs,))
        found.add((scaled[:-1], scaled[-1]))
    return tuple(sorted(found))


def exposed_vertices(chart, active):
    """Vertex indices of a polytope tight on every chart inequality in
    ``active``, by Fraction arithmetic on its chart points."""
    return tuple(i for i, y in enumerate(chart) if all(dot(n, y) == b for n, b in active))


def brute_force_faces(poly):
    """Vertex sets of the nonempty faces cut out by every subset of facet
    inequalities in the Schlegel chart, with the affine dimension of their
    points."""
    chart, facets = _chart(poly)
    inequalities = [inequality for inequality, _ in facets]
    faces = {}
    for size in range(len(inequalities) + 1):
        for active in combinations(inequalities, size):
            vs = exposed_vertices(chart, active)
            if vs and vs not in faces:
                pts = [poly.vertices[i] for i in vs]
                faces[vs] = rational_rank([[a - b for a, b in zip(p, pts[0])] for p in pts])
    return faces


def canonical(vectors):
    return sorted({primitive(tuple(v)) for v in vectors})


def brute_force_cone_rays(covectors):
    """Extreme rays of {x : a.x >= 0} for a pointed cone: the line through
    every (d-1)-subset of rows of rank d-1, in the direction on which every
    row is nonnegative."""
    covs = canonical(covectors)
    d = len(covs[0])
    rays = set()
    for subset in combinations(range(len(covs)), d - 1):
        kb = kernel_basis([covs[i] for i in subset], d)
        if len(kb) != 1:
            continue
        candidate = primitive_rational(kb[0])
        values = [dot(c, candidate) for c in covs]
        if all(v >= 0 for v in values):
            rays.add(candidate)
        elif all(v <= 0 for v in values):
            rays.add(tuple(-a for a in candidate))
    return sorted(rays)


def brute_force_dual_description(rays):
    """The cone over ``rays`` with its facets: every (d-1)-subset of rays
    spanning a hyperplane gives a normal, kept when it is nonnegative on
    every ray; the extreme rays are those tight on facets of rank d-1."""
    ray_list = canonical(rays)
    d = len(ray_list[0])
    if rank_over_field(ray_list) < d:
        raise NotFullDimensional("rays do not span the ambient space")
    found = {}
    for subset in combinations(range(len(ray_list)), d - 1):
        kb = kernel_basis([ray_list[i] for i in subset], d)
        if len(kb) != 1:
            continue
        normal = primitive_rational(kb[0])
        values = [dot(normal, r) for r in ray_list]
        if all(v <= 0 for v in values):
            normal = tuple(-a for a in normal)
            values = [-v for v in values]
        elif not all(v >= 0 for v in values):
            continue
        found[normal] = frozenset(i for i, v in enumerate(values) if v == 0)
    if rank_over_field(sorted(found)) < d:
        raise NotPointed("the given rays span a cone containing a line")
    extreme = tuple(
        r
        for i, r in enumerate(ray_list)
        if rank_over_field([n for n, incident in found.items() if i in incident]) == d - 1
    )
    facets = tuple(
        FacetFunctional(n, frozenset(i for i, r in enumerate(extreme) if dot(n, r) == 0))
        for n in sorted(found)
    )
    return Cone(d, extreme, facets)


def brute_force_from_inequalities(covectors):
    """Cone {x : a.x >= 0}, through :func:`brute_force_cone_rays`; rows of
    rank below d leave a line in the cone."""
    covs = canonical(covectors)
    if rank_over_field(covs) < len(covs[0]):
        raise NotPointed("the inequalities cut out a cone containing a line")
    rays = brute_force_cone_rays(covs)
    if not rays:
        raise NotFullDimensional("inequalities admit no extreme rays")
    return brute_force_dual_description(rays)


def brute_force_cone_faces(cone):
    """Faces of a cone from every subset of facets, deduplicated by the rays
    they contain, with the rank of those rays as dimension."""
    nf = len(cone.facets)
    by_rays = {}
    for mask in range(1 << nf):
        ray_set = frozenset(range(len(cone.rays)))
        for j in range(nf):
            if mask >> j & 1:
                ray_set &= cone.facets[j].incident_rays
        tight = frozenset(j for j in range(nf) if ray_set <= cone.facets[j].incident_rays)
        dim = rank_over_field([cone.rays[i] for i in ray_set]) if ray_set else 0
        by_rays[ray_set] = Face(tight, ray_set, dim)
    return tuple(sorted(by_rays.values(), key=lambda f: (f.dim, sorted(f.rays))))


def oracle_halves(poly, h):
    """Both halves of a polytope strictly crossed by ``h``, positive side
    first, each from an H-to-V pass on the polytope's hull equations, facet
    inequalities and one side of ``h``, then a fresh polytope on those
    vertices; None when ``h`` does not strictly cross it."""
    values = [h.value(v) for v in poly.vertices]
    if all(v >= 0 for v in values) or all(v <= 0 for v in values):
        return None
    eqs = [(e.coeffs, e.rhs) for e in poly.hull_equations()]
    halves = []
    for sign in (1, -1):
        cut = (tuple(sign * -c for c in h.coeffs), sign * -h.rhs)
        verts = vertices_from_constraints(eqs, list(poly.ambient_inequalities) + [cut], len(h.coeffs))
        halves.append(_Polytope(verts))
    return halves


def polytope_faces(poly):
    """Point sets of a polytope's nonempty faces, with their dimensions."""
    return {tuple(sorted(poly.vertices[i] for i in vs)): d for vs, d in poly.face_vertex_sets().items()}


def oracle_induced_subdivision(pc, arrangement):
    """Every maximal cell cut along the arrangement with :func:`oracle_halves`,
    assembled as :func:`recdom.lifting.induced_subdivision` does."""
    faces = {}
    for cell in pc.maximal_cells():
        regions = [_Polytope(pc.cell_points(cell))]
        for h in arrangement.hyperplanes:
            regions = [half for r in regions for half in (oracle_halves(r, h) or (r,))]
        for piece in regions:
            faces.update(polytope_faces(piece))
    points = sorted({p for key in faces for p in key})
    index = {p: i for i, p in enumerate(points)}
    return PolyhedralComplex(
        tuple(points), tuple(Cell(tuple(index[p] for p in key), dim) for key, dim in faces.items())
    )


def cut_through(poly, tight):
    """Canonical hyperplane containing the facet on the vertices ``tight``
    but not the whole cell: the first normal of the integer kernel of the
    facet's directions that is not constant on the cell."""
    base = poly.rows[tight[0]]
    diffs = [tuple(a - b for a, b in zip(poly.rows[i][:-1], base)) for i in tight[1:]]
    for n in integer_kernel(diffs, len(poly.rows[0]) - 1):
        offset = dot(n, base)
        if any(dot(n, row) != offset for row in poly.rows):
            return AffineHyperplane.through_row(n, base)
    raise AssertionError("facet hyperplane candidates all contain the cell")


def oracle_covering_arrangement(pc):
    """Every cell's hull equations plus, for every facet of every cell, the
    hyperplane through it that :func:`cut_through` picks."""
    hyperplanes = []
    for cell in pc.cells:
        poly = _Polytope(pc.cell_points(cell))
        hyperplanes.extend(poly.hull_equations())
        hyperplanes.extend(cut_through(poly, tight) for tight in poly.facets)
    return Arrangement(tuple(hyperplanes))


def abs_determinant(rows) -> Fraction:
    """|det| of a square rational matrix by Fraction Gaussian elimination."""
    m = [list(r) for r in rows]
    det = Fraction(1)
    for c in range(len(m)):
        pivot = next((i for i in range(c, len(m)) if m[i][c]), None)
        if pivot is None:
            return Fraction(0)
        m[c], m[pivot] = m[pivot], m[c]
        det *= m[c][c]
        for i in range(c + 1, len(m)):
            f = m[i][c] / m[c][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return abs(det)


def oracle_cell_measure(points):
    """The volume over the same pulling triangulation, each simplex's |det|
    taken in Fractions on the rational vertices."""
    poly = _Polytope(points)
    total = Fraction(0)
    for simplex in pulling_simplices(poly.face_vertex_sets(), tuple(range(len(poly.vertices)))):
        apex = poly.vertices[simplex[0]]
        total += abs_determinant([[a - b for a, b in zip(poly.vertices[i], apex)] for i in simplex[1:]])
    return total / factorial(poly.dim)


def oracle_covers(poly, arrangement):
    """The cover check in Fractions: the hyperplanes through every vertex
    have rank the codimension of the cell, and each facet, found from its
    Schlegel chart inequality, lies on a hyperplane through not every
    vertex."""
    containing = [
        h for h in arrangement.hyperplanes if all(h.value(v) == 0 for v in poly.vertices)
    ]
    codim = len(poly.rows[0]) - 1 - poly.dim
    if rational_rank([list(h.coeffs) for h in containing]) != codim:
        return False
    chart, facets = _chart(poly)
    for inequality, _ in facets:
        facet_points = [poly.vertices[i] for i in exposed_vertices(chart, [inequality])]
        if not any(
            all(h.value(p) == 0 for p in facet_points)
            and any(h.value(v) != 0 for v in poly.vertices)
            for h in arrangement.hyperplanes
        ):
            return False
    return True


def oracle_verify_embedding(pc):
    """The embedding check on every pair of cells, faces included: of a
    nested pair the smaller cell's vertices must be a face of the bigger,
    and any other pair must meet, by an H-to-V pass, in shared vertices
    that are a face of both.  It has no bounding-box filter, which only
    skips pairs that do not meet."""
    polys = {cell: _Polytope(pc.cell_points(cell)) for cell in pc.cells}
    point_ids = {pt: i for i, pt in enumerate(pc.vertices)}
    for a, b in combinations(pc.cells, 2):
        pa, pb = polys[a], polys[b]
        set_a, set_b = set(a.vertices), set(b.vertices)
        if set_a <= set_b or set_b <= set_a:
            small = a if set_a <= set_b else b
            inter = [pc.point(i) for i in small.vertices]
        else:
            eqs = [h.coeffs + (-h.rhs,) for h in pa.hull_equations() + pb.hull_equations()]
            ineqs = [
                tuple(-x for x in c) + (r,)
                for c, r in pa.ambient_inequalities + pb.ambient_inequalities
            ]
            inter = _cone_vertices(eqs, ineqs, pc.ambient_dim)
        ids = [point_ids.get(p) for p in inter]
        if None in ids or not set(ids) <= set_a or not set(ids) <= set_b:
            return False
        if inter and not (
            pa.is_face([a.vertices.index(i) for i in ids])
            and pb.is_face([b.vertices.index(i) for i in ids])
        ):
            return False
    return True


# -- strategies ----------------------------------------------------------------

SMALL = st.integers(-3, 3)
RHS = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def h_systems(draw):
    """A bounded system (equalities, inequalities, dim) in dimensions 1-3.

    A box bounds it.  The case picks whether it has equalities, is cut down
    to a lower dimension by a pair of opposite inequalities, or is made empty
    by a contradictory pair."""
    dim = draw(st.integers(1, 3))
    case = draw(st.sampled_from(("plain", "equalities", "flat", "empty")))
    vector = st.lists(SMALL, min_size=dim, max_size=dim)
    inequalities = []
    for axis in range(dim):
        lo = draw(st.integers(-3, 1))
        hi = draw(st.integers(lo, lo + 4))
        unit = tuple(int(i == axis) for i in range(dim))
        inequalities += [(unit, Fraction(hi)), (tuple(-u for u in unit), Fraction(-lo))]
    inequalities += [(tuple(draw(vector)), draw(RHS)) for _ in range(draw(st.integers(0, 3)))]
    equalities = []
    if case == "equalities":
        equalities = [(tuple(draw(vector)), draw(RHS)) for _ in range(draw(st.integers(1, 2)))]
    elif case in ("flat", "empty"):
        c, r = tuple(draw(vector)), draw(RHS)
        gap = 1 if case == "empty" and any(c) else 0
        inequalities += [(c, r), (tuple(-a for a in c), -r - gap)]
    order = draw(st.permutations(range(len(inequalities))))
    return equalities, [inequalities[i] for i in order], dim


@st.composite
def point_sets(draw):
    """1-7 rational points in R^1..R^3 spanning an affine subspace of any
    dimension up to the ambient one."""
    ambient = draw(st.integers(1, 3))
    k = draw(st.integers(0, ambient))
    base = draw(st.lists(st.integers(-3, 3), min_size=ambient, max_size=ambient))
    dirs = [
        draw(st.lists(SMALL, min_size=ambient, max_size=ambient)) for _ in range(k)
    ]
    coeff = st.fractions(min_value=-2, max_value=2, max_denominator=2)
    n = draw(st.integers(1, 7 if ambient == 3 else 6))
    points = set()
    for _ in range(n):
        cs = [draw(coeff) for _ in dirs]
        points.add(tuple(b + sum(c * d[i] for c, d in zip(cs, dirs)) for i, b in enumerate(base)))
    return sorted(points)


@st.composite
def cut_cases(draw):
    """Integer points of affine dimension 1-3 in R^1..R^3, lower-dimensional
    ones in R^3 included, and a hyperplane through one of the points, through
    the midpoint of two of them, or at a random offset."""
    k = draw(st.integers(1, 3))
    ambient = draw(st.integers(k, 3))
    base = draw(st.lists(SMALL, min_size=ambient, max_size=ambient))
    dirs = [draw(st.lists(SMALL, min_size=ambient, max_size=ambient)) for _ in range(k)]
    points = set()
    for _ in range(draw(st.integers(k + 1, 8))):
        cs = [draw(st.integers(-2, 2)) for _ in dirs]
        points.add(tuple(b + sum(c * d[i] for c, d in zip(cs, dirs)) for i, b in enumerate(base)))
    points = sorted(points)
    normal = tuple(draw(st.lists(SMALL, min_size=ambient, max_size=ambient).filter(any)))
    where = draw(st.sampled_from(("point", "midpoint", "offset")))
    if where == "point":
        through = draw(st.sampled_from(points))
    elif where == "midpoint":
        a, b = draw(st.sampled_from(points)), draw(st.sampled_from(points))
        through = [Fraction(x + y, 2) for x, y in zip(a, b)]
    else:
        through = [Fraction(draw(st.integers(-6, 6)), 2)] + [0] * (ambient - 1)
    return points, AffineHyperplane.through(normal, through)


# -- H to V, V to H, faces -----------------------------------------------------


@settings(derandomize=True, max_examples=150, deadline=None)
@given(h_systems())
def test_vertices_match_brute_force(system):
    equalities, inequalities, dim = system
    assert vertices_from_constraints(equalities, inequalities, dim) == brute_force_vertices(
        equalities, inequalities, dim
    )


@settings(derandomize=True, max_examples=150, deadline=None)
@given(point_sets())
def test_facets_and_faces_match_brute_force(points):
    poly = _Polytope(points)
    chart, facets = _chart(poly)
    assert tuple(inequality for inequality, _ in facets) == brute_force_chart_facets(chart, poly.dim)
    assert all(tight == exposed_vertices(chart, [inequality]) for inequality, tight in facets)
    assert poly.face_vertex_sets() == brute_force_faces(poly)


@st.composite
def rational_point_sets(draw):
    """1-7 points, repeats allowed, in R^1..R^3 with coordinates of
    denominators up to 6, spanning an affine subspace of any dimension up to
    the ambient one."""
    ambient = draw(st.integers(1, 3))
    k = draw(st.integers(0, ambient))
    coordinate = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    base = draw(st.lists(coordinate, min_size=ambient, max_size=ambient))
    dirs = [draw(st.lists(SMALL, min_size=ambient, max_size=ambient)) for _ in range(k)]
    coeff = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    points = []
    for _ in range(draw(st.integers(1, 7))):
        cs = [draw(coeff) for _ in dirs]
        points.append(tuple(b + sum(c * d[i] for c, d in zip(cs, dirs)) for i, b in enumerate(base)))
    return points


@settings(derandomize=True, max_examples=300, deadline=None)
@given(rational_point_sets())
def test_polytope_matches_fraction_construction(points):
    # The polytope's facets are the oracle's as vertex sets.  Its ambient
    # inequalities are the oracle's up to a function vanishing on the affine
    # hull, so they are compared where that is zero, in full dimension, and
    # through the Schlegel chart, which sees them only on the hull.
    poly = _Polytope(points)
    chart, inequalities, facets, ambient, equations = oracle_polytope(points)
    assert poly.dim == len(chart[0])
    assert _chart(poly) == (chart, tuple(zip(inequalities, facets)))
    assert sorted(poly.facets) == sorted(facets)
    if poly.dim == len(poly.rows[0]) - 1:
        assert sorted(zip(poly.facets, poly.ambient_inequalities)) == sorted(zip(facets, ambient))
    for (coeffs, rhs), tight in zip(poly.ambient_inequalities, poly.facets):
        slack = [rhs - dot(coeffs, x) for x in poly.vertices]
        assert min(slack) == 0 and tight == tuple(i for i, v in enumerate(slack) if v == 0)
    assert poly.hull_equations() == equations


@st.composite
def rational_clouds(draw):
    """2-8 points in R^1..R^3 with coordinates n / q, |n| <= 12 and q one
    of 1, 2, 3, 4, 6, repeats allowed."""
    ambient = draw(st.integers(1, 3))
    coordinate = st.builds(Fraction, st.integers(-12, 12), st.sampled_from((1, 2, 3, 4, 6)))
    point = st.tuples(*[coordinate] * ambient)
    return draw(st.lists(point, min_size=ambient + 1, max_size=8))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(rational_clouds())
def test_cell_measure_matches_fraction_determinants(points):
    poly = _Polytope(points)
    assume(1 <= poly.dim == len(poly.rows[0]) - 1)
    assert cell_measure(points) == oracle_cell_measure(points)


def oracle_pulling_simplices(faces, face):
    """Lifting's former pulling triangulation: the face's first vertex
    joined to the simplices of every facet of the face that misses it."""
    dim = faces[face]
    if dim == 0:
        return [face[:1]]
    apex, members = face[0], set(face)
    return [
        (apex,) + simplex
        for sub, sub_dim in faces.items()
        if sub_dim == dim - 1 and apex not in sub and members.issuperset(sub)
        for simplex in oracle_pulling_simplices(faces, sub)
    ]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(rational_clouds())
# a square with a repeated corner: that vertex is a 0-face of two points
@example([(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)),
          (Fraction(1), Fraction(1)), (Fraction(0), Fraction(0))])
def test_pulling_simplices_match_former_lifting_recursion(points):
    faces = _Polytope(points).face_vertex_sets()
    for face in faces:
        assert list(pulling_simplices(faces, face)) == oracle_pulling_simplices(faces, face)


@st.composite
def integer_matrices(draw):
    """Integer matrices of 0-5 rows and 1-5 columns, some rows combinations
    of others, so that every rank deficiency occurs."""
    width = draw(st.integers(1, 5))
    row = st.lists(st.integers(-4, 4), min_size=width, max_size=width)
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        if rows and draw(st.booleans()):
            weights = draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
            rows.append([sum(w * r[j] for w, r in zip(weights, rows)) for j in range(width)])
        else:
            rows.append(draw(row))
    return rows, width


@settings(derandomize=True, max_examples=300, deadline=None)
@given(integer_matrices())
def test_fraction_free_reduction_matches_rref(matrix):
    rows, width = matrix
    if rows:
        m, pivots, scale = fraction_free_rref(rows, width)
        reduced, expected = rref(rows)
        assert pivots == expected and scale != 0
        assert [[Fraction(a, scale) for a in r] for r in m[: len(pivots)]] == reduced[: len(pivots)]
        assert not any(any(r) for r in m[len(pivots):])
    basis = integer_kernel(rows, width)
    oracle = kernel_basis(rows, width)
    assert len(basis) == len(oracle)
    for v, w in zip(basis, oracle):
        lead = next(i for i, a in enumerate(w) if a)
        factor = Fraction(v[lead]) / w[lead]
        assert factor > 0 and v == tuple(factor * a for a in w)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(cut_cases())
def test_cut_matches_oracle_halves(case):
    points, h = case
    hull = _Polytope(points)
    assume(hull.dim >= 1)
    # the cutter takes a region by its vertices, as cells and the box are given
    poly = _Polytope([hull.vertices[vs[0]] for vs, d in hull.face_vertex_sets().items() if d == 0])
    expected = oracle_halves(poly, h)
    halves = _cut(_region(poly), h)
    if expected is None:
        assert halves is None
        return
    assert [(sorted(_point(row) for row in r[0]), _region_faces(r)) for r in halves] == [
        (sorted(half.vertices), polytope_faces(half)) for half in expected
    ]


def test_cut_through_skips_normals_constant_on_the_cell():
    # the kernel of a vertex's (empty) directions starts with x, constant on
    # a vertical segment; of the edge along y of the square in x = 1, too
    segment = _Polytope([(1, 0), (1, 2)])
    assert [cut_through(segment, f) for f in segment.facets] == [
        AffineHyperplane((0, 1), 0), AffineHyperplane((0, 1), 2)
    ]
    square = _Polytope([(1, 0, 0), (1, 2, 0), (1, 0, 2), (1, 2, 2)])
    assert {cut_through(square, f) for f in square.facets} == {
        AffineHyperplane((0, 1, 0), 0), AffineHyperplane((0, 1, 0), 2),
        AffineHyperplane((0, 0, 1), 0), AffineHyperplane((0, 0, 1), 2),
    }


def test_empty_and_lower_dimensional_systems():
    square = [((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)]
    assert vertices_from_constraints([], square + [((1, 1), -1)], 2) == []
    diagonal = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))]
    assert vertices_from_constraints([((1, -1), 0)], square, 2) == diagonal
    assert vertices_from_constraints([], square + [((1, -1), 0), ((-1, 1), 0)], 2) == diagonal
    # a strip has a line and so no vertex
    assert vertices_from_constraints([], square[:2], 2) == []


@st.composite
def pointed_cones(draw):
    """Inward covectors of a pointed cone in R^2..R^4, which lies in the
    orthant cut out by the unit rows; the extra rows may cut it down to a
    lower dimension."""
    d = draw(st.integers(2, 4))
    rows = [tuple(int(i == j) for i in range(d)) for j in range(d)]
    rows += [
        tuple(draw(st.lists(st.integers(-2, 3), min_size=d, max_size=d)))
        for _ in range(draw(st.integers(0, 4)))
    ]
    rows = [r for r in rows if any(r)]
    return [rows[i] for i in draw(st.permutations(range(len(rows))))]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(pointed_cones())
def test_extreme_rays_match_cone_from_inequalities(covectors):
    lineality, rays = extreme_rays([], covectors, len(covectors[0]))
    assert lineality == []
    assert rays == brute_force_cone_rays(covectors)


def outcome(build, arg):
    """What ``build(arg)`` returns, or the class of the cone error it raises."""
    try:
        return build(arg)
    except (NotFullDimensional, NotPointed) as error:
        return type(error)


def check_cone_against_oracles(rays):
    cone = outcome(dual_description, rays)
    assert cone == outcome(brute_force_dual_description, rays)
    if isinstance(cone, Cone):
        covectors = [f.coeffs for f in cone.facets]
        assert Cone.from_inequalities(covectors) == cone
        assert brute_force_from_inequalities(covectors) == cone
        assert faces_of(cone) == brute_force_cone_faces(cone)


@st.composite
def ray_sets(draw):
    """1-8 nonzero rays in R^2..R^4 whose last entry is mostly positive, so
    most sets span a pointed cone and some contain a line or span less."""
    d = draw(st.integers(2, 4))
    ray = st.tuples(*[st.integers(-3, 3)] * (d - 1), st.integers(-1, 3)).filter(any)
    return draw(st.lists(ray, min_size=1, max_size=8))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(ray_sets())
def test_cone_duals_and_faces_match_brute_force(rays):
    check_cone_against_oracles(rays)


def test_corpus_cone_duals_and_faces_match_brute_force():
    for cone in corpus_cones().values():
        assert dual_description(cone.rays) == cone
        check_cone_against_oracles(cone.rays)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(2, 4).flatmap(
    lambda d: st.lists(st.tuples(*[st.integers(-2, 2)] * d).filter(any), min_size=1, max_size=8)
))
def test_from_inequalities_matches_brute_force(covectors):
    assert outcome(Cone.from_inequalities, covectors) == outcome(
        brute_force_from_inequalities, covectors
    )


def test_extreme_rays_lineality_and_equalities():
    assert extreme_rays([], [], 2) == ([(1, 0), (0, 1)], [])
    lineality, rays = extreme_rays([], [(1, 0)], 2)
    assert lineality == [(0, 1)] and rays == [(1, 0)]
    lineality, rays = extreme_rays([(1, -1, 0)], [(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
    assert lineality == [] and rays == [(0, 0, 1), (1, 1, 0)]
    assert extreme_rays([], [(1, 0), (-1, 0), (0, 1), (0, -1)], 2) == ([], [])


# -- lower hull on random embedded complexes -----------------------------------


@st.composite
def complexes_1d(draw):
    """1-3 segments on a line; a zero gap glues a segment to the one before."""
    x = draw(st.integers(0, 4))
    vertices, cells = [(x,)], []
    for _ in range(draw(st.integers(1, 3))):
        gap = draw(st.integers(0, 3)) if cells else 0
        if gap:
            x += gap
            vertices.append((x,))
        x += draw(st.integers(1, 4))
        vertices.append((x,))
        cells.append((len(vertices) - 2, len(vertices) - 1))
    return vertices, cells


GRID_TRIANGLES = [
    tri
    for x in range(2)
    for y in range(2)
    for tri in (
        ((x, y), (x + 1, y), (x, y + 1)),
        ((x + 1, y), (x, y + 1), (x + 1, y + 1)),
    )
]


@st.composite
def complexes_2d(draw):
    """One or two triangles of a triangulated 2x2 grid, translated."""
    chosen = draw(st.sets(st.sampled_from(GRID_TRIANGLES), min_size=1, max_size=2))
    dx, dy = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
    tris = sorted(tuple((x + dx, y + dy) for x, y in t) for t in chosen)
    vertices = sorted({p for t in tris for p in t})
    index = {p: i for i, p in enumerate(vertices)}
    return vertices, [tuple(index[p] for p in t) for t in tris]


def lift_constraints(result, pc):
    """The lifted polytope's inequalities, rebuilt from the lift's record."""
    d = pc.ambient_dim
    lows = [floor(min(p[i] for p in pc.vertices)) - result.margin for i in range(d)]
    highs = [ceil(max(p[i] for p in pc.vertices)) + result.margin for i in range(d)]
    rows = [(tuple(c) + (-1,), Fraction(b)) for c, b in result.affine_pieces]
    for i in range(d):
        unit = tuple(int(j == i) for j in range(d + 1))
        rows += [(unit, Fraction(highs[i])), (tuple(-u for u in unit), Fraction(-lows[i]))]
    rows.append((tuple(int(j == d) for j in range(d + 1)), result.max_value + result.margin))
    return rows


def check_lift(vertices, cells):
    pc = embedded_complex(vertices, cells)
    assert verify_embedding(pc)
    result = lift(pc)
    assert verify_lower_hull(result)
    polytope = set(result.polytope_vertices)
    for i, x in enumerate(result.subdivision.vertices):
        assert x + (lift_height(result.arrangement, x),) in polytope
    return pc, result


@settings(derandomize=True, max_examples=40, deadline=None)
@given(complexes_1d())
def test_lower_hull_on_random_1d_complexes(complex_):
    pc, result = check_lift(*complex_)
    oracle = brute_force_vertices([], lift_constraints(result, pc), 2)
    assert list(result.polytope_vertices) == oracle


@settings(derandomize=True, max_examples=12, deadline=None)
@given(complexes_2d())
def test_lower_hull_on_random_2d_complexes(complex_):
    check_lift(*complex_)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(complexes_2d(), st.lists(st.tuples(SMALL, SMALL).filter(any), max_size=2), st.integers(-4, 4))
def test_induced_subdivision_matches_oracle(complex_, normals, offset):
    pc = embedded_complex(*complex_)
    extra = [AffineHyperplane.through(n, (Fraction(offset, 2), 0)) for n in normals]
    arrangement = Arrangement(covering_arrangement(pc).hyperplanes + tuple(extra))
    subdivision = induced_subdivision(pc, arrangement)
    oracle = oracle_induced_subdivision(pc, arrangement)
    assert subdivision.vertices == oracle.vertices
    assert subdivision.cells == oracle.cells


@st.composite
def embedded_complexes(draw):
    """An embedded complex: segments on a line, grid triangles, or one
    polytope of affine dimension 1-3 in R^1..R^3 with its faces."""
    kind = draw(st.sampled_from(("1d", "2d", "polytope")))
    if kind == "1d":
        return embedded_complex(*draw(complexes_1d()))
    if kind == "2d":
        return embedded_complex(*draw(complexes_2d()))
    points, _ = draw(cut_cases())
    hull = _Polytope(points)
    vertices = [hull.vertices[vs[0]] for vs, d in hull.face_vertex_sets().items() if d == 0]
    return embedded_complex(vertices, [tuple(range(len(vertices)))])


@st.composite
def cover_cases(draw):
    """An embedded complex and its covering arrangement, whole, with one
    hyperplane dropped, or with a random hyperplane added."""
    pc = draw(embedded_complexes())
    hyperplanes = list(covering_arrangement(pc).hyperplanes)
    change = draw(st.sampled_from(("whole", "drop", "add")))
    if change == "drop":
        del hyperplanes[draw(st.integers(0, len(hyperplanes) - 1))]
    elif change == "add":
        normal = draw(st.lists(SMALL, min_size=pc.ambient_dim, max_size=pc.ambient_dim).filter(any))
        hyperplanes.append(AffineHyperplane.through(normal, draw(st.sampled_from(pc.vertices))))
    return pc, Arrangement(tuple(hyperplanes))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(cover_cases())
def test_arrangement_covers_matches_fraction_oracle(case):
    pc, arrangement = case
    for cell in pc.cells:
        poly = _Polytope(pc.cell_points(cell))
        assert _arrangement_covers(poly, arrangement) == oracle_covers(poly, arrangement)


# The three 2x2-grid shapes of the ``lifts`` benchmark workload (a triangle,
# two sharing an edge, two disjoint), four segments on a line, and the 2x2x1
# cube slab split into 24 tetrahedra.
LIFT_SHAPES = (
    ([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)]),
    ([(0, 0), (0, 1), (1, 1), (1, 2)], [(0, 1, 2), (1, 2, 3)]),
    ([(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2)], [(0, 1, 2), (3, 4, 5)]),
    ([(1,), (3,), (4,), (9,), (10,), (17,), (20,), (24,)], [(0, 1), (2, 3), (4, 5), (6, 7)]),
)


def cube_slab():
    sc = cubical_complex([(x, y, 0) for x in range(2) for y in range(2)])
    corners = sorted({(x, y, z) for x in range(3) for y in range(3) for z in range(2)})
    return corners, sorted(sc.facets)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(embedded_complexes())
def test_covering_arrangement_is_the_facet_cut_oracle(pc):
    # every facet cut is a hull equation of the facet's own cell
    assert covering_arrangement(pc) == oracle_covering_arrangement(pc)


def test_covering_arrangement_is_the_facet_cut_oracle_on_lift_shapes():
    for vertices, cells in LIFT_SHAPES + (cube_slab(),):
        pc = embedded_complex(vertices, cells)
        assert covering_arrangement(pc) == oracle_covering_arrangement(pc)


# -- embedding check on maximal cells ------------------------------------------


@st.composite
def embedding_cases(draw):
    """A complex in R^1..R^3, embedded or not: one to three polytopes, each
    the hull of two to five points of [0, 3]^d with all its faces, over one
    vertex list.  The polytopes may overlap, cross or share faces.  At times
    one more cell spans some vertices of the largest cell: a face of it, or a
    diagonal or nested cell that is not."""
    d = draw(st.integers(1, 3))
    coordinates = st.tuples(*[st.integers(0, 3)] * d)
    index, cells = {}, {}
    for _ in range(draw(st.integers(1, 3))):
        hull = _Polytope(draw(st.lists(coordinates, min_size=2, max_size=5, unique=True)))
        corners = [hull.vertices[vs[0]] for vs, k in hull.face_vertex_sets().items() if k == 0]
        ids = [index.setdefault(p, len(index)) for p in corners]
        for vs, k in _Polytope(corners).face_vertex_sets().items():
            cells[tuple(sorted(ids[i] for i in vs))] = k
    points = sorted(index, key=index.get)
    if draw(st.booleans()):
        spans = max(cells, key=lambda vs: (len(vs), vs))
        extra = tuple(sorted(draw(st.sets(st.sampled_from(spans), min_size=2))))
        cells.setdefault(extra, _Polytope([points[i] for i in extra]).dim)
    return PolyhedralComplex(tuple(points), tuple(Cell(vs, k) for vs, k in cells.items()))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(embedding_cases())
def test_verify_embedding_matches_all_pairs_oracle(pc):
    assert verify_embedding(pc) == oracle_verify_embedding(pc)


def oracle_maximal_cells(pc):
    """The former scan: each cell's vertex set against every other cell's."""
    return tuple(
        c for c in pc.cells
        if not any(o is not c and set(c.vertices) < set(o.vertices) for o in pc.cells)
    )


@settings(derandomize=True, max_examples=150, deadline=None)
@given(embedding_cases(), st.data())
def test_maximal_cells_match_pairwise_oracle(pc, data):
    # also on a random subset of the cells, seldom closed under faces
    some = data.draw(st.lists(st.sampled_from(pc.cells), min_size=1, unique=True))
    for complex_ in (pc, PolyhedralComplex(pc.vertices, tuple(some))):
        assert complex_.maximal_cells() == oracle_maximal_cells(complex_)


def test_verify_embedding_matches_all_pairs_oracle_on_lift_shapes():
    for vertices, cells in LIFT_SHAPES + (cube_slab(),):
        pc = embedded_complex(vertices, cells)
        assert verify_embedding(pc) and oracle_verify_embedding(pc)


def same_verdict_and_lift_as_a_fresh_complex(pc, lift_dims=(1, 2, 3)):
    """A complex from embedded_complex keeps its maximal cells' polytopes,
    each the one a fresh build on the cell's points gives; the same cells in
    a new complex, which starts with none, get the same embedding verdict
    and, when embedded in R^d for d in ``lift_dims``, the same lift."""
    assert set(pc._polytopes) == set(pc.maximal_cells())
    for cell, poly in pc._polytopes.items():
        built = _Polytope(pc.cell_points(cell))
        assert (poly.vertices, poly.rows, poly.facets, poly.ambient_inequalities) == (
            built.vertices, built.rows, built.facets, built.ambient_inequalities
        )
    fresh = PolyhedralComplex(pc.vertices, pc.cells)
    assert not fresh._polytopes
    embedded = verify_embedding(pc)
    assert verify_embedding(fresh) == embedded
    if embedded and pc.ambient_dim in lift_dims:
        kept, rebuilt = lift(pc), lift(fresh)
        assert kept.subdivision.vertices == rebuilt.subdivision.vertices
        assert kept.subdivision.cells == rebuilt.subdivision.cells
        assert kept.lift_values == rebuilt.lift_values
        assert kept.polytope_vertices == rebuilt.polytope_vertices


@settings(derandomize=True, max_examples=100, deadline=None)
@given(embedding_cases())
def test_kept_polytopes_change_no_verdict_and_no_lift(case):
    # the maximal cells of a case are the corners of their hulls; a lift of
    # a random cell in R^3 can take seconds, so the corpus lifts those
    pc = embedded_complex(case.vertices, [c.vertices for c in case.maximal_cells()])
    same_verdict_and_lift_as_a_fresh_complex(pc, lift_dims=(1, 2))


def test_kept_polytopes_change_no_verdict_and_no_lift_on_the_corpus():
    corpus = [two_segments_1d(), one_point_1d(), two_triangles_2d(), unit_square_2d(), segment_2d()]
    for vertices, cells in LIFT_SHAPES + (cube_slab(),):
        corpus.append(embedded_complex(vertices, cells))
    for pc in corpus:
        same_verdict_and_lift_as_a_fresh_complex(pc)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(cover_cases())
def test_subdivision_is_refused_when_any_cell_is_not_covered(case):
    # the cover check runs on the maximal cells only, because the faces of
    # a covered cell are covered
    pc, arrangement = case
    uncovered = [
        cell for cell in pc.cells
        if not _arrangement_covers(_Polytope(pc.cell_points(cell)), arrangement)
    ]
    try:
        induced_subdivision(pc, arrangement)
    except ArrangementDoesNotCover:
        assert uncovered
    else:
        assert not uncovered

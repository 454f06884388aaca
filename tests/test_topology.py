"""Homology, links, CM certificates, recognition, cross-sections."""

import gc
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from recdom import geometry, topology
from recdom.corpus import (
    annulus,
    corpus_complexes,
    cubical_complex,
    cycle_complex,
    facet_pairs_sharing_a_ray,
    facet_pairs_sharing_no_ray,
    genus2_handlebody,
    hollow_triangle,
    path_complex,
    projective_plane,
    quadrant,
    solid_torus,
    square_cone,
    tetrahedron_ball,
    tetrahedron_boundary,
    three_triangles_on_edge,
    two_disjoint_edges,
    two_points,
    two_triangles,
)
from recdom.enumerator import FacetSelection
from recdom.geometry import GF2, QQ, Cone, FieldSpec, InvariantViolation, NotFullDimensional
from recdom.topology import (
    Cell,
    CMCertificate,
    DimensionTooHigh,
    FaceNotPresent,
    NotAManifold,
    PolyhedralComplex,
    SimplicialComplex,
    _components,
    barycentric,
    boundary_inequality_check,
    boundary_subcomplex,
    cm_on_upper_intervals,
    is_cohen_macaulay,
    is_manifold_with_boundary,
    link,
    recognize_ball_sphere,
    reduced_homology,
    simplicial_as_polyhedral,
)


# -- independent homology oracle -----------------------------------------------

def oracle_betti(sc, p=0):
    """Reduced Betti numbers via plain Gaussian elimination, built separately."""
    faces = sorted((f for f in sc.faces() if f), key=lambda f: (len(f), f))
    levels = {}
    for f in faces:
        levels.setdefault(len(f) - 1, []).append(f)
    d = max(levels)

    def boundary(k):
        rows = {f: i for i, f in enumerate(levels[k - 1])}
        m = [[Fraction(0)] * len(levels[k]) for _ in levels[k - 1]]
        for j, f in enumerate(levels[k]):
            for i in range(len(f)):
                m[rows[f[:i] + f[i + 1 :]]][j] += (-1) ** i
        return m

    def rank(m):
        if not m:
            return 0
        if p:
            mm = [[int(a) % p for a in r] for r in m]
        else:
            mm = [list(r) for r in m]
        r = 0
        for c in range(len(mm[0])):
            piv = next((i for i in range(r, len(mm)) if mm[i][c]), None)
            if piv is None:
                continue
            mm[r], mm[piv] = mm[piv], mm[r]
            for i in range(len(mm)):
                if i != r and mm[i][c]:
                    if p:
                        f = (mm[i][c] * pow(mm[r][c], p - 2, p)) % p
                        mm[i] = [(a - f * b) % p for a, b in zip(mm[i], mm[r])]
                    else:
                        f = mm[i][c] / mm[r][c]
                        mm[i] = [a - f * b for a, b in zip(mm[i], mm[r])]
            r += 1
        return r

    ranks = {0: 1, d + 1: 0}
    for k in range(1, d + 1):
        ranks[k] = rank(boundary(k))
    return tuple(len(levels[k]) - ranks[k] - ranks[k + 1] for k in range(d + 1))


def test_homology_hollow_triangle():
    profile = reduced_homology(hollow_triangle(), QQ)
    assert profile.betti == (0, 1) == oracle_betti(hollow_triangle())


def test_homology_two_isolated_vertices():
    assert reduced_homology(two_points(), QQ).betti == (1,)


def test_homology_projective_plane_both_fields():
    rp2 = projective_plane()
    assert reduced_homology(rp2, QQ).betti == (0, 0, 0) == oracle_betti(rp2)
    assert reduced_homology(rp2, GF2).betti == (0, 1, 1) == oracle_betti(rp2, 2)


def test_homology_solid_torus_vs_oracle():
    torus = solid_torus()
    assert reduced_homology(torus, QQ).betti == (0, 1, 0, 0) == oracle_betti(torus)


def test_homology_matches_oracle_on_corpus():
    for name, sc in corpus_complexes().items():
        for field, p in ((QQ, 0), (GF2, 2), (FieldSpec(3), 3)):
            assert reduced_homology(sc, field).betti == oracle_betti(sc, p), name


def test_euler_betti_consistency_runs_on_corpus():
    # the alternating sum telescopes to the reduced Euler characteristic for
    # any rank values, so it checks only the face counts, not the ranks
    for name, sc in corpus_complexes().items():
        for field in (QQ, GF2):
            profile = reduced_homology(sc, field)
            chi_reduced = sc.euler_characteristic() - 1
            assert sum((-1) ** k * b for k, b in enumerate(profile.betti)) == chi_reduced


@pytest.mark.parametrize("target, shift", [("sparse_rank", 1), ("sparse_rank", 5), ("_components", -1)])
def test_too_large_ranks_raise_invariant_violation(monkeypatch, target, shift):
    # the alternating Betti sum cannot see a wrong rank (it telescopes); a
    # rank above the true one drives a Betti number below zero, which raises
    original = getattr(topology, target)
    monkeypatch.setattr(topology, target, lambda *args: original(*args) + shift)
    for sc in (tetrahedron_boundary(), annulus(), projective_plane()):
        with pytest.raises(InvariantViolation, match="negative Betti"):
            reduced_homology(sc, QQ)


def _boundary_matrix(faces_k, faces_km1):
    """The former dense boundary matrix: one row per (k-1)-face, one column
    per k-face."""
    row_index = {f: i for i, f in enumerate(faces_km1)}
    matrix = [[0] * len(faces_k) for _ in faces_km1]
    for j, f in enumerate(faces_k):
        for i in range(len(f)):
            sub = f[:i] + f[i + 1 :]
            matrix[row_index[sub]][j] += -1 if i % 2 else 1
    return matrix


def test_boundary_squares_to_zero_on_corpus():
    for name, sc in corpus_complexes().items():
        levels = {}
        for f in sorted(f for f in sc.faces() if f):
            levels.setdefault(len(f) - 1, []).append(f)
        # symbolically, one simplex at a time: removing two vertices in
        # either order carries opposite signs
        for k in range(1, len(levels)):
            for f in levels[k]:
                acc = {}
                for i in range(len(f)):
                    sub = f[:i] + f[i + 1 :]
                    for j in range(len(sub)):
                        subsub = sub[:j] + sub[j + 1 :]
                        acc[subsub] = acc.get(subsub, 0) + (-1) ** (i + j)
                assert set(acc.values()) == {0}, (name, f)
        # and on the matrices whose columns the homology engine ranks
        for k in range(2, len(levels)):
            outer = _boundary_matrix(levels[k - 1], levels[k - 2])
            inner = _boundary_matrix(levels[k], levels[k - 1])
            for row in outer:
                for j in range(len(levels[k])):
                    assert sum(a * inner[m][j] for m, a in enumerate(row)) == 0, (name, k)


def test_homology_rejects_empty_complex():
    empty = SimplicialComplex(0, ())
    with pytest.raises(ValueError):
        reduced_homology(empty, QQ)


# -- links ----------------------------------------------------------------------

def test_link_interior_vertex_of_path():
    path = path_complex(2)
    lk = link(path, (1,))
    assert lk.facets == ((0,), (2,))


def test_link_vertex_of_hollow_triangle():
    lk = link(hollow_triangle(), (0,))
    assert lk.facets == ((1,), (2,))


def test_link_empty_face_is_whole_complex():
    for sc in (two_triangles(), SimplicialComplex(3, ())):
        assert link(sc, ()) is sc


def test_link_missing_face():
    absent = (
        (hollow_triangle(), (0, 1, 2)),
        (two_triangles(), (1, 1)),  # a repeated vertex
        (SimplicialComplex(3, ()), (0,)),
    )
    for sc, face in absent:
        with pytest.raises(FaceNotPresent):
            link(sc, face)


def test_link_of_facet_is_empty_complex():
    lk = link(two_triangles(), (0, 1, 2))
    assert lk.facets == () and lk.dim == -1


def oracle_link(sc, face):
    """The link by its definition: rescan every face against every face."""
    face = tuple(sorted(face))
    faces = sc.faces()
    if face not in faces:
        raise FaceNotPresent(face)
    if not face:
        return sc
    fs = set(face)
    members = [
        t
        for t in faces
        if t and not fs & set(t) and tuple(sorted(t + face)) in faces
    ]
    return SimplicialComplex.from_faces(sc.n_vertices, members)


def _link_or_absent(link_fn, sc, face):
    try:
        return link_fn(sc, face)
    except FaceNotPresent:
        return FaceNotPresent


@st.composite
def complexes_and_faces(draw):
    """A random complex on up to 7 vertices (possibly only the empty face) and
    a face to link: one of its faces, or any vertex tuple, repeats allowed."""
    n = draw(st.integers(1, 7))
    vertex = st.integers(0, n - 1)
    sets = st.lists(st.sets(vertex, min_size=1, max_size=4), max_size=6)
    sc = SimplicialComplex.from_faces(n, draw(sets))
    faces = sorted(sc.faces())
    face = draw(st.one_of(st.sampled_from(faces), st.lists(vertex, max_size=3)))
    return sc, tuple(draw(st.permutations(face)))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(complexes_and_faces())
def test_link_matches_oracle(case):
    sc, face = case
    assert _link_or_absent(link, sc, face) == _link_or_absent(oracle_link, sc, face)


def oracle_from_faces(n_vertices, faces):
    """The former construction: each face against every kept face."""
    normalized = sorted({tuple(sorted(set(f))) for f in faces}, key=lambda f: (-len(f), f))
    maximal = []
    for f in normalized:
        if f and not any(set(f) <= set(g) for g in maximal):
            maximal.append(f)
    return SimplicialComplex(n_vertices, tuple(sorted(maximal)))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.lists(st.integers(0, 7), max_size=5), max_size=12))
def test_from_faces_matches_pairwise_oracle(faces):
    # unsorted faces, repeated vertices and faces, and empty faces included
    assert SimplicialComplex.from_faces(8, faces) == oracle_from_faces(8, faces)


# -- Cohen-Macaulay certificates -------------------------------------------------

def oracle_is_cohen_macaulay(sc, field=QQ):
    """The former scan: the link of every face, whatever its size."""
    d = sc.dim
    if d < 0:
        return CMCertificate(True)
    for face in sorted(sc.faces(), key=lambda f: (len(f), f)):
        lk = link(sc, face)
        required_below = d - len(face)
        if lk.dim < 0:
            if required_below > 0:
                return CMCertificate(False, face, -1, 1)
            continue
        profile = reduced_homology(lk, field)
        for i, b in enumerate(profile.betti):
            if i < required_below and b:
                return CMCertificate(False, face, i, b)
    return CMCertificate(True)


@st.composite
def random_complexes(draw):
    """A complex on up to 8 vertices from up to 7 random faces of 1 to 4
    vertices, impure ones included, or the barycentric subdivision of one."""
    n = draw(st.integers(1, 8))
    sets = st.lists(st.sets(st.integers(0, n - 1), min_size=1, max_size=4), max_size=7)
    sc = SimplicialComplex.from_faces(n, draw(sets))
    if sc.dim >= 1 and draw(st.booleans()):
        sc = barycentric(simplicial_as_polyhedral(sc))
    return sc


def from_faces_link(sc, face):
    """The facets through ``face`` minus ``face``, normalised by ``from_faces``
    (deduplicated and filtered to the maximal ones)."""
    fs = set(face)
    rest = [tuple(v for v in f if v not in fs) for f in sc.facets if fs <= set(f)]
    return SimplicialComplex.from_faces(sc.n_vertices, rest)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(random_complexes(), st.data())
def test_link_needs_no_from_faces(sc, data):
    # F minus the face, over the facets F through it, is already a sorted
    # antichain: normalising it again changes nothing
    face = data.draw(st.sampled_from(sorted(sc.faces())))
    assert link(sc, face).facets == from_faces_link(sc, face).facets


@settings(derandomize=True, max_examples=200, deadline=None)
@given(random_complexes(), st.sampled_from([QQ, GF2, FieldSpec(3)]))
def test_cm_certificates_match_full_scan(sc, field):
    assert is_cohen_macaulay(sc, field) == oracle_is_cohen_macaulay(sc, field)


# The cube-slab pictures of the benchmark's ``complexes`` workload ("#" a unit
# square, rows separated by spaces): two disks and one non-disk per grid.
SLAB_PICTURES = (
    "### #.# ..#", "### .## ..#", "##. ..# ###",
    ".#. ### ### .#.", ".## ..# .## ###", "#.# .## .#. ###",
    "#.## ###. #.#.", "##.# .### .##.", "#### ...# #.##",
    "###. .### .#.. ####", "#.#. #.## #### .##.", "##.# ##.# ##.. #.##",
)


@pytest.mark.parametrize("picture", SLAB_PICTURES)
def test_cm_b0_from_components_matches_full_scan_on_slabs(picture):
    # where only b_0 of a link has to vanish the scan counts the link's
    # components instead of computing its homology; the certificate is the
    # one the homology of every link gives
    squares = [
        (x, y, 0)
        for y, row in enumerate(picture.split())
        for x, cell in enumerate(row)
        if cell == "#"
    ]
    slab = cubical_complex(squares)
    for field in (QQ, GF2):
        assert is_cohen_macaulay(slab, field) == oracle_is_cohen_macaulay(slab, field)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(random_complexes())
@example(projective_plane())
def test_homology_matches_dense_oracle(sc):
    assume(sc.dim >= 0)
    for field, p in ((QQ, 0), (GF2, 2), (FieldSpec(1000003), 1000003)):
        assert reduced_homology(sc, field).betti == oracle_betti(sc, p)


def test_cube_slab_is_cm_over_q_and_f2():
    # 72 tetrahedra of a 6 x 6 x 1 slab of cubes, 1252 faces: one sparse
    # elimination per boundary map over either field
    slab = cubical_complex([(x, y, 0) for x in range(6) for y in range(6)])
    assert len(slab.faces()) == 1252
    for field in (QQ, GF2):
        assert reduced_homology(slab, field).betti == (0, 0, 0, 0)
        assert is_cohen_macaulay(slab, field) == CMCertificate(True)


def test_cm_scan_of_slab_eliminates_only_the_higher_boundary_maps(monkeypatch):
    # Work guard: rank ∂1 comes from the components, so one CM scan of the
    # 6 x 6 x 1 slab eliminates ∂2 and ∂3 of the whole complex and ∂2 of each
    # of the 98 vertex links (disks and spheres), and nothing for the 1-
    # dimensional edge links; no dense matrix is ranked at all
    sparse, dense = [], []
    sparse_rank, rank_over_field = topology.sparse_rank, geometry.rank_over_field

    def counting_sparse(rows, width, field):
        sparse.append(width)
        return sparse_rank(rows, width, field)

    def counting_dense(*args):
        dense.append(args)
        return rank_over_field(*args)

    monkeypatch.setattr(topology, "sparse_rank", counting_sparse)
    monkeypatch.setattr(geometry, "rank_over_field", counting_dense)
    monkeypatch.setattr(topology, "rank_over_field", counting_dense, raising=False)
    slab = cubical_complex([(x, y, 0) for x in range(6) for y in range(6)])
    assert len(slab.vertices_used()) == 98
    assert is_cohen_macaulay(slab, QQ) == CMCertificate(True)
    assert len(sparse) == 2 + 98 and dense == []


def oracle_is_connected(sc):
    """The former connectivity test: a graph search from the first vertex."""
    verts = sc.vertices_used()
    if not verts:
        return False
    adjacency = {v: set() for v in verts}
    for f in sc.facets:
        for a, b in combinations(f, 2):
            adjacency[a].add(b)
            adjacency[b].add(a)
    seen = {verts[0]}
    stack = [verts[0]]
    while stack:
        v = stack.pop()
        for u in adjacency[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(verts)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(random_complexes(), st.integers(0, 3))
def test_components_match_the_former_search(sc, isolated):
    # also with extra isolated vertices, and on the empty graph
    n = sc.n_vertices
    extra = SimplicialComplex(n + isolated, sc.facets + tuple((n + i,) for i in range(isolated)))
    counts = []
    for c in (sc, extra, SimplicialComplex(0, ())):
        edges = [e for f in c.facets for e in combinations(f, 2)]
        counts.append(_components(c.vertices_used(), edges))
        assert (counts[-1] == 1) == oracle_is_connected(c)
    assert counts[1:] == [counts[0] + isolated, 0]


def test_cm_impure_complex_with_a_maximal_edge_fails_at_a_vertex():
    # the maximal edge (2, 3) has dim(sc) = 2 vertices, so its empty link is
    # allowed; the impurity shows in the disconnected link of vertex 2
    sc = SimplicialComplex.from_faces(4, [(0, 1, 2), (2, 3)])
    cert = is_cohen_macaulay(sc, QQ)
    assert cert == CMCertificate(False, (2,), 0, 1)
    assert cert == oracle_is_cohen_macaulay(sc, QQ)


def test_cm_scan_stops_below_dim_vertices(monkeypatch):
    # Work guard: the scan links only the faces with fewer than dim(sc)
    # vertices; on the boundary of a tetrahedron (dim 2) those are the
    # empty face and the four vertices, not the six edges and four
    # triangles as well.
    calls = []

    def counting(sc, face):
        calls.append(face)
        return link(sc, face)

    monkeypatch.setattr(topology, "link", counting)
    assert is_cohen_macaulay(tetrahedron_boundary(), QQ).is_cm
    assert calls == [(), (0,), (1,), (2,), (3,)]
    calls.clear()
    assert is_cohen_macaulay(cycle_complex(5), GF2).is_cm
    assert calls == [()]


def test_cm_path():
    for field in (QQ, GF2):
        assert is_cohen_macaulay(path_complex(2), field).is_cm


def test_cm_two_disjoint_edges_fails_at_empty_face():
    cert = is_cohen_macaulay(two_disjoint_edges(), QQ)
    assert not cert.is_cm
    assert cert.failing_face == ()
    assert cert.failing_index == 0
    assert cert.failing_betti == 1


def test_cm_projective_plane_field_dependence():
    assert is_cohen_macaulay(projective_plane(), QQ).is_cm
    cert = is_cohen_macaulay(projective_plane(), GF2)
    assert not cert.is_cm
    assert cert.failing_face == () and cert.failing_index == 1 and cert.failing_betti == 1


def test_cm_impure_complex_fails():
    impure = SimplicialComplex.from_faces(5, [(0, 1, 2), (3, 4)])
    assert not is_cohen_macaulay(impure, QQ).is_cm


def test_cm_spheres_are_cm():
    for sc in (hollow_triangle(), cycle_complex(5), tetrahedron_boundary()):
        assert recognize_ball_sphere(sc) == "sphere"
        for field in (QQ, GF2):
            assert is_cohen_macaulay(sc, field).is_cm


def test_cm_invariant_under_barycentric():
    cases = [
        two_triangles(),
        two_disjoint_edges(),
        projective_plane(),
        annulus(),
        path_complex(3),
    ]
    for sc in cases:
        for field in (QQ, GF2):
            direct = is_cohen_macaulay(sc, field).is_cm
            again = is_cohen_macaulay(barycentric(simplicial_as_polyhedral(sc)), field).is_cm
            assert direct == again, (sc, field.label)


# -- recognition ------------------------------------------------------------------

def test_recognize_dim0():
    assert recognize_ball_sphere(SimplicialComplex.from_faces(1, [(0,)])) == "ball"
    assert recognize_ball_sphere(two_points()) == "sphere"
    assert recognize_ball_sphere(SimplicialComplex.from_faces(3, [(0,), (1,), (2,)])) == "other"


def test_recognize_dim1():
    assert recognize_ball_sphere(path_complex(4)) == "ball"
    assert recognize_ball_sphere(cycle_complex(6)) == "sphere"
    assert recognize_ball_sphere(two_disjoint_edges()) == "other"


def test_recognize_dim2():
    assert recognize_ball_sphere(tetrahedron_boundary()) == "sphere"
    assert recognize_ball_sphere(two_triangles()) == "ball"
    assert recognize_ball_sphere(annulus()) == "other"
    assert recognize_ball_sphere(projective_plane()) == "other"
    assert recognize_ball_sphere(three_triangles_on_edge()) == "other"


def test_recognize_dim3_unknown():
    assert recognize_ball_sphere(tetrahedron_ball()) == "unknown"


def test_annulus_euler_characteristic():
    assert annulus().euler_characteristic() == 0


def oracle_connected(sc):
    return reduced_homology(sc).betti[0] == 0


def oracle_graph_shape(sc):
    """Classify a complex of dimension <= 1 as path, cycle, or other by its
    vertex degrees."""
    if sc.dim > 1 or sc.dim < 0:
        return "other"
    edges = [f for f in sc.facets if len(f) == 2]
    verts = sc.vertices_used()
    if not edges:
        return "path" if len(verts) == 1 else "other"
    if any(len(f) == 1 for f in sc.facets) or not oracle_connected(sc):
        return "other"
    degree = {v: 0 for v in verts}
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
    degs = sorted(degree.values())
    if all(g == 2 for g in degs) and len(edges) == len(verts):
        return "cycle"
    if degs.count(1) == 2 and all(g <= 2 for g in degs) and len(edges) == len(verts) - 1:
        return "path"
    return "other"


def oracle_recognize_surface(sc):
    """A pure connected 2-complex with no edge in three triangles, path or
    cycle vertex links, and chi = 2 without boundary (a sphere) or chi = 1
    with a boundary cycle (a disk)."""
    if not sc.is_pure() or not oracle_connected(sc):
        return "other"
    edge_count = {}
    for t in sc.facets:
        for e in combinations(t, 2):
            edge_count[e] = edge_count.get(e, 0) + 1
    if any(c > 2 for c in edge_count.values()):
        return "other"
    link_shapes = {oracle_graph_shape(link(sc, (v,))) for v in sc.vertices_used()}
    if not link_shapes <= {"path", "cycle"}:
        return "other"
    boundary_edges = [e for e, c in edge_count.items() if c == 1]
    chi = sc.euler_characteristic()
    if not boundary_edges:
        return "sphere" if chi == 2 and link_shapes == {"cycle"} else "other"
    boundary = SimplicialComplex.from_faces(sc.n_vertices, boundary_edges)
    return "ball" if chi == 1 and oracle_graph_shape(boundary) == "cycle" else "other"


def oracle_recognize_ball_sphere(sc):
    """The former recognizer: vertex degrees in dimension 1, edge counts and
    vertex-link shapes in dimension 2."""
    d = sc.dim
    if d < 0:
        return "other"
    if d == 0:
        return {1: "ball", 2: "sphere"}.get(len(sc.facets), "other")
    if d == 1:
        return {"path": "ball", "cycle": "sphere"}.get(oracle_graph_shape(sc), "other")
    if d == 2:
        return oracle_recognize_surface(sc)
    return "unknown"


def octahedron_boundary():
    return SimplicialComplex.from_faces(
        6, [(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)]
    )


def seven_vertex_torus():
    """Möbius' torus: the triangles {i, i+1, i+3} and {i, i+2, i+3} mod 7."""
    return SimplicialComplex.from_faces(
        7, [(i, (i + a) % 7, (i + 3) % 7) for i in range(7) for a in (1, 2)]
    )


def moebius_band():
    """Consecutive triples of a 5-cycle; the edges {i, i+2} form its boundary."""
    return SimplicialComplex.from_faces(5, [(i, (i + 1) % 5, (i + 2) % 5) for i in range(5)])


def test_named_surfaces():
    torus = seven_vertex_torus()
    assert reduced_homology(torus).betti == (0, 2, 1)
    assert is_manifold_with_boundary(torus)[1].facets == ()
    assert reduced_homology(moebius_band()).betti == (0, 1, 0)
    assert len(is_manifold_with_boundary(moebius_band())[1].facets) == 5


@pytest.mark.parametrize(
    "name, sc, verdict",
    [
        ("octahedron", octahedron_boundary(), "sphere"),
        ("cone over a pentagon", SimplicialComplex.from_faces(6, [(0, i, i % 5 + 1) for i in range(1, 6)]), "ball"),
        ("Möbius band", moebius_band(), "other"),
        # chi = 0 and no boundary, as for one cycle
        ("two cycles", SimplicialComplex.from_faces(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]), "other"),
        # chi = 2 and no boundary, as for one 2-sphere
        ("sphere beside a torus", SimplicialComplex.from_faces(
            11, list(tetrahedron_boundary().facets) + [tuple(v + 4 for v in f) for f in seven_vertex_torus().facets]
        ), "other"),
        ("torus", seven_vertex_torus(), "other"),
        ("annulus", annulus(), "other"),
        ("projective plane", projective_plane(), "other"),
        # chi = 1 and a boundary, but vertex 0's link is two points
        ("bowtie", SimplicialComplex.from_faces(5, [(0, 1, 2), (0, 3, 4)]), "other"),
        ("edge in three triangles", three_triangles_on_edge(), "other"),
        # a strip of four triangles whose two ends meet at vertex 0 only
        ("pinched disk", SimplicialComplex.from_faces(5, [(0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 3, 4)]), "other"),
    ],
)
def test_recognition_of_named_complexes(name, sc, verdict):
    assert recognize_ball_sphere(sc) == oracle_recognize_ball_sphere(sc) == verdict


SURFACES = (tetrahedron_boundary(), octahedron_boundary(), projective_plane(), seven_vertex_torus())


@st.composite
def low_dimensional_complexes(draw):
    """A complex of dimension at most 2 on 7 vertices: some triangles of a
    closed surface, so that disks, spheres, annuli and Möbius bands are
    common, or the edges of a walk, so that paths and cycles are, or random
    faces; then a few random faces of 1 to 3 vertices, impure ones included."""
    kind = draw(st.sampled_from(("surface", "walk", "random")))
    faces = []
    if kind == "surface":
        surface = draw(st.sampled_from(SURFACES))
        faces = draw(st.lists(st.sampled_from(surface.facets), unique=True))
    elif kind == "walk":
        walk = draw(st.lists(st.integers(0, 6), min_size=2, max_size=8))
        faces = [e for e in zip(walk, walk[1:]) if e[0] != e[1]]
    faces += draw(st.lists(st.sets(st.integers(0, 6), min_size=1, max_size=3), max_size=3))
    return SimplicialComplex.from_faces(7, faces)


@settings(derandomize=True, max_examples=600, deadline=None)
@given(low_dimensional_complexes())
def test_recognition_matches_former_recognizer(sc):
    assert recognize_ball_sphere(sc) == oracle_recognize_ball_sphere(sc)


# -- manifolds ---------------------------------------------------------------------

def test_manifold_two_triangles():
    ok, boundary = is_manifold_with_boundary(two_triangles())
    assert ok
    assert recognize_ball_sphere(boundary) == "sphere"  # the boundary square cycle
    assert len(boundary.facets) == 4


def test_manifold_three_triangles_fails():
    ok, _ = is_manifold_with_boundary(three_triangles_on_edge())
    assert not ok


def test_manifold_solid_torus():
    torus = solid_torus()
    ok, boundary = is_manifold_with_boundary(torus)
    assert ok
    # independent boundary oracle: triangles in exactly one tetrahedron
    counts = {}
    for tet in torus.facets:
        for tri in combinations(tet, 3):
            counts[tri] = counts.get(tri, 0) + 1
    oracle_boundary = SimplicialComplex.from_faces(
        torus.n_vertices, [t for t, c in counts.items() if c == 1]
    )
    assert boundary == oracle_boundary
    assert reduced_homology(boundary, QQ).betti == (0, 2, 1)  # a torus surface
    assert boundary.euler_characteristic() == 0


def test_manifold_dimension_cap():
    sc = SimplicialComplex.from_faces(5, [(0, 1, 2, 3, 4)])
    with pytest.raises(DimensionTooHigh):
        is_manifold_with_boundary(sc)


def test_boundary_inequality_values():
    torus_report = boundary_inequality_check(solid_torus(), QQ)
    assert (torus_report.h1_complex, torus_report.h1_boundary) == (1, 2)
    assert torus_report.holds
    ball_report = boundary_inequality_check(tetrahedron_ball(), QQ)
    assert (ball_report.h1_complex, ball_report.h1_boundary) == (0, 0)
    assert ball_report.holds


def test_boundary_inequality_genus2():
    report = boundary_inequality_check(genus2_handlebody(), QQ)
    assert (report.h1_complex, report.h1_boundary) == (2, 4)
    assert report.holds


def test_boundary_inequality_rejects_non_manifolds():
    with pytest.raises(NotAManifold):
        boundary_inequality_check(two_triangles(), QQ)
    wedge = SimplicialComplex.from_faces(7, [(0, 1, 2, 3), (0, 4, 5, 6)])
    with pytest.raises(NotAManifold):
        boundary_inequality_check(wedge, QQ)


# -- barycentric subdivision --------------------------------------------------------

def _polyhedral_segment():
    return PolyhedralComplex(
        (
            (Fraction(0),),
            (Fraction(1),),
        ),
        (Cell((0,), 0), Cell((1,), 0), Cell((0, 1), 1)),
    )


def _polyhedral_square():
    verts = (
        (Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(1)),
    )
    cells = [Cell((i,), 0) for i in range(4)]
    cells += [Cell(e, 1) for e in ((0, 1), (0, 2), (1, 3), (2, 3))]
    cells.append(Cell((0, 1, 2, 3), 2))
    return PolyhedralComplex(verts, tuple(cells))


def test_barycentric_segment():
    sd = barycentric(_polyhedral_segment())
    assert recognize_ball_sphere(sd) == "ball"
    assert len(sd.facets) == 2 and sd.dim == 1


def test_barycentric_square_cell():
    sd = barycentric(_polyhedral_square())
    assert sd.dim == 2 and len(sd.facets) == 8


def test_barycentric_path():
    pc = simplicial_as_polyhedral(path_complex(2))
    sd = barycentric(pc)
    assert recognize_ball_sphere(sd) == "ball"
    assert len(sd.facets) == 4


def scanned_covering_faces(pc, cell):
    """The faces of ``cell`` one dimension down, by a scan of every cell."""
    target = set(cell.vertices)
    return [c for c in pc.cells if c.dim == cell.dim - 1 and set(c.vertices) < target]


def oracle_barycentric_facets(pc):
    """The former subdivision: a memoized recursive closure from each maximal
    cell down, finding each cell's facets by a scan of every cell."""
    index = {cell: i for i, cell in enumerate(pc.cells)}
    memo = {}

    def chains(cell):
        if cell not in memo:
            memo[cell] = ((index[cell],),) if cell.dim == 0 else tuple(
                ch + (index[cell],) for f in scanned_covering_faces(pc, cell) for ch in chains(f)
            )
        return memo[cell]

    return [ch for cell in pc.maximal_cells() for ch in chains(cell)]


def test_barycentric_matches_the_recursive_oracle():
    complexes = [_polyhedral_segment(), _polyhedral_square()]
    complexes += [simplicial_as_polyhedral(sc) for sc in corpus_complexes().values() if sc.dim <= 2]
    for pc in complexes:
        expected = SimplicialComplex.from_faces(len(pc.cells), oracle_barycentric_facets(pc))
        assert barycentric(pc).facets == expected.facets


def test_barycentric_of_slab_matches_the_cell_scan():
    # 1,251 cells: the vertex index finds the same facets as the scan of every cell
    slab = simplicial_as_polyhedral(cubical_complex([(x, y, 0) for x in range(6) for y in range(6)]))
    assert len(slab.cells) == 1251
    expected = SimplicialComplex.from_faces(len(slab.cells), oracle_barycentric_facets(slab))
    assert barycentric(slab) == expected


def test_barycentric_leaves_no_reference_cycle():
    pc = _polyhedral_square()
    gc.collect()
    barycentric(pc)
    assert gc.collect() == 0


def test_barycentric_rejects_complex_not_closed_under_faces():
    segment_without_ends = PolyhedralComplex(
        ((Fraction(0),), (Fraction(1),)), (Cell((0, 1), 1),)
    )
    with pytest.raises(ValueError, match="not closed under faces"):
        barycentric(segment_without_ends)


def test_barycentric_preserves_homology():
    for name, sc in corpus_complexes().items():
        if sc.dim > 2:
            continue
        pc = simplicial_as_polyhedral(sc)
        sd = barycentric(pc)
        for field in (QQ, GF2):
            assert reduced_homology(sd, field).betti == reduced_homology(sc, field).betti, name


# -- cross-sections -------------------------------------------------------------------

def test_boundary_subcomplex_square_adjacent():
    cone = square_cone()
    sel = FacetSelection(cone, facet_pairs_sharing_a_ray(cone)[0])
    pc = boundary_subcomplex(sel)
    assert len(pc.vertices) == 3
    assert sorted(c.dim for c in pc.cells) == [0, 0, 0, 1, 1]
    sd = barycentric(pc)
    assert recognize_ball_sphere(sd) == "ball"


def test_boundary_subcomplex_square_opposite():
    cone = square_cone()
    sel = FacetSelection(cone, facet_pairs_sharing_no_ray(cone)[0])
    pc = boundary_subcomplex(sel)
    assert len(pc.vertices) == 4
    assert sorted(c.dim for c in pc.cells) == [0, 0, 0, 0, 1, 1]
    sd = barycentric(pc)
    assert reduced_homology(sd, QQ).betti[0] == 1  # two components


def test_boundary_subcomplex_quadrant_point():
    sel = FacetSelection(quadrant(), frozenset({0}))
    pc = boundary_subcomplex(sel)
    assert len(pc.vertices) == 1 and pc.cells == (Cell((0,), 0),)
    assert is_cohen_macaulay(barycentric(pc), QQ).is_cm


# -- Cohen-Macaulay cross-sections from the face lattice -----------------------

@st.composite
def cone_selections(draw):
    """A random pointed cone, d = 2..5 and at most 8 generators, each with a
    positive last coordinate, and a random proper selection of its facets."""
    d = draw(st.integers(2, 5))
    ray = st.tuples(*[st.integers(-2, 2)] * (d - 1), st.integers(1, 2))
    rays = draw(st.lists(ray, min_size=d, max_size=8, unique=True))
    try:
        cone = Cone.from_rays(rays)
    except NotFullDimensional:
        assume(False)
    n = len(cone.facets)
    selected = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
    return FacetSelection(cone, frozenset(selected))


def _selection(rays, selected):
    return FacetSelection(Cone.from_rays(rays), frozenset(selected))


def oracle_cm_on_upper_intervals(selection, fields):
    """The order-complex scan: per field, the Cohen-Macaulay certificate of
    the subdivided cross-section from the maximal chains of each upper
    interval P_{>x}, for the origin and each face x of P (cone faces of
    dimension at least 1 on a selected facet), ranked by ``reduced_homology``
    where t = d - 2 - dim x >= 2 and by components where t = 1; highest
    dimension first, the origin last."""
    cone = selection.cone
    faces = geometry.faces_of(cone)
    nodes = [faces[0], *(f for f in faces if f.dim >= 1 and f.tight_facets & selection.selected)]
    # the maximal chains of {y} + P_{>y}, known above y before y's own
    chains_up = [()] * len(nodes)
    for i in reversed(range(len(nodes))):
        y = nodes[i]
        if y.dim == cone.dim - 1:
            chains_up[i] = ((i,),)
        else:
            chains_up[i] = tuple(
                (i,) + ch
                for j in range(i + 1, len(nodes))
                if nodes[j].dim == y.dim + 1 and y.rays < nodes[j].rays
                for ch in chains_up[j]
            )
    certificates = {}
    pending = list(fields)
    for i in reversed(range(len(nodes))):
        t = cone.dim - 2 - nodes[i].dim
        if not pending or t <= 0:
            continue
        chains = [ch[1:] for ch in chains_up[i]]
        face = tuple(sorted(nodes[i].rays))
        if t == 1:
            b0 = _components({v for ch in chains for v in ch}, chains) - 1
            if b0:
                certificates.update((f.label, CMCertificate(False, face, 0, b0)) for f in pending)
                pending = []
            continue
        interval = SimplicialComplex(len(nodes), tuple(chains))
        for f in list(pending):
            betti = reduced_homology(interval, f).betti
            failing = next((k for k in range(t) if betti[k]), None)
            if failing is not None:
                certificates[f.label] = CMCertificate(False, face, failing, betti[failing])
                pending.remove(f)
    return {f.label: certificates.get(f.label, CMCertificate(True)) for f in fields}


OCTAHEDRON_RAYS = [(1, 0, 0, 1), (-1, 0, 0, 1), (0, 1, 0, 1), (0, -1, 0, 1), (0, 0, 1, 1), (0, 0, -1, 1)]
# six of the octahedron's eight triangles, all but two opposite ones: an annulus
OCTAHEDRON_BELT = (0, 1, 2, 5, 6, 7)
FIELDS = (QQ, GF2, FieldSpec(3))


# Selections whose cross-section fails to be CM only at upper intervals of
# rays (d = 4 and 5) or of 2-faces (d = 5), not at the origin's; and the
# octahedron's belt, which fails at the origin with b_1 = 1
@example(_selection(OCTAHEDRON_RAYS, OCTAHEDRON_BELT))
@example(_selection(
    [(-2, 1, 2, 1), (-1, -1, -1, 2), (-1, 2, 1, 1), (1, -1, 0, 2), (2, -1, -2, 2), (2, 1, -2, 1)],
    {5, 7},
))
@example(_selection(
    [(-2, -2, -2, -2, 1), (-2, -1, -2, -2, 2), (-1, -1, -1, 1, 1),
     (0, 2, 2, 2, 2), (2, -1, 1, -1, 2), (2, 0, 0, -2, 1)],
    {0, 7},
))
@example(_selection(
    [(-2, -1, -1, 1, 1), (-1, 1, -1, -2, 2), (-1, 1, 0, 2, 2), (0, 2, -2, 0, 1),
     (1, 2, 1, -2, 1), (1, 2, 1, -2, 2), (2, 0, 1, 2, 2), (2, 1, -1, 2, 2)],
    {0, 1, 2, 4, 6, 8, 10, 11, 12},
))
@settings(derandomize=True, max_examples=80, deadline=None)
@given(cone_selections())
def test_cm_on_upper_intervals_matches_the_subdivided_cross_section(selection):
    # the cellular ranks give the order-complex scan's certificates over
    # every field, and its verdicts are the subdivided cross-section's
    subdivided = barycentric(boundary_subcomplex(selection))
    got = cm_on_upper_intervals(selection, FIELDS)
    assert list(got) == ["Q", "F2", "F3"]
    assert got == oracle_cm_on_upper_intervals(selection, FIELDS)
    for field in (QQ, GF2):
        assert got[field.label].is_cm == is_cohen_macaulay(subdivided, field).is_cm


@settings(derandomize=True, max_examples=80, deadline=None)
@given(cone_selections())
def test_face_lattice_incidences_square_to_zero(selection):
    # each face's covers are the faces one dimension down inside it, with
    # incidence +-1, and the augmented boundary squares to zero over Z: for
    # every face y and face w two dimensions down, sum_z [y : z][z : w] = 0
    cone = selection.cone
    lattice = geometry.face_lattice(cone)
    faces = lattice.faces
    for k, y in enumerate(faces):
        below = [j for j, z in enumerate(faces) if z.dim == y.dim - 1 and z.rays < y.rays]
        assert [j for j, _ in lattice.covers[k]] == below
        assert all(s in (1, -1) for _, s in lattice.covers[k])
        square = {}
        for z, a in lattice.covers[k]:
            for w, b in lattice.covers[z]:
                square[w] = square.get(w, 0) + a * b
        assert not any(square.values()), (sorted(y.rays), square)
    assert lattice.covers[0] == () and all(lattice.covers[k] == ((0, 1),) for k, f in enumerate(faces) if f.dim == 1)


def test_too_large_cellular_ranks_raise_invariant_violation(monkeypatch):
    # as in reduced_homology, a boundary rank above the true one drives a
    # Betti number of the origin's interval below zero, which raises
    original = topology.sparse_rank
    monkeypatch.setattr(topology, "sparse_rank", lambda *args: original(*args) + 1)
    with pytest.raises(InvariantViolation, match="negative Betti"):
        cm_on_upper_intervals(_selection(OCTAHEDRON_RAYS, OCTAHEDRON_BELT), (QQ,))


def test_face_lattice_refuses_covers_off_the_diamond():
    # three edges of a triangle over one vertex each: the vertex under a
    # cover pair, the origin under all three covers
    triangle = geometry.Face(frozenset(), frozenset({1, 2, 3}), 2)
    with pytest.raises(InvariantViolation, match="diamond"):
        geometry._oriented(triangle, [1, 2, 3], [(), ((0, 1),), ((0, 1),), ((0, 1),)])
    # two covers over the same two faces, with incidences that no choice of
    # signs cancels at both
    covers = [(), ((0, 1),), ((0, 1),), ((1, 1), (2, -1)), ((1, 1), (2, 1))]
    with pytest.raises(InvariantViolation, match="∂∂ = 0"):
        geometry._oriented(triangle, [3, 4], covers)


def test_cm_on_upper_intervals_names_the_failing_cone_face():
    # opposite sides of the square cone: the cross-section is two points, so
    # the order complex of the whole poset, above the origin, has b_0 = 1
    cone = square_cone()
    selection = FacetSelection(cone, facet_pairs_sharing_no_ray(cone)[0])
    certificates = cm_on_upper_intervals(selection, (QQ, GF2))
    assert certificates == {
        "Q": CMCertificate(False, (), 0, 1),
        "F2": CMCertificate(False, (), 0, 1),
    }
    adjacent = FacetSelection(cone, facet_pairs_sharing_a_ray(cone)[0])
    assert cm_on_upper_intervals(adjacent, (QQ,)) == {"Q": CMCertificate(True)}
    # the octahedron's belt is an annulus: b_1 = 1 above the origin, over
    # every field, from the ranks of its cellular boundary maps
    belt = _selection(OCTAHEDRON_RAYS, OCTAHEDRON_BELT)
    assert cm_on_upper_intervals(belt, FIELDS) == {f.label: CMCertificate(False, (), 1, 1) for f in FIELDS}

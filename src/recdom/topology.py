"""Complexes and their topology over a field.

Cross-sections of cone boundary parts, barycentric subdivision, reduced
simplicial homology via sparse boundary ranks, link-based Cohen-Macaulay
certificates, and recognition of balls, spheres and manifolds-with-boundary
in dimension at most three.  One link scan decides manifolds; balls and
spheres of dimension 1 and 2 are the connected ones told apart by boundary
and Euler characteristic (the classification of compact surfaces).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations

from .geometry import (
    QQ,
    FacetSelection,
    FieldSpec,
    InvariantViolation,
    cross_section_vertices,
    face_lattice,
    faces_of,
    sparse_rank,
)


class FaceNotPresent(KeyError):
    """The requested face is not in the complex."""


class DimensionTooHigh(ValueError):
    """Recognition is only decisive in low dimensions."""


class NotAManifold(ValueError):
    """The link scan rejected the complex."""


def _maximal_sets(sets) -> set[tuple[int, ...]]:
    """The nonempty sorted tuples among ``sets`` that lie strictly inside no other.

    Larger sets come first, so a set lies strictly inside another exactly
    when it lies strictly inside a kept set through its first vertex."""
    kept: dict[int, list[frozenset]] = {}
    maximal = set()
    for s in sorted(set(sets), key=len, reverse=True):
        fs = frozenset(s)
        if not any(fs < g for g in kept.get(s[0], ())):
            maximal.add(s)
            for v in s:
                kept.setdefault(v, []).append(fs)
    return maximal


@dataclass(frozen=True)
class Cell:
    """One cell of a polyhedral complex: sorted vertex indices plus dimension."""

    vertices: tuple[int, ...]
    dim: int


@dataclass(frozen=True, eq=False)
class PolyhedralComplex:
    """Finite polyhedral complex with rational vertex coordinates.

    Cells are vertex index sets with explicit dimensions and the list must be
    closed under taking faces.  The face-of relation is vertex-set
    containment, which is faithful for complexes whose cells meet in common
    faces (the only kind built here).
    """

    vertices: tuple[tuple[Fraction, ...], ...]
    cells: tuple[Cell, ...]
    # each cell's exact polytope, kept by lifting and built once per complex
    _polytopes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        verts = tuple(tuple(Fraction(x) for x in p) for p in self.vertices)
        cells = tuple(
            sorted(
                {Cell(tuple(sorted(c.vertices)), c.dim) for c in self.cells},
                key=lambda c: (c.dim, c.vertices),
            )
        )
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "cells", cells)
        for c in cells:
            if not c.vertices or any(not 0 <= i < len(verts) for i in c.vertices):
                raise ValueError(f"bad cell {c}")

    @property
    def ambient_dim(self) -> int:
        return len(self.vertices[0]) if self.vertices else 0

    @property
    def dim(self) -> int:
        return max(c.dim for c in self.cells)

    def point(self, index):
        return self.vertices[index]

    def cell_points(self, cell: Cell):
        return [self.vertices[i] for i in cell.vertices]

    def maximal_cells(self) -> tuple[Cell, ...]:
        """Cells whose vertex set lies strictly inside no other cell's."""
        maximal = _maximal_sets(c.vertices for c in self.cells)
        return tuple(c for c in self.cells if c.vertices in maximal)


@dataclass(frozen=True)
class SimplicialComplex:
    """Abstract simplicial complex given by its maximal faces (an antichain).

    ``facets == ()`` encodes the complex containing only the empty face.
    """

    n_vertices: int
    facets: tuple[tuple[int, ...], ...]

    @classmethod
    def from_faces(cls, n_vertices, faces) -> "SimplicialComplex":
        normalized = (tuple(sorted(set(f))) for f in faces if f)
        return cls(n_vertices, tuple(sorted(_maximal_sets(normalized))))

    @property
    def dim(self) -> int:
        return max((len(f) for f in self.facets), default=0) - 1

    def faces(self) -> frozenset:
        return _all_faces(self)

    def vertices_used(self) -> tuple[int, ...]:
        return tuple(sorted({v for f in self.facets for v in f}))

    def f_vector(self) -> tuple[int, ...]:
        counts = [0] * (self.dim + 1)
        for f in self.faces():
            if f:
                counts[len(f) - 1] += 1
        return tuple(counts)

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * n for k, n in enumerate(self.f_vector()))

    def is_pure(self) -> bool:
        return len({len(f) for f in self.facets}) <= 1

    @cached_property
    def _facets_by_vertex(self) -> dict[int, list[tuple[int, ...]]]:
        """The facets through each vertex, in facet order."""
        index: dict[int, list[tuple[int, ...]]] = {}
        for f in self.facets:
            for v in f:
                index.setdefault(v, []).append(f)
        return index


@lru_cache(maxsize=None)
def _all_faces(sc: SimplicialComplex) -> frozenset:
    out = {()}
    for f in sc.facets:
        for k in range(1, len(f) + 1):
            out.update(combinations(f, k))
    return frozenset(out)


def simplicial_as_polyhedral(sc: SimplicialComplex) -> PolyhedralComplex:
    """Wrap a simplicial complex as a polyhedral one.

    The coordinates are the standard basis of R^n (a geometric simplex
    realization); they only matter to callers doing geometry."""
    used = sc.vertices_used()
    relabel = {v: i for i, v in enumerate(used)}
    n = len(used)
    vertices = tuple(tuple(Fraction(1 if j == i else 0) for j in range(n)) for i in range(n))
    cells = [
        Cell(tuple(sorted(relabel[v] for v in f)), len(f) - 1)
        for f in sc.faces()
        if f
    ]
    return PolyhedralComplex(vertices, tuple(cells))


def barycentric(pc: PolyhedralComplex) -> SimplicialComplex:
    """Abstract barycentric subdivision.

    One vertex per cell (its barycenter), one top simplex per maximal chain
    in the face poset of the cells.  The cells are sorted by dimension, so
    the chains of a cell's facets are known before its own; a loop, not a
    recursive closure, so each call leaves no reference cycle behind.  A
    cell's facets are found among the cells one dimension down whose first
    vertex is one of its own, through an index of the cells by (dimension,
    first vertex)."""
    chains: list[tuple] = []
    by_first: dict[tuple[int, int], list[int]] = {}
    for i, cell in enumerate(pc.cells):
        if cell.dim == 0:
            chains.append(((i,),))
        else:
            target = set(cell.vertices)
            covers = sorted(
                j
                for v in cell.vertices
                for j in by_first.get((cell.dim - 1, v), ())
                if target > set(pc.cells[j].vertices)
            )
            if not covers:
                raise ValueError(f"complex is not closed under faces: cell {cell.vertices} has no facet")
            chains.append(tuple(ch + (i,) for j in covers for ch in chains[j]))
        by_first.setdefault((cell.dim, cell.vertices[0]), []).append(i)
    maximal = set(pc.maximal_cells())
    facets = [ch for cell, cell_chains in zip(pc.cells, chains) if cell in maximal for ch in cell_chains]
    return SimplicialComplex.from_faces(len(pc.cells), facets)


@dataclass(frozen=True)
class HomologyProfile:
    """Reduced Betti numbers b_0 .. b_dim over one field."""

    field: FieldSpec
    betti: tuple[int, ...]


def _components(vertices, edges) -> int:
    """Number of connected components of a graph, by union-find."""
    parent = {v: v for v in vertices}

    def root(v):
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    for a, b in edges:
        parent[root(a)] = root(b)
    return sum(v == p for v, p in parent.items())


def reduced_homology(sc: SimplicialComplex, field: FieldSpec = QQ) -> HomologyProfile:
    """Reduced Betti numbers from the ranks of the augmented boundary maps.

    ∂1 is the signed incidence matrix of the 1-skeleton, whose rank over
    every field is #vertices - #components.  Each higher ∂k is ranked from
    its sparse columns {row: ±1}, as the rows of its transpose.  A negative
    Betti number, which no true ranks give, raises InvariantViolation."""
    d = sc.dim
    if d < 0:
        raise ValueError("homology of the empty complex is not computed here")
    levels: list[list[tuple[int, ...]]] = [[] for _ in range(d + 1)]
    for f in sorted(sc.faces()):
        if f:
            levels[len(f) - 1].append(f)
    ranks = {0: 1, d + 1: 0}  # the augmentation map has rank 1 on a nonempty complex
    if d >= 1:
        ranks[1] = len(levels[0]) - _components([v for (v,) in levels[0]], levels[1])
    for k in range(2, d + 1):
        row_index = {f: i for i, f in enumerate(levels[k - 1])}
        columns = (
            {row_index[f[:i] + f[i + 1 :]]: -1 if i % 2 else 1 for i in range(len(f))}
            for f in levels[k]
        )
        ranks[k] = sparse_rank(columns, len(levels[k - 1]), field)
    betti = tuple(len(levels[k]) - ranks[k] - ranks[k + 1] for k in range(d + 1))
    if min(betti) < 0:
        raise InvariantViolation(f"negative Betti numbers {betti}: a boundary rank is wrong")
    return HomologyProfile(field, betti)


def link(sc: SimplicialComplex, face) -> SimplicialComplex:
    """Faces disjoint from ``face`` whose union with it is again a face: the
    complex generated by F minus ``face`` over the facets F containing it."""
    face = tuple(sorted(face))
    if not face:
        return sc
    fs = set(face)
    star = [f for f in sc._facets_by_vertex.get(face[0], ()) if fs.issubset(f)]
    if not star or len(fs) != len(face):
        raise FaceNotPresent(face)
    # the facets through ``face`` minus ``face`` are already an antichain of
    # distinct sorted tuples; only a facet equal to ``face`` leaves ()
    rest = (tuple(v for v in f if v not in fs) for f in star)
    return SimplicialComplex(sc.n_vertices, tuple(r for r in rest if r))


@dataclass(frozen=True)
class CMCertificate:
    """Cohen-Macaulay verdict; failures carry a verifiable witness."""

    is_cm: bool
    failing_face: tuple[int, ...] | None = None
    failing_index: int | None = None
    failing_betti: int | None = None


def is_cohen_macaulay(sc: SimplicialComplex, field: FieldSpec = QQ) -> CMCertificate:
    """Link criterion: every face's link needs vanishing reduced homology
    below the complementary dimension.

    On a pure complex the bound dim(sc) - |face| is just the link's own
    dimension, and this is Reisner's criterion (Reisner, "Cohen-Macaulay
    quotients of polynomial rings", 1976).  No impure complex passes: the
    bound is never below the link's dimension, so passing implies Reisner's
    criterion, and Cohen-Macaulay complexes are pure.  A maximal face with
    fewer than dim(sc) vertices fails by its empty link; an impure complex
    without one fails at the link of a smaller face.

    Faces are scanned by size, and the scan stops at the first face with at
    least dim(sc) vertices: from there on the bound is at most 0, so no Betti
    number has to vanish and an empty link is allowed, and no later face can
    fail.  Where the bound is 1 only b_0 has to vanish, and b_0 is the
    number of connected components of the link's facets less one, the same
    over every field."""
    d = sc.dim
    if d < 0:
        return CMCertificate(True)
    for face in sorted(sc.faces(), key=lambda f: (len(f), f)):
        required_below = d - len(face)
        if required_below <= 0:
            break
        lk = link(sc, face)
        if lk.dim < 0:
            return CMCertificate(False, face, -1, 1)
        if required_below == 1:
            edges = (e for f in lk.facets for e in combinations(f, 2))
            b0 = _components(lk.vertices_used(), edges) - 1
            if b0:
                return CMCertificate(False, face, 0, b0)
            continue
        profile = reduced_homology(lk, field)
        for i, b in enumerate(profile.betti):
            if i < required_below and b:
                return CMCertificate(False, face, i, b)
    return CMCertificate(True)


def recognize_ball_sphere(sc: SimplicialComplex) -> str:
    """Decide ball / sphere / other for complexes of dimension at most 2.

    In dimensions 1 and 2 a connected complex that passes the link scan of
    :func:`is_manifold_with_boundary` is a compact manifold, and compact
    manifolds there are told apart by their boundary and Euler
    characteristic (the classification of compact surfaces; Massey,
    *Algebraic Topology: An Introduction*, ch. 1): with boundary, chi = 1
    only for the path and the disk; without, chi = 1 + (-1)^d only for the
    cycle and the 2-sphere.  Dimension 3 and above returns "unknown":
    vanishing homology no longer forces ball-ness there, and sphere
    recognition is out of reach."""
    d = sc.dim
    if d < 0:
        return "other"
    if d == 0:
        n = len(sc.facets)
        if n == 1:
            return "ball"
        if n == 2:
            return "sphere"
        return "other"
    if d > 2:
        return "unknown"
    edges = (e for f in sc.facets for e in combinations(f, 2))
    if _components(sc.vertices_used(), edges) != 1:
        return "other"
    ok, boundary = is_manifold_with_boundary(sc)
    if not ok:
        return "other"
    chi = sc.euler_characteristic()
    if boundary.facets:
        return "ball" if chi == 1 else "other"
    return "sphere" if chi == 1 + (-1) ** d else "other"


def is_manifold_with_boundary(sc: SimplicialComplex):
    """Link scan: every nonempty face below the top dimension must have a ball
    or sphere link.  Returns (verdict, boundary complex of ball-link faces)."""
    d = sc.dim
    if d > 3:
        raise DimensionTooHigh("link recognition is only decisive up to dimension 3")
    if d < 0 or not sc.is_pure():
        return False, None
    boundary_faces = []
    for face in sorted(sc.faces(), key=lambda f: (len(f), f)):
        if not face or len(face) == d + 1:
            continue
        shape = recognize_ball_sphere(link(sc, face))
        if shape == "ball":
            boundary_faces.append(face)
        elif shape != "sphere":
            return False, None
    return True, SimplicialComplex.from_faces(sc.n_vertices, boundary_faces)


@dataclass(frozen=True)
class BoundaryInequalityReport:
    """First homology of a compact 3-manifold versus its boundary."""

    field: FieldSpec
    h1_complex: int
    h1_boundary: int

    @property
    def holds(self) -> bool:
        return 2 * self.h1_complex >= self.h1_boundary


def boundary_inequality_check(sc: SimplicialComplex, field: FieldSpec = QQ) -> BoundaryInequalityReport:
    """For a compact 3-manifold, dim H1 is at least half of the boundary's.

    Verifies the manifold hypothesis by the link scan before computing."""
    if sc.dim != 3:
        raise NotAManifold("expected a 3-dimensional complex")
    ok, boundary = is_manifold_with_boundary(sc)
    if not ok:
        raise NotAManifold("the link scan rejected the complex")
    h1 = reduced_homology(sc, field).betti[1]
    h1_boundary = reduced_homology(boundary, field).betti[1] if boundary.facets else 0
    return BoundaryInequalityReport(field, h1, h1_boundary)


def boundary_subcomplex(selection: FacetSelection) -> PolyhedralComplex:
    """Cross-section of the boundary part carried by the selected facets.

    The cone is cut with {w.x = 1} for the default grading w; rays meeting a
    selected facet become rational points, and every positive-dimensional
    cone face inside a selected facet becomes a cell one dimension down."""
    cone = selection.cone
    used_faces = [
        f
        for f in faces_of(cone)
        if f.dim >= 1 and f.tight_facets & selection.selected
    ]
    ray_ids = sorted({i for f in used_faces for i in f.rays})
    relabel = {ray: k for k, ray in enumerate(ray_ids)}
    scaled = cross_section_vertices(cone)
    vertices = [scaled[i] for i in ray_ids]
    cells = [
        Cell(tuple(sorted(relabel[i] for i in f.rays)), f.dim - 1) for f in used_faces
    ]
    return PolyhedralComplex(tuple(vertices), tuple(cells))


def cm_on_upper_intervals(selection: FacetSelection, fields) -> dict[str, CMCertificate]:
    """Per-field Cohen-Macaulay verdicts for the subdivided cross-section
    ``barycentric(boundary_subcomplex(selection))``, read off the cone's
    face lattice (``geometry.face_lattice``).

    That subdivision is the order complex of the poset P of cone faces of
    dimension at least 1 on a selected facet.  P is pure, since its maximal
    elements are the selected facets, and every lower interval of P is a
    polytope's face lattice, whose order complex is a sphere.  So the order
    complex is Cohen-Macaulay exactly when, for the origin and for each x in
    P, the order complex of P_{>x} has vanishing reduced homology below its
    dimension t = d - 2 - dim x (Björner, Garsia and Stanley, "An
    introduction to Cohen-Macaulay posets", 1982).

    P_{>x} is the face poset of a regular CW complex: the faces above x are
    the faces of x's face figure, a polytope, and those on a selected facet
    are closed under going down, so they form a subcomplex of its boundary,
    a face y being a (dim y - dim x - 1)-cell.  The order complex is that
    complex's barycentric subdivision, so its homology is the complex's
    cellular homology (Björner, "Posets, regular CW complexes and Bruhat
    order", Europ. J. Combin. 5, 1984), and any incidence function of ±1 on
    the covers with ∂∂ = 0 computes it over every field (Massey, *A Basic
    Course in Algebraic Topology*, 1991, ch. IX; Cooke and Finney,
    *Homology of Cell Complexes*, 1967).  The lattice's incidences are one
    (see ``geometry._FaceLattice``), with x as the empty (-1)-cell.  So the
    cells are the faces of P above x, each boundary column is a cell's
    covers with their incidences, kept where they are cells (or x), and
    b_k = n_k - r_k - r_{k+1}, from the number n_k of k-cells and the ranks
    r_k of the augmented boundary maps.

    Nothing is checked where t <= 0, and where t = 1 the check is
    connectivity of the 0- and 1-cells, the same over every field.  The
    scan runs from the highest-dimensional faces down and takes the origin
    last, so the small intervals come first.  A failure names the cone face
    x by its rays (the origin by ()), the homology index and the Betti
    number."""
    cone = selection.cone
    lattice = face_lattice(cone)
    faces, covers = lattice.faces, lattice.covers
    nodes = 1  # the origin, then the faces of P
    for i in selection.selected:
        nodes |= lattice.on_facet[i]
    certificates: dict[str, CMCertificate] = {}
    pending = list(fields)
    for x in reversed(range(len(faces))):
        if not pending:
            break
        t = cone.dim - 2 - faces[x].dim
        if t <= 0 or not nodes >> x & 1:
            continue
        cells = lattice.uppers[x] & nodes
        # levels[k + 1]: the k-cells, with x the one (-1)-cell
        levels: list[list[int]] = [[] for _ in range(t + 2)]
        for y in range(x, len(faces)):
            if cells >> y & 1:
                levels[faces[y].dim - faces[x].dim].append(y)
        face = tuple(sorted(faces[x].rays))
        if t == 1:
            edges = ((y, z) for y in levels[2] for z, _ in covers[y] if cells >> z & 1)
            b0 = _components(levels[1] + levels[2], edges) - 1
            if b0:
                certificates.update((f.label, CMCertificate(False, face, 0, b0)) for f in pending)
                pending = []
            continue
        position = {y: i for level in levels for i, y in enumerate(level)}
        boundaries = [
            ([{position[z]: s for z, s in covers[y] if z in position} for y in level], len(lower))
            for lower, level in zip(levels, levels[1:])
        ]
        for f in list(pending):
            # ranks[k]: the rank of the boundary map from the k-cells
            ranks = [sparse_rank(columns, width, f) for columns, width in boundaries]
            betti = [len(levels[k + 1]) - ranks[k] - ranks[k + 1] for k in range(t)]
            if min(betti) < 0:
                raise InvariantViolation(f"negative Betti numbers {betti}: a boundary rank is wrong")
            failing = next((k for k in range(t) if betti[k]), None)
            if failing is not None:
                certificates[f.label] = CMCertificate(False, face, failing, betti[failing])
                pending.remove(f)
    return {f.label: certificates.get(f.label, CMCertificate(True)) for f in fields}

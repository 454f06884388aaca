"""Exact rational cone geometry: dual descriptions, face lattices, field ranks.

Every coordinate is an integer or a ``fractions.Fraction``; nothing in this
module ever touches floating point.  Outputs are canonically ordered (rays and
facet covectors sorted lexicographically) so downstream results are
reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul

Vector = tuple[int, ...]


class NotPointed(ValueError):
    """The cone contains a line."""


class NotFullDimensional(ValueError):
    """The rays do not span the ambient space."""


class InvariantViolation(Exception):
    """An internal invariant failed: a defect in recdom, not bad input."""


def dot(u, v):
    """Sum of the products of matching entries, up to the shorter length."""
    return sum(map(mul, u, v))


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def primitive(vector) -> Vector:
    """Divide an integer vector by the gcd of its entries."""
    g = 0
    for a in vector:
        g = gcd(g, a)
    if g == 0:
        raise ValueError("the zero vector has no primitive form")
    return tuple(a // g for a in vector)


def primitive_rational(vector) -> Vector:
    """Clear denominators of a rational vector and reduce to primitive form."""
    fracs = [Fraction(a) for a in vector]
    scale = lcm(*(f.denominator for f in fracs))
    return primitive(tuple(int(f * scale) for f in fracs))


def common_denominator(points):
    """The least s > 0 that clears every denominator of the rational points
    x, and the integer rows x.s."""
    s = lcm(*(a.denominator for p in points for a in p))
    return s, [tuple(a.numerator * (s // a.denominator) for a in p) for p in points]


# Miller-Rabin with the first twelve primes as bases is exact below this
# bound (Sorenson-Webster, "Strong pseudoprimes to twelve prime bases", 2017).
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MILLER_RABIN_LIMIT = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Deterministic primality for n below ``MILLER_RABIN_LIMIT``."""
    if n >= MILLER_RABIN_LIMIT:
        raise ValueError(f"{n} is too large for a deterministic primality test")
    if n < 2:
        return False
    for q in MILLER_RABIN_BASES:
        if n % q == 0:
            return n == q
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for base in MILLER_RABIN_BASES:
        x = pow(base, odd, n)
        if x in (1, n - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: characteristic 0 for the rationals, or a prime p."""

    characteristic: int = 0

    def __post_init__(self):
        p = self.characteristic
        if p == 0:
            return
        if not is_prime(p):
            raise ValueError(f"characteristic must be 0 or prime, got {p}")

    @property
    def label(self) -> str:
        return "Q" if self.characteristic == 0 else f"F{self.characteristic}"

    @classmethod
    def parse(cls, text: str) -> "FieldSpec":
        t = text.strip().upper()
        if t in ("Q", "QQ", "0"):
            return cls(0)
        if t.startswith("GF(") and t.endswith(")"):
            return cls(int(t[3:-1]))
        if t.startswith("F"):
            return cls(int(t[1:]))
        return cls(int(t))

    def __str__(self):
        return self.label


QQ = FieldSpec(0)
GF2 = FieldSpec(2)


def rank_over_field(rows, field: FieldSpec = QQ) -> int:
    """Rank of a dense integer matrix over Q or over F_p (see :func:`sparse_rank`)."""
    matrix = [tuple(r) for r in rows]
    width = len(matrix[0]) if matrix else 0
    if any(len(r) != width for r in matrix):
        raise ValueError("ragged matrix")
    return sparse_rank((dict(enumerate(r)) for r in matrix), width, field)


def sparse_rank(rows, width: int, field: FieldSpec = QQ) -> int:
    """Rank over Q or over F_p of the integer rows {column: entry}, by
    sparse elimination; the columns lie in range(width).

    Each row is reduced against the pivot rows by its leading column, to
    a.row - b.pivot with a/b the ratio of their leading entries in lowest
    terms, until it vanishes or leads in a new column; the rank is the number
    of pivot rows.  Over F_p the entries are residues and every pivot row
    leads with 1.  Over Q they stay integers, and each reduced row is divided
    by the gcd of its entries."""
    p = field.characteristic
    pivots: dict[int, dict[int, int]] = {}
    for entries in rows:
        if len(pivots) == width:
            break
        if p:
            row = {j: a % p for j, a in entries.items() if a % p}
        else:
            row = {j: a for j, a in entries.items() if a}
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                if p:
                    # leading with 1, it makes a = 1 below, so rows stay residues
                    inv = pow(row[lead], -1, p)
                    row = {j: c * inv % p for j, c in row.items()}
                pivots[lead] = row
                break
            g = gcd(row[lead], pivot[lead])
            a, b = pivot[lead] // g, row[lead] // g
            if a != 1:
                row = {j: a * c for j, c in row.items()}
            for j, c in pivot.items():
                value = row.get(j, 0) - b * c
                if p:
                    value %= p
                if value:
                    row[j] = value
                else:
                    del row[j]
            if not p:
                g = gcd(*row.values())
                if g > 1:
                    row = {j: c // g for j, c in row.items()}
    return len(pivots)


def rref(rows):
    """Reduced row echelon form over Q.  Returns (rows, pivot columns)."""
    m = [[Fraction(a) for a in r] for r in rows]
    pivots = []
    r = 0
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    for c in range(n_cols):
        piv = next((i for i in range(r, n_rows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        lead = m[r][c]
        m[r] = [a / lead for a in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def fraction_free_rref(rows, width):
    """Fraction-free Gauss-Jordan elimination (Bareiss) of an integer matrix,
    pivoting on its first ``width`` columns.

    Returns ``(m, pivots, scale)``: the pivot columns are those of the reduced
    row echelon form, and each of the first ``len(pivots)`` rows of ``m`` is
    ``scale`` times the matching row of that form, ``scale`` being the minor
    on the pivot rows and columns (zero rows follow).  Every entry stays a
    minor of the input, so each division is exact (Sylvester's identity).
    On a matrix ``[A | I]`` with ``A`` positive definite no row is swapped,
    and the result is ``[det(A) I | adj(A)]``."""
    m = [list(r) for r in rows]
    pivots = []
    prev = 1
    for col in range(width):
        rank = len(pivots)
        if rank == len(m):
            break
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        row_r = m[rank]
        lead = row_r[col]
        for i, row_i in enumerate(m):
            if i == rank:
                continue
            fi = row_i[col]
            reduced = []
            for a, b in zip(row_i, row_r):
                q, r = divmod(lead * a - fi * b, prev)
                if r:
                    raise InvariantViolation("inexact Bareiss division")
                reduced.append(q)
            m[i] = reduced
        prev = lead
        pivots.append(col)
    return m, pivots, prev


def integer_kernel(rows, width) -> list[Vector]:
    """Basis of the right kernel of an integer matrix with ``width`` columns.

    One vector per free column of the reduced row echelon form, in column
    order: positive on its free column, zero on the other free columns.  Up
    to a positive factor each is the kernel vector that has 1 on its free
    column, read off the reduced form."""
    m, pivots, scale = fraction_free_rref(rows, width)
    sign = 1 if scale > 0 else -1
    basis = []
    for free in (c for c in range(width) if c not in pivots):
        v = [0] * width
        v[free] = sign * scale
        for row, col in zip(m, pivots):
            v[col] = -sign * row[free]
        basis.append(tuple(v))
    return basis


def dual_rows(vectors):
    """Gram determinant and integer dual rows of linearly independent
    integer vectors V (the rows).

    The Gram matrix G = V.V^T is positive definite, so one fraction-free
    Gauss-Jordan pass on [G | I] needs no pivoting and gives det(G) > 0 and
    adj(G).  Returns ``(det(G), adj(G).V)``: row i of adj(G).V has product
    det(G) with V_i and 0 with every other V_j, so it is det(G) times row i
    of the left inverse G^-1.V of V^T."""
    k = len(vectors)
    gram = [[dot(a, b) for b in vectors] + [int(i == j) for j in range(k)] for i, a in enumerate(vectors)]
    m, pivots, det = fraction_free_rref(gram, k)
    if pivots != list(range(k)) or det <= 0:
        raise InvariantViolation("the Gram matrix of independent vectors is singular")
    columns = list(zip(*vectors))
    return det, [tuple(dot(row[k:], col) for col in columns) for row in m]


def solve_exact(rows, rhs):
    """One exact solution of A x = b (free variables set to 0), or None."""
    if not rows:
        return None
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    width = len(rows[0])
    m, pivots = rref(aug)
    if width in pivots:
        return None
    x = [Fraction(0)] * width
    for r, pc in enumerate(pivots):
        x[pc] = m[r][-1]
    return tuple(x)


def smith_normal_form(matrix):
    """Smith normal form of an integer matrix, on integers only.

    Returns ``(p_inv, diagonal, q)`` with ``p_inv`` (rows x rows) and ``q``
    (cols x cols) unimodular and ``P matrix Q = D``, where ``D`` carries
    ``diagonal`` on its main diagonal and zeros elsewhere.  The diagonal has
    min(rows, cols) nonnegative entries, each dividing the next; its zeros
    (trailing) count the rank defect.  Each step moves a least nonzero entry
    to the pivot and reduces its row and column by division with remainder,
    until the pivot divides everything left."""
    a = [list(r) for r in matrix]
    n_rows, n_cols = len(a), len(a[0]) if a else 0
    p_inv = [[int(i == j) for j in range(n_rows)] for i in range(n_rows)]
    q = [[int(i == j) for j in range(n_cols)] for i in range(n_cols)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        for row in p_inv:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, f):  # row dst += f * row src
        a[dst] = [x + f * y for x, y in zip(a[dst], a[src])]
        for row in p_inv:
            row[src] -= f * row[dst]

    def swap_cols(i, j):
        for m in (a, q):
            for row in m:
                row[i], row[j] = row[j], row[i]

    def add_col(dst, src, f):  # column dst += f * column src
        for m in (a, q):
            for row in m:
                row[dst] += f * row[src]

    diagonal = []
    for t in range(min(n_rows, n_cols)):
        while True:
            nonzero = [
                (abs(a[i][j]), i, j)
                for i in range(t, n_rows)
                for j in range(t, n_cols)
                if a[i][j]
            ]
            if not nonzero:
                return p_inv, diagonal + [0] * (min(n_rows, n_cols) - t), q
            _, i, j = min(nonzero)
            swap_rows(t, i)
            swap_cols(t, j)
            pivot = a[t][t]
            for i in range(t + 1, n_rows):
                if a[i][t]:
                    add_row(i, t, -(a[i][t] // pivot))
            for j in range(t + 1, n_cols):
                if a[t][j]:
                    add_col(j, t, -(a[t][j] // pivot))
            if any(a[i][t] for i in range(t + 1, n_rows)) or any(a[t][t + 1:]):
                continue  # a remainder smaller than the pivot is left
            # the pivot must divide the rest; else pull an offending row up
            bad = next(
                (i for i in range(t + 1, n_rows) if any(x % pivot for x in a[i][t + 1:])),
                None,
            )
            if bad is None:
                break
            add_row(t, bad, 1)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            for row in p_inv:
                row[t] = -row[t]
        diagonal.append(a[t][t])
    return p_inv, diagonal, q


def extreme_rays(equalities, inequalities, width):
    """Lineality basis and extreme rays of {y : e.y == 0, g.y >= 0}.

    Incremental double description (Fukuda-Prodon, "Double description method
    revisited", 1996) on integer rows of length ``width``.  The cone starts as
    the whole space, all lineality.  A row that is nonzero on the lineality
    space splits one lineality vector off (it becomes a ray for an inequality
    and is dropped for an equality); any other inequality keeps the rays on
    its nonnegative side and combines each adjacent pair across it.  Two rays
    are adjacent when no third ray is tight on every inequality both are tight
    on, which is exact because the rays stay a minimal generating set.  Every
    vector stays a primitive integer vector.  Returns ``(lineality, rays)``
    with the rays sorted."""
    lineality = [tuple(int(i == j) for i in range(width)) for j in range(width)]
    for row in equalities:
        split = _split_lineality(row, lineality)
        if split is not None:
            lineality = split[1]
    space_dim = len(lineality)
    rays: list[Vector] = []
    masks: list[int] = []  # bit i set: the ray is tight on inequality i
    for bit, row in enumerate(inequalities):
        tight = 1 << bit
        split = _split_lineality(row, lineality)
        if split is not None:
            # the cone is (new lineality) + ray(pivot) + cone(projected rays)
            pivot, lineality, project = split
            rays = [project(r) for r in rays] + [pivot]
            masks = [m | tight for m in masks] + [tight - 1]
            continue
        values = [dot(row, r) for r in rays]
        negative = [i for i, v in enumerate(values) if v < 0]
        if not negative:
            masks = [m | tight if v == 0 else m for m, v in zip(masks, values)]
            continue
        positive = [i for i, v in enumerate(values) if v > 0]
        # a 2-face of the pointed part is cut out by at least this many rows
        need = space_dim - len(lineality) - 2
        new_rays = [r for r, v in zip(rays, values) if v >= 0]
        new_masks = [m | tight if v == 0 else m for m, v in zip(masks, values) if v >= 0]
        for p in positive:
            for n in negative:
                common = masks[p] & masks[n]
                if common.bit_count() < need:
                    continue
                if any(
                    m & common == common and k != p and k != n
                    for k, m in enumerate(masks)
                ):
                    continue
                vp, vn = values[p], -values[n]
                new_rays.append(primitive(tuple(vp * b + vn * a for a, b in zip(rays[p], rays[n]))))
                new_masks.append(common | tight)
        rays, masks = new_rays, new_masks
    return lineality, sorted(rays)


def _split_lineality(row, lineality):
    """Split ``lineality`` along one vector on which ``row`` is positive.

    Returns None when ``row`` vanishes on the lineality space, else the pivot
    vector, a basis of the lineality space inside ``row.y == 0``, and the
    projection onto ``row.y == 0`` along the pivot (scaled to primitive)."""
    k = next((i for i, v in enumerate(lineality) if dot(row, v)), None)
    if k is None:
        return None
    pivot = lineality[k]
    scale = dot(row, pivot)
    if scale < 0:
        pivot = tuple(-a for a in pivot)
        scale = -scale

    def project(v):
        value = dot(row, v)
        if not value:
            return v
        return primitive(tuple(scale * a - value * b for a, b in zip(v, pivot)))

    rest = [project(v) for i, v in enumerate(lineality) if i != k]
    return pivot, rest, project


@dataclass(frozen=True)
class FacetFunctional:
    """Primitive integer covector of one facet inequality, nonnegative on the cone."""

    coeffs: Vector
    incident_rays: frozenset[int]

    def __call__(self, point):
        return dot(self.coeffs, point)


@dataclass(frozen=True)
class Face:
    """A face of a cone: the facets containing it, the rays spanning it, its dimension."""

    tight_facets: frozenset[int]
    rays: frozenset[int]
    dim: int


_MEMOS = ("_face_lattice", "_face_table", "_arrangement")


@dataclass(frozen=True)
class Cone:
    """Pointed full-dimensional rational cone carried in both descriptions.

    ``rays`` are primitive integer generators and ``facets`` the primitive
    inequality covectors, each recording the rays it vanishes on.  Build
    instances with :func:`dual_description` / ``Cone.from_rays``; they are
    immutable and safe to share between threads.

    ``_face_lattice``, ``_face_table`` and ``_arrangement`` are memos, not
    part of the value: equality, hashing and the repr read the three fields
    above only, and pickles and copies leave them out.  :func:`face_lattice`
    sets ``_face_lattice`` on first use to the cone's face lattice: its
    faces with their tight facets, upper sets and covers with incidence
    numbers, which the Cohen-Macaulay verdicts and the face-by-face sums
    read.  ``recdom.enumerator`` sets ``_face_table`` on first use to the
    cone's face table, which fills its face rows lazily under its own lock.
    ``recdom.separation`` sets ``_arrangement`` on first use to the cone's
    facet arrangement: once the cone's double-description passes have cost
    as much as listing them, the arrangement's 1-D flats with their sign
    vectors, which every later separation reads, and, from the first
    shelling on, the default grading and the cross-section centroid with the
    facet values there.
    """

    dim: int
    rays: tuple[Vector, ...]
    facets: tuple[FacetFunctional, ...]
    _face_lattice: object = field(default=None, init=False, repr=False, compare=False)
    _face_table: object = field(default=None, init=False, repr=False, compare=False)
    _arrangement: object = field(default=None, init=False, repr=False, compare=False)

    def __getstate__(self):
        # memos stay with their cone (the table holds a lock, which does not
        # pickle); a copy rebuilds its own
        return {k: v for k, v in self.__dict__.items() if k not in _MEMOS}

    @classmethod
    def from_rays(cls, rays) -> "Cone":
        return dual_description(rays)

    @classmethod
    def from_inequalities(cls, covectors) -> "Cone":
        """Cone {x : a.x >= 0 for all rows a}; redundant rows are dropped."""
        covs = _canonical_vectors(covectors)
        lineality, rays = extreme_rays([], covs, len(covs[0]))
        if lineality:
            raise NotPointed("the inequalities cut out a cone containing a line")
        if not rays:
            raise NotFullDimensional("inequalities admit no extreme rays")
        return dual_description(rays)

    def facet_values(self, point) -> tuple:
        return tuple(f(point) for f in self.facets)

    def contains(self, point) -> bool:
        return all(f(point) >= 0 for f in self.facets)

    def interior_contains(self, point) -> bool:
        return all(f(point) > 0 for f in self.facets)


@dataclass(frozen=True)
class FacetSelection:
    """A nonempty proper subset of the facets of a cone."""

    cone: Cone
    selected: frozenset[int]

    def __post_init__(self):
        sel = frozenset(self.selected)
        object.__setattr__(self, "selected", sel)
        n = len(self.cone.facets)
        if not sel or len(sel) >= n or not all(0 <= i < n for i in sel):
            raise ValueError("selection must be a nonempty proper subset of facet indices")

    @property
    def complement(self) -> frozenset[int]:
        return frozenset(range(len(self.cone.facets))) - self.selected


def default_grading(cone: Cone) -> Vector:
    """Componentwise sum of the facet covectors.

    Strictly positive on every nonzero cone point because the cone is pointed,
    so it always works as a grading; no user input needed.
    """
    return tuple(sum(f.coeffs[i] for f in cone.facets) for i in range(cone.dim))


def cross_section_vertices(cone: Cone) -> tuple[tuple[Fraction, ...], ...]:
    """Rays scaled onto the hyperplane {w.x = 1} for the default grading w."""
    w = default_grading(cone)
    return tuple(tuple(Fraction(a, dot(w, r)) for a in r) for r in cone.rays)


def _canonical_vectors(vectors) -> list[Vector]:
    prims = sorted({primitive(tuple(int(a) for a in v)) for v in vectors})
    widths = {len(v) for v in prims}
    if len(widths) != 1:
        raise ValueError("vectors of mixed lengths")
    return prims


def dual_description(rays) -> Cone:
    """Pointed full-dimensional cone generated by ``rays``, facets recovered.

    The facet normals are the extreme rays of the dual cone {y : r.y >= 0},
    and the extreme input rays are the extreme rays of the cone the normals
    cut out, both by :func:`extreme_rays`.  Raises
    :class:`NotFullDimensional` / :class:`NotPointed`.
    """
    ray_list = _canonical_vectors(rays)
    d = len(ray_list[0])
    lineality, normals = extreme_rays([], ray_list, d)
    if lineality:
        raise NotFullDimensional("rays do not span the ambient space")
    if rank_over_field(normals) < d:
        raise NotPointed("the given rays span a cone containing a line")
    rays = tuple(extreme_rays([], normals, d)[1])
    facets = []
    for normal in normals:
        incident = frozenset(i for i, r in enumerate(rays) if dot(normal, r) == 0)
        facets.append(FacetFunctional(normal, incident))
    return Cone(d, rays, tuple(facets))


def graded_closure(whole, facets) -> dict[frozenset, int]:
    """The sets ``whole``, the empty set and every intersection of
    ``facets``, each ranked by its longest chain up from the empty set.

    On the facet ray (or vertex) sets of a pointed cone (or polytope) these
    are its faces, since every proper face is the intersection of the facets
    containing it, and the rank is the face's dimension (plus one for a
    polytope, whose empty face has dimension -1), since the face lattice is
    graded."""
    facets = [frozenset(f) for f in facets]
    found = {frozenset(whole), frozenset()} | set(facets)
    frontier = facets
    while frontier:
        grown = []
        for face in frontier:
            for facet in facets:
                meet = face & facet
                if meet not in found:
                    found.add(meet)
                    grown.append(meet)
        frontier = grown
    ranks: dict[frozenset, int] = {}
    for face in sorted(found, key=len):
        ranks[face] = max((ranks[g] + 1 for g in ranks if g < face), default=0)
    return ranks


def pulling_simplices(faces, face):
    """Simplices of a pulling triangulation of one face, as sorted tuples.

    ``faces`` maps the vertex sets of a polytope (or the ray sets of a cone)
    to their dimensions.  The face is coned from its smallest vertex over the
    simplices of its facets that miss that vertex; the apex depends only on
    the face, so the pieces agree across shared facets.  A 0-dimensional face
    yields its smallest vertex alone (a polytope vertex may carry repeated
    points), and a cone's origin yields ``()``."""
    dim = faces[face]
    if dim == 0:
        yield tuple(sorted(face)[:1])
        return
    apex, members = min(face), set(face)
    for sub, sub_dim in faces.items():
        if sub_dim == dim - 1 and apex not in sub and members.issuperset(sub):
            for simplex in pulling_simplices(faces, sub):
                yield (apex,) + simplex


@lru_cache(maxsize=None)
def faces_of(cone: Cone) -> tuple[Face, ...]:
    """Every face of the cone exactly once, including the cone itself and the
    origin, represented by (tight facet set, spanning ray set, dimension)."""
    ranks = graded_closure(range(len(cone.rays)), (f.incident_rays for f in cone.facets))
    faces = [
        Face(
            frozenset(j for j, f in enumerate(cone.facets) if ray_set <= f.incident_rays),
            ray_set,
            dim,
        )
        for ray_set, dim in ranks.items()
    ]
    return tuple(sorted(faces, key=lambda f: (f.dim, sorted(f.rays))))


def bitmask(indices) -> int:
    """The integer with bit i set for each i in ``indices``."""
    return sum(1 << i for i in indices)


class _FaceLattice:
    """One cone's face lattice, kept on the cone as ``_face_lattice``:
    ``faces_of(cone)``, each face's tight facets as a bitmask and its sign
    (-1)^dim, the faces containing it (itself included) as a bitmask over
    the face list, the faces of even dimension as one such bitmask, per
    facet the faces of dimension at least 1 on it as one such bitmask, and
    each face's covers, the faces one dimension down inside it, as (index,
    incidence) pairs with incidence +-1.

    A face of dimension k is a (k - 1)-cell of the cross-section, the origin
    its empty (-1)-cell, and the incidences make the augmented cellular
    chain complex of the whole lattice exact where it must be: ∂∂ = 0.  A
    ray's one cover is the origin, with +1.  A face y of dimension at least
    2 gets +1 on its first cover, and the sign is carried along the covers
    z, z' that share a face w one dimension further down, so that
    [y : z][z : w] + [y : z'][z' : w] = 0.  The lattice is a polytope's, so
    each such w lies in exactly two covers (the diamond property) and the
    covers are connected through them (the facets of a polytope of
    dimension at least 2 are connected through its ridges); a w in another
    number of covers, a cover left unsigned or a pair that breaks the rule
    raises InvariantViolation.  Every sum (∂∂y)_w is one such pair, so ∂∂ =
    0.  It also holds on every upper interval [x, cone], with x as the
    (-1)-cell, since every face between two faces of the interval lies in
    it.  Built once per cone, without a lock: two threads that build it at
    once make equal values and one is kept."""

    __slots__ = ("faces", "masks", "signs", "uppers", "even", "on_facet", "covers")

    def __init__(self, cone: Cone):
        self.faces = faces = faces_of(cone)
        self.masks = [bitmask(f.tight_facets) for f in faces]
        self.signs = [(-1) ** f.dim for f in faces]
        self.even = bitmask(k for k, s in enumerate(self.signs) if s > 0)
        ray_masks = [bitmask(f.rays) for f in faces]
        by_dim: dict[int, list[int]] = {}
        covers: list[tuple[tuple[int, int], ...]] = []
        for k, face in enumerate(faces):
            inside = ray_masks[k]
            below = [j for j in by_dim.get(face.dim - 1, ()) if ray_masks[j] | inside == inside]
            if face.dim == 1:
                covers.append(((below[0], 1),))
            elif face.dim > 1:
                covers.append(_oriented(face, below, covers))
            else:
                covers.append(())
            by_dim.setdefault(face.dim, []).append(k)
        self.covers = covers
        # a face's upper set is itself and the upper sets of the faces that
        # cover it, which come later in the list
        uppers = [1 << k for k in range(len(faces))]
        for k in reversed(range(len(faces))):
            for j, _ in covers[k]:
                uppers[j] |= uppers[k]
        self.uppers = uppers
        self.on_facet = on_facet = [0] * len(cone.facets)
        for k, face in enumerate(faces):
            if face.dim:
                for i in face.tight_facets:
                    on_facet[i] |= 1 << k


def _oriented(face: Face, below, covers) -> tuple[tuple[int, int], ...]:
    """The covers ``below`` of a face of dimension at least 2 with their
    incidence numbers (see ``_FaceLattice``), from the covers' own."""
    meets: dict[int, list[tuple[int, int]]] = {}
    for z in below:
        for w, s in covers[z]:
            meets.setdefault(w, []).append((z, s))
    if any(len(pair) != 2 for pair in meets.values()):
        raise InvariantViolation(f"face {sorted(face.rays)} breaks the diamond property")
    links: dict[int, list[tuple[int, int]]] = {z: [] for z in below}
    for (z, a), (z2, b) in meets.values():
        links[z].append((z2, a * b))
        links[z2].append((z, a * b))
    sign = {below[0]: 1}
    stack = [below[0]]
    while stack:
        z = stack.pop()
        for z2, ab in links[z]:
            if z2 not in sign:
                sign[z2] = -sign[z] * ab
                stack.append(z2)
    if len(sign) != len(below) or any(
        sign[z] * a + sign[z2] * b for (z, a), (z2, b) in meets.values()
    ):
        raise InvariantViolation(f"no incidence numbers with ∂∂ = 0 on face {sorted(face.rays)}")
    return tuple((z, sign[z]) for z in below)


def face_lattice(cone: Cone) -> _FaceLattice:
    """The cone's face lattice, made on first use and kept on the cone."""
    lattice = cone._face_lattice
    if lattice is None:
        lattice = _FaceLattice(cone)
        object.__setattr__(cone, "_face_lattice", lattice)
    return lattice

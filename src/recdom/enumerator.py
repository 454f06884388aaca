"""Lattice-point enumerators of reciprocal cone domains.

Fix a pointed full-dimensional cone and a nonempty proper subset of its
facets.  Removing from the cone all points lying on the selected facets (or,
symmetrically, on the unselected ones) leaves two reciprocal point sets.
This module enumerates their lattice points, assembles exact rational
generating functions for them, decides the sign-and-substitution identity
relating the two sides, and runs a degreewise consistency scan for the
colon-ideal description of one side in terms of the other.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import count, product
from math import prod
from operator import add
from threading import Lock

from .geometry import (
    GF2,
    QQ,
    Cone,
    Face,
    FacetSelection,
    InvariantViolation,
    Vector,
    default_grading,
    dot,
    dual_rows,
    face_lattice,
    faces_of,
    pulling_simplices,
    smith_normal_form,
    vadd,
)
from .topology import cm_on_upper_intervals

SELECTED = "selected"      # strict inequalities on the selected facets
COMPLEMENT = "complement"  # strict inequalities on the complementary facets
SIDES = (SELECTED, COMPLEMENT)


class BadGrading(ValueError):
    """Grading covector is not strictly positive where it has to be."""


class BoxTooLarge(ValueError):
    """A box of lattice points to walk holds more than ``BOX_LIMIT`` points."""


# Largest box a walk takes: a scan's degree box, or a parallelepiped's cosets.
BOX_LIMIT = 10**6


class WitnessSearchExhausted(RuntimeError):
    """No facet-interior witness below the scan cap; raise the bound."""


@dataclass(frozen=True)
class DomainSpec:
    """One reciprocal domain inside a cone.

    With ``side == SELECTED`` the boundary part carried by the selected
    facets is removed: membership needs every facet value nonnegative and the
    selected ones strictly positive.  ``COMPLEMENT`` swaps the two roles.
    """

    selection: FacetSelection
    side: str = SELECTED

    def __post_init__(self):
        if self.side not in SIDES:
            raise ValueError(f"side must be one of {SIDES}")

    @property
    def cone(self) -> Cone:
        return self.selection.cone

    @property
    def strict_facets(self) -> frozenset[int]:
        if self.side == SELECTED:
            return self.selection.selected
        return self.selection.complement

    def opposite(self) -> "DomainSpec":
        other = COMPLEMENT if self.side == SELECTED else SELECTED
        return DomainSpec(self.selection, other)

    def contains(self, point) -> bool:
        strict = self.strict_facets
        for i, facet in enumerate(self.cone.facets):
            v = facet(point)
            if v < 0 or (v == 0 and i in strict):
                return False
        return True


class LaurentPoly:
    """Sparse Laurent polynomial with integer coefficients, exponents in Z^d."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {tuple(e): c for e, c in (terms or {}).items() if c}

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def monomial(cls, exponent, coeff=1) -> "LaurentPoly":
        return cls({tuple(exponent): coeff})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    __hash__ = None

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) - c
        return LaurentPoly(out)

    def scale(self, factor):
        return LaurentPoly({e: factor * c for e, c in self.terms.items()})

    def times_one_minus(self, v):
        """Multiply by (1 - x^v)."""
        out = dict(self.terms)
        for e, c in self.terms.items():
            shifted = vadd(e, v)
            out[shifted] = out.get(shifted, 0) - c
        return LaurentPoly(out)

    def __repr__(self):
        return f"LaurentPoly({dict(sorted(self.terms.items()))!r})"


@dataclass(frozen=True, eq=False)
class RationalGF:
    """numerator / prod over denom_rays v of (1 - x^v); denominators sorted."""

    numerator: LaurentPoly
    denom_rays: tuple[Vector, ...]

    def __post_init__(self):
        object.__setattr__(self, "denom_rays", tuple(sorted(tuple(v) for v in self.denom_rays)))

    @property
    def n_variables(self) -> int:
        if self.denom_rays:
            return len(self.denom_rays[0])
        for e in self.numerator.terms:
            return len(e)
        return 0

    def __repr__(self):
        return f"RationalGF({self.numerator!r}, denom={list(self.denom_rays)!r})"


class TruncatedSeries:
    """Exponent-to-coefficient map of a series truncated at a grading bound."""

    __slots__ = ("grading", "bound", "coeffs")

    def __init__(self, grading, bound, coeffs):
        self.grading = tuple(grading)
        self.bound = int(bound)
        self.coeffs = {tuple(e): c for e, c in coeffs.items() if c}

    def coefficient(self, exponent) -> int:
        return self.coeffs.get(tuple(exponent), 0)

    def support(self):
        return sorted(self.coeffs)

    def degree_counts(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for e, c in self.coeffs.items():
            deg = dot(self.grading, e)
            out[deg] = out.get(deg, 0) + c
        return {k: v for k, v in sorted(out.items()) if v}

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedSeries)
            and self.grading == other.grading
            and self.bound == other.bound
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return f"TruncatedSeries(bound={self.bound}, {len(self.coeffs)} terms)"


def _grading(cone, grading):
    """The grading, or the default one, checked to have one entry per
    coordinate and to be strictly positive on every ray."""
    w = tuple(grading) if grading is not None else default_grading(cone)
    if len(w) != cone.dim:
        raise BadGrading(f"grading length {len(w)} != dim {cone.dim}")
    for r in cone.rays:
        if dot(w, r) <= 0:
            raise BadGrading(f"grading {w} is not strictly positive on ray {r}")
    return w


def _box_points(cone, w, bound):
    """The lattice points of w-degree at most ``bound`` in the bounding box
    of {x in cone : w.x <= bound}, a polytope with vertices at the origin
    and the rays scaled to degree ``bound``."""
    lows = [0] * cone.dim
    highs = [0] * cone.dim
    for r in cone.rays:
        wr = dot(w, r)
        for i, a in enumerate(r):
            lows[i] = min(lows[i], bound * a // wr)
            highs[i] = max(highs[i], -(-bound * a // wr))
    size = prod(hi - lo + 1 for lo, hi in zip(lows, highs))
    if size > BOX_LIMIT:
        raise BoxTooLarge(f"degree box of {size} points exceeds the limit of {BOX_LIMIT}")
    for pt in product(*(range(lo, hi + 1) for lo, hi in zip(lows, highs))):
        if dot(w, pt) <= bound:
            yield pt


def lattice_points(spec: DomainSpec, grading=None, bound: int = 8) -> TruncatedSeries:
    """All lattice points of the domain with grading degree at most ``bound``.

    A box scan over the truncation polytope with exact membership filtering;
    exhaustive because the truncated cone is bounded."""
    w = _grading(spec.cone, grading)
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    coeffs = {pt: 1 for pt in _box_points(spec.cone, w, bound) if spec.contains(pt)}
    return TruncatedSeries(w, bound, coeffs)


def _cone_points(cone, w, bound):
    """All cone lattice points with w-degree <= bound, sorted by (degree, lex)."""
    pts = [pt for pt in _box_points(cone, w, bound) if cone.contains(pt)]
    pts.sort(key=lambda p: (dot(w, p), p))
    return pts


@dataclass(frozen=True)
class HalfOpenCone:
    """Simplicial subcone with wall flags.

    Wall ``i`` is spanned by all generators except ``generators[i]``; when it
    is open, points whose coefficient on that generator vanishes are excluded.
    """

    generators: tuple[Vector, ...]
    open_walls: tuple[bool, ...]


def triangulate(cone: Cone) -> tuple[HalfOpenCone, ...]:
    """Half-open simplicial decomposition of the cone.

    Subcones are spanned by rays of the cone (a pulling triangulation of the
    face lattice).  Wall flags are chosen against a fixed generic interior
    reference point, so every lattice point of the cone lies in exactly one
    flagged subcone."""
    top = next(f for f in faces_of(cone) if f.dim == cone.dim)
    return _face_decomposition(cone, top)


@lru_cache(maxsize=None)
def _pulling_triangulation(cone: Cone, face: Face) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(pulling_simplices({f.rays: f.dim for f in faces_of(cone)}, face.rays)))


@lru_cache(maxsize=None)
def _face_decomposition(cone: Cone, face: Face) -> tuple[HalfOpenCone, ...]:
    # The wall of a piece opposite generator i is read off row i of the dual
    # rows adj(G).gens, G = gens.gens^T.  On the span of the generators,
    # which holds the whole face, that row is det(G) > 0 times the covector
    # with value 1 on generator i and 0 on the others.  The reference point
    # sum_j b^-j v_j over the face's m rays, for the least b >= 2 that puts
    # it on no wall, is taken times b^(m-1) so that it is an integer point.
    simplices = _pulling_triangulation(cone, face)
    gens = {s: tuple(cone.rays[i] for i in s) for s in simplices}
    walls = {s: dual_rows(gens[s])[1] for s in simplices}
    ray_vectors = [cone.rays[i] for i in sorted(face.rays)]
    top = len(ray_vectors) - 1
    for b in count(2):
        reference = tuple(
            sum(b ** (top - j) * v[i] for j, v in enumerate(ray_vectors))
            for i in range(cone.dim)
        )
        if all(dot(n, reference) for rows in walls.values() for n in rows):
            break
    return tuple(
        HalfOpenCone(gens[s], tuple(dot(n, reference) < 0 for n in walls[s]))
        for s in simplices
    )


def _parallelepiped_points(generators):
    """Integer points of {sum l_i v_i : 0 <= l_i < 1} with their coefficients,
    in lexicographic order of the points; each coefficient l_i is given as
    its integer numerator over the last Smith diagonal entry.

    Let P V Q = D be the Smith normal form of the matrix V whose columns are
    the k generators.  The lattice points in the span of V are P^-1 (Z^k x 0),
    and the a with 0 <= a_i < d_i pick one from each coset of the generator
    lattice among them (Beck-Robins, *Computing the Continuous Discretely*,
    ch. 3): the coset of a has coefficients frac(Q D^-1 a), held as integer
    numerators over the last diagonal entry, and its point is V times those.
    That is |det| = prod d_i points, at most BOX_LIMIT, found on integers."""
    d, k = len(generators[0]), len(generators)
    rows = [[v[i] for v in generators] for i in range(d)]
    _, diagonal, q = smith_normal_form(rows)
    if k > d or not diagonal[-1]:
        raise ValueError("generators must be linearly independent")
    size = prod(diagonal)
    if size > BOX_LIMIT:
        raise BoxTooLarge(f"parallelepiped of {size} points exceeds the limit of {BOX_LIMIT}")
    denom = diagonal[-1]
    steps = [denom // di for di in diagonal]
    points = []
    for a in product(*(range(di) for di in diagonal)):
        scaled = [ai * step for ai, step in zip(a, steps)]
        nums = [dot(row, scaled) % denom for row in q]
        z = tuple(dot(row, nums) // denom for row in rows)
        points.append((z, tuple(nums)))
    points.sort()
    return points


def simplicial_gf(generators, open_walls=None) -> RationalGF:
    """Generating function of a half-open simplicial cone.

    Numerator monomials run over the integer points of the fundamental
    parallelepiped; a point sitting on an open wall is shifted off it by the
    omitted generator.  Denominator rays are the generators."""
    gens = tuple(tuple(v) for v in generators)
    if len({len(v) for v in gens}) != 1:
        raise ValueError("generators must be a nonempty list of vectors of one length")
    flags = tuple(open_walls) if open_walls is not None else (False,) * len(gens)
    if len(flags) != len(gens):
        raise ValueError(f"{len(flags)} wall flags for {len(gens)} generators")
    return RationalGF(LaurentPoly(Counter(_half_open_points(gens, flags))), gens)


def _half_open_points(generators, open_walls):
    """The integer points of the fundamental parallelepiped, each shifted off
    the open walls it sits on by the generators those walls omit."""
    for z, nums in _parallelepiped_points(generators):
        for v, is_open, num in zip(generators, open_walls, nums):
            if is_open and not num:
                z = vadd(z, v)
        yield z


def _numerator_over(gf: RationalGF, rays) -> LaurentPoly:
    """The numerator of ``gf`` written over the denominator ``rays``, a
    multiset of rays holding gf's own: times (1 - x^v) for each ray missing."""
    missing = Counter(rays)
    missing.subtract(gf.denom_rays)
    if any(k < 0 for k in missing.values()):
        raise InvariantViolation(
            f"denominator {gf.denom_rays} is not a sub-multiset of {tuple(rays)}"
        )
    num = gf.numerator
    for v in sorted(missing.elements()):
        num = num.times_one_minus(v)
    return num


@lru_cache(maxsize=None)
def _face_gf(cone: Cone, face: Face) -> RationalGF:
    """Closed generating function of all lattice points of one face, written
    over the cone's canonical denominator (all rays of the cone).

    Each half-open piece's numerator is multiplied by (1 - x^v) for the rays
    missing from its denominator.  The face table builds the same numerator
    as a packed graded row (see ``_FaceTable``); this is the multivariate
    reference that row is checked against."""
    denom = tuple(sorted(cone.rays))
    total = LaurentPoly.zero()
    for piece in _face_decomposition(cone, face):
        total = total + _numerator_over(simplicial_gf(piece.generators, piece.open_walls), denom)
    return RationalGF(total, denom)


def _graded_face_row(cone: Cone, face: Face, w) -> dict[int, int]:
    """``_face_gf``'s numerator under x -> t^w, as a sparse {degree:
    coefficient}, built without it: each half-open piece's points counted
    by degree, times (1 - t^(w.v)) for each cone ray v missing from the
    piece (the monomial substitution of a short rational generating
    function; Barvinok-Woods, JAMS 16, 2003).  The origin's row is the
    product of (1 - t^(w.v)) over all rays.  Degrees ascend."""
    if face.dim:
        pieces = [
            (Counter(dot(w, z) for z in _half_open_points(p.generators, p.open_walls)), p.generators)
            for p in _face_decomposition(cone, face)
        ]
    else:
        pieces = [({0: 1}, ())]
    row: dict[int, int] = {}
    for counts, generators in pieces:
        for v in cone.rays:
            if v not in generators:
                a = dot(w, v)
                shifted = dict(counts)
                for d, c in counts.items():
                    shifted[d + a] = shifted.get(d + a, 0) - c
                counts = shifted
        for d, c in counts.items():
            row[d] = row.get(d, 0) + c
    return {d: row[d] for d in sorted(row) if row[d]}


class _FaceTable:
    """What the face-by-face sums read beyond the cone's face lattice
    (``geometry.face_lattice``, which it keeps as ``lattice`` and whose face
    order it follows), for one cone: per grading asked for, each face's
    sparse graded row (``_graded_face_row``) and the least degree of its
    relative interior, and the cone's default grading ``grading``, checked
    once (see ``_grading``).

    A face's graded row is the numerator of its closed generating function
    over the canonical denominator (all cone rays) under x -> t^w.  Its
    multivariate numerator is its graded row under the cone's Kronecker
    grading ``kronecker`` = (B^(d-1), ..., B, 1), which packs each exponent
    into one integer, coordinate 0 the most significant digit.  Each term
    of a half-open piece is z + the sum of a set S of cone rays missing
    from the piece, with z in the parallelepiped of the piece's generators
    (coefficients in [0, 1]).  Generators and S are disjoint sets of rays,
    so coordinate i of every exponent lies in [low_i, high_i], the sums of
    min(0, v_i) and of max(0, v_i) over the rays.  With B = max (high_i -
    low_i) + 1 the packing is injective on that box and orders it
    lexicographically (Monagan-Pearce, CASC 2007).  Rows are built the
    first time a sum needs them, and interior degrees stored, under the
    table's lock, keyed by (grading, face); a row is a dict of integers,
    which the garbage collector does not track.  The cone is passed in
    rather than kept, since the cone keeps the table."""

    __slots__ = ("lattice", "grading", "low", "base", "kronecker", "_graded", "_interior", "_lock")

    def __init__(self, cone: Cone):
        self.lattice = face_lattice(cone)
        self.grading = _grading(cone, None)
        self.low = tuple(sum(min(0, v[i]) for v in cone.rays) for i in range(cone.dim))
        high = [sum(max(0, v[i]) for v in cone.rays) for i in range(cone.dim)]
        self.base = max(h - lo for h, lo in zip(high, self.low)) + 1
        self.kronecker = tuple(self.base ** i for i in reversed(range(cone.dim)))
        self._graded: dict[tuple, dict[int, int]] = {}
        self._interior: dict[tuple, int] = {}
        self._lock = Lock()

    def rows(self, cone: Cone, w, indices) -> list[dict[int, int]]:
        """The graded rows under w of the faces at ``indices``, in order."""
        with self._lock:
            rows = []
            for k in indices:
                row = self._graded.get((w, k))
                if row is None:
                    row = self._graded[w, k] = _graded_face_row(cone, self.lattice.faces[k], w)
                rows.append(row)
        return rows

    def graded_sum(self, cone: Cone, w, coefficients) -> dict[int, int]:
        """The sum of c_K times the graded row of K under w, with c_K =
        coefficients[K] over the faces in order, as {degree: coefficient}."""
        used = [k for k, c in enumerate(coefficients) if c]
        total: dict[int, int] = {}
        for k, row in zip(used, self.rows(cone, w, used)):
            c = coefficients[k]
            for d, a in row.items():
                total[d] = total.get(d, 0) + c * a
        return total

    def unpack(self, row) -> dict[tuple, int]:
        """The nonzero terms {exponent: coefficient} of a row under the
        Kronecker grading, in lexicographic order of the exponents."""
        base, low = self.base, self.low
        offset, size = dot(self.kronecker, low), base ** len(low)
        terms = {}
        for key, c in sorted(row.items()):
            if c:
                rest = key - offset
                if not 0 <= rest < size:
                    raise InvariantViolation(f"packed exponent {key} lies outside the cone's exponent box")
                digits = []
                for _ in low:
                    rest, digit = divmod(rest, base)
                    digits.append(digit)
                terms[tuple(map(add, reversed(digits), low))] = c
        return terms

    def interior_degree(self, cone: Cone, w, k: int) -> int:
        """The least w-degree of a lattice point in the relative interior of
        face k, F: the lowest degree of the numerator of sigma_relint(F), the
        sum of (-1)^(dim F - dim K) times the graded row of K over the faces K
        of F (the face lattice is Eulerian).  The series counts points, so
        its lowest term cannot cancel, and each factor 1/(1 - t^a), a > 0, is
        1 plus terms of higher degree, so the numerator's lowest degree is
        the series'."""
        low = self._interior.get((w, k))
        if low is None:
            lattice = self.lattice
            bit, sign = 1 << k, lattice.signs[k]
            below = [sign * s if up & bit else 0 for s, up in zip(lattice.signs, lattice.uppers)]
            low = min(d for d, c in self.graded_sum(cone, w, below).items() if c)
            with self._lock:
                low = self._interior.setdefault((w, k), low)
        return low


_TABLE_LOCK = Lock()


def _face_table(cone: Cone) -> _FaceTable:
    """The cone's face table, made on first use and kept on the cone; made
    under a module lock, so threads that ask at once share one table."""
    table = cone._face_table
    if table is None:
        with _TABLE_LOCK:
            table = cone._face_table
            if table is None:
                table = _FaceTable(cone)
                object.__setattr__(cone, "_face_table", table)
    return table


def _open_faces(lattice, strict_facets) -> int:
    """The faces on no strict facet (the open faces), as a mask: every face
    less the origin, which lies on every facet, and the faces of dimension
    at least 1 on a strict facet."""
    on_strict = 1
    for i in strict_facets:
        on_strict |= lattice.on_facet[i]
    return ((1 << len(lattice.faces)) - 1) & ~on_strict


def _open_face_signs(lattice, open_faces: int) -> list[int]:
    """(-1)^dim G for the open faces G, 0 for the others: the coefficients
    of sigma_G in a domain's function at 1/x."""
    return [s if open_faces >> k & 1 else 0 for k, s in enumerate(lattice.signs)]


def _reciprocal_gf(spec: DomainSpec) -> RationalGF:
    """The domain's generating function at 1/x over the canonical
    denominator: the sum of (-1)^dim G sigma_G(x) over its open faces G (see
    ``domain_gf``), summed under the cone's Kronecker grading and unpacked
    (see ``_FaceTable``).  The origin lies on every facet and is never
    open."""
    cone = spec.cone
    table = _face_table(cone)
    signs = _open_face_signs(table.lattice, _open_faces(table.lattice, spec.strict_facets))
    row = table.graded_sum(cone, table.kronecker, signs)
    return RationalGF(LaurentPoly(table.unpack(row)), tuple(sorted(cone.rays)))


def domain_gf(spec: DomainSpec) -> RationalGF:
    """Exact rational generating function of a reciprocal domain.

    A cone point lies in the domain exactly when the smallest face holding it
    lies on no strict facet, so the domain is the disjoint union of the
    relative interiors of those open faces G.  By Stanley reciprocity for
    each closed face, sigma_G(1/x) = (-1)^dim G sigma_relint(G)(x) (Stanley,
    "Combinatorial reciprocity theorems", Adv. Math. 14, 1974), the domain's
    function at 1/x is the sum of (-1)^dim G sigma_G(x) over the open faces,
    over the canonical denominator; x -> 1/x takes it back."""
    return invert_variables(_reciprocal_gf(spec))


def _ray_degrees(gf: RationalGF, w):
    """The degrees w.v of the denominator rays, checked positive; ``w`` must
    have one entry per variable."""
    if (gf.denom_rays or gf.numerator) and len(w) != gf.n_variables:
        raise BadGrading(f"grading length {len(w)} != {gf.n_variables} variables")
    degrees = [dot(w, v) for v in gf.denom_rays]
    for v, wv in zip(gf.denom_rays, degrees):
        if wv <= 0:
            raise BadGrading(f"grading {tuple(w)} not positive on denominator ray {v}")
    return degrees


def expand(gf: RationalGF, grading, bound: int) -> TruncatedSeries:
    """Series expansion of a rational generating function up to a grading bound.

    Each factor 1/(1 - x^v) is a geometric series in x^v; the grading must be
    strictly positive on every denominator ray so truncation terminates."""
    w = tuple(grading)
    steps = list(zip(gf.denom_rays, _ray_degrees(gf, w)))
    terms = {e: c for e, c in gf.numerator.terms.items() if dot(w, e) <= bound}
    for v, wv in steps:
        nxt: dict[tuple, int] = {}
        for e, c in terms.items():
            we = dot(w, e)
            k = 0
            while we + k * wv <= bound:
                ee = tuple(a + k * b for a, b in zip(e, v))
                nxt[ee] = nxt.get(ee, 0) + c
                k += 1
        terms = nxt
    return TruncatedSeries(w, bound, terms)


def invert_variables(gf: RationalGF) -> RationalGF:
    """Substitute x -> 1/x and rewrite over the original denominator.

    Each factor (1 - x^-v) equals -x^-v (1 - x^v), so the substitution shifts
    the numerator by the sum of the denominator rays and flips its sign once
    per denominator ray.  Applying it twice is the identity."""
    d = gf.n_variables
    shift = tuple(sum(v[i] for v in gf.denom_rays) for i in range(d))
    sign = -1 if len(gf.denom_rays) % 2 else 1
    num = {tuple(s - a for s, a in zip(shift, e)): sign * c for e, c in gf.numerator.terms.items()}
    return RationalGF(LaurentPoly(num), gf.denom_rays)


def gf_scale(gf: RationalGF, factor) -> RationalGF:
    return RationalGF(gf.numerator.scale(factor), gf.denom_rays)


def gf_equal(a: RationalGF, b: RationalGF) -> bool:
    """Equality in the field of rational functions.

    Both numerators are written over the union of the two denominator
    multisets and compared.  Over one denominator this is a comparison of
    numerators."""
    if a.n_variables != b.n_variables:
        raise ValueError("generating functions in different variable counts")
    union = sorted((Counter(a.denom_rays) | Counter(b.denom_rays)).elements())
    return _numerator_over(a, union) == _numerator_over(b, union)


def specialize(gf: RationalGF, weights) -> RationalGF:
    """Substitute x_i -> t^{weights[i]}, giving a univariate function of t.

    Every denominator ray must have strictly positive weight."""
    rays = tuple((wv,) for wv in _ray_degrees(gf, weights))
    num: dict[tuple, int] = {}
    for e, c in gf.numerator.terms.items():
        key = (dot(weights, e),)
        num[key] = num.get(key, 0) + c
    return RationalGF(LaurentPoly(num), rays)


@dataclass
class ReciprocityReport:
    """Outcome of the two-sided enumerator comparison.

    A holding report from ``reciprocity_check`` builds its witness, the
    shared numerator, when ``witness`` is first read; equality and ``repr``
    read it, and pickles and copies carry it built.  ``to_json()`` reads it
    only when the identity fails."""

    holds: bool
    cm_over: dict[str, bool]
    witness: dict

    @classmethod
    def _built_on_read(cls, holds, cm_over, build) -> "ReciprocityReport":
        report = cls.__new__(cls)
        report.holds, report.cm_over, report._build = holds, cm_over, build
        return report

    def __getattr__(self, name):
        # reached only while the instance has no ``witness`` of its own
        build = self.__dict__.get("_build")
        if name != "witness" or build is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        return self.__dict__.setdefault("witness", build())

    def __getstate__(self):
        return {"holds": self.holds, "cm_over": self.cm_over, "witness": self.witness}

    def to_json(self) -> dict:
        first = None
        if not self.holds:
            first = {k: self.witness[k] for k in ("degree", "lhs", "rhs")}
        return {"holds": self.holds, "cm": dict(self.cm_over), "first_disagreement": first}


def _lattice_sides(selection: FacetSelection) -> tuple[list[int], list[int]]:
    """The coefficients of each face's sigma_K, faces in ``faces_of`` order,
    in F_complement(1/x) and in (-1)^d F_selected(x).

    The left side sums (-1)^dim G sigma_G over the complement's open faces G
    (see ``_reciprocal_gf``): K gets (-1)^dim K if it lies on no complement
    facet and 0 otherwise.  The right side sums sigma_relint(G) over the
    selected side's open faces G, and the face lattice is Eulerian, so
    sigma_relint(G) = sum of (-1)^(dim G - dim K) sigma_K over the faces K of
    G: K gets (-1)^d times that sign summed over the open faces G containing
    it."""
    cone = selection.cone
    lattice = face_lattice(cone)
    open_selected = _open_faces(lattice, selection.selected)
    open_even = open_selected & lattice.even
    sign = (-1) ** cone.dim
    # the open faces G above K, each with sign (-1)^(dim G - dim K)
    rhs = [
        sign * s * (2 * (above & open_even).bit_count() - (above & open_selected).bit_count())
        for s, above in zip(lattice.signs, lattice.uppers)
    ]
    return _open_face_signs(lattice, _open_faces(lattice, selection.complement)), rhs


def reciprocity_check(selection: FacetSelection, fields=(QQ, GF2), grading=None) -> ReciprocityReport:
    """Check F_complement(1/x) == (-1)^d F_selected(x) as rational functions.

    Both verdicts are read off the cone's face lattice.  The closed faces'
    generating functions sigma_K are linearly independent, so the identity
    holds exactly when both sides give every face K, the origin included,
    the same coefficient (see ``_lattice_sides``; Stanley, "Combinatorial
    reciprocity theorems", Adv. Math. 14, 1974).  The per-field
    Cohen-Macaulay verdicts for the removed boundary part's cross-section
    are read from its upper intervals (see
    ``topology.cm_on_upper_intervals``).  When the identity holds both sides
    share one numerator over the canonical denominator (all cone rays), and
    the witness is the complement's: the signed sum of its open faces' rows
    under the cone's Kronecker grading, unpacked, built when the report's
    ``witness`` is first read.  Otherwise the witness is the smallest
    grading degree where the series disagree, with both per-degree totals,
    read off the faces' graded rows under the grading (see
    ``_graded_disagreement``)."""
    cone = selection.cone
    table = _face_table(cone)
    w = table.grading if grading is None else _grading(cone, grading)
    cm_over = {label: c.is_cm for label, c in cm_on_upper_intervals(selection, fields).items()}
    lhs, rhs = _lattice_sides(selection)
    if lhs == rhs:

        def identity():
            terms = table.unpack(table.graded_sum(cone, table.kronecker, lhs))
            return {
                "kind": "identity",
                "denominator_rays": [list(v) for v in sorted(cone.rays)],
                "numerator": [(list(e), c) for e, c in terms.items()],
            }

        return ReciprocityReport._built_on_read(True, cm_over, identity)
    return ReciprocityReport(False, cm_over, _graded_disagreement(table, cone, w, lhs, rhs))


def _graded_disagreement(table: _FaceTable, cone: Cone, w, lhs, rhs) -> dict:
    """The smallest w-degree where the series of the two sides differ, with
    both sides' totals there, from the faces' graded rows.

    ``lhs`` and ``rhs`` are the coefficients L(K) and R(K) of each closed
    face's sigma_K (see ``_lattice_sides``).  A closed face is the disjoint
    union of the relative interiors of its faces, so the series difference
    is the sum over the faces F of mu(F) sigma_relint(F), with mu(F) the sum
    of (L - R)(K) over the faces K containing F.  Relative interiors are
    disjoint, so the series differ at a lattice point exactly when mu is
    nonzero on the face whose relative interior holds it: the first degree
    where they differ is the least, over the faces F with mu(F) != 0, of the
    lowest degree of sigma_relint(F)(t^w).  That series counts points, so
    its lowest term cannot cancel (see ``_FaceTable.interior_degree``); the
    lowest degree of the graded difference could.  Below that degree the
    graded series difference vanishes, and its numerator is the series
    times prod (1 - t^(w.v)), so at that degree the two agree: the right
    side's total is the left side's minus the numerator difference there.
    The left side's total is the t^degree coefficient of its graded
    numerator times one geometric series per ray, counted from the lowest
    term at most that degree, so a ray of huge degree builds no long list.
    Each face's row is read once, the difference's only at that degree and
    the left side's only up to it."""
    difference = [a - b for a, b in zip(lhs, rhs)]
    changed = [(1 << j, c) for j, c in enumerate(difference) if c]
    support = sum(bit for bit, _ in changed)
    lows = [
        table.interior_degree(cone, w, k)
        for k, up in enumerate(table.lattice.uppers)
        if up & support and sum(c for bit, c in changed if up & bit)
    ]
    if not lows:
        raise InvariantViolation("the two sides were judged to differ, but their numerators agree")
    degree = min(lows)
    used = [k for k, (a, c) in enumerate(zip(lhs, difference)) if a or c]
    part, sums = 0, {}
    for k, row in zip(used, table.rows(cone, w, used)):
        part += difference[k] * row.get(degree, 0)
        if lhs[k]:
            for d, c in row.items():  # in ascending degree
                if d > degree:
                    break
                sums[d] = sums.get(d, 0) + lhs[k] * c
    left = [(d, c) for d, c in sums.items() if c]
    # ways[n]: the ways to write n as a sum of ray degrees
    ways = [1] + [0] * (degree - min((d for d, _ in left), default=degree))
    for a in (dot(w, v) for v in cone.rays):
        for n in range(a, len(ways)):
            ways[n] += ways[n - a]
    total = sum(c * ways[degree - d] for d, c in left)
    return {"kind": "disagreement", "degree": degree, "lhs": total, "rhs": total - part}


@dataclass
class ColonReport:
    """Result of the degreewise colon-ideal consistency scan."""

    bound: int
    grading: Vector
    points_scanned: int
    members: int
    product_checks: int
    witnesses: dict
    violations: list

    @property
    def consistent(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "bound": self.bound,
            "points_scanned": self.points_scanned,
            "members": self.members,
            "product_checks": self.product_checks,
            "witnesses": sorted(
                (list(a), {"facet": wdata["facet"], "ideal_point": list(wdata["ideal_point"])})
                for a, wdata in self.witnesses.items()
            ),
            "violations": [
                {k: (list(v) if isinstance(v, tuple) else v) for k, v in item.items()}
                for item in self.violations
            ],
        }


def verify_colon_identity(selection: FacetSelection, bound: int = 6, grading=None) -> ColonReport:
    """Degreewise scan of the colon-ideal description of one reciprocal side.

    For every cone point ``a`` up to the bound: if ``a`` lies in the
    complement-side domain, adding any selected-side domain point ``b`` up to
    the bound must land in the cone's interior, that is, min f(a) + min f(b)
    > 0 for every facet f, the minima over all such a and over all such b.
    This always holds (f >= 0 on the cone, f(a) > 0 on the unselected facets,
    f(b) > 0 on the selected ones); a failure raises InvariantViolation.
    Otherwise ``a`` sits on some unselected facet, and the first point, in
    (degree, lex) order, on that facet alone is a witness whose sum with
    ``a`` stays on the facet.  One scan to degree 3 * bound finds each
    facet's witness; a facet with none signals a bound too small, not a
    mathematical failure."""
    cone = selection.cone
    w = _grading(cone, grading)
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    points = _cone_points(cone, w, bound)
    selected = selection.selected
    complement = selection.complement
    ideal_points = [
        p for p in points if all(cone.facets[i](p) > 0 for i in selected)
    ]
    member_points = []
    witnesses = {}
    interior_points = {}
    for a in points:
        if all(cone.facets[i](a) > 0 for i in complement):
            member_points.append(a)
        else:
            facet_index = next(i for i in sorted(complement) if cone.facets[i](a) == 0)
            if not interior_points:
                # a cone point on one facet alone is in its relative interior
                for p in _cone_points(cone, w, 3 * bound):
                    on = [i for i, v in enumerate(cone.facet_values(p)) if v == 0]
                    if len(on) == 1:
                        interior_points.setdefault(on[0], p)
            b = interior_points.get(facet_index)
            if b is None:
                raise WitnessSearchExhausted(
                    f"no relative-interior point on facet {facet_index} up to degree {3 * bound}"
                )
            if not all(cone.facets[i](b) > 0 for i in selected):
                raise InvariantViolation(f"colon witness {b} lies on a selected facet")
            s = vadd(a, b)
            if cone.facets[facet_index](s) != 0:
                raise InvariantViolation(f"colon witness sum {s} leaves facet {facet_index}")
            witnesses[a] = {"facet": facet_index, "ideal_point": b, "sum": s}
    members = len(member_points)
    if members and ideal_points and any(
        min(map(f, member_points)) + min(map(f, ideal_points)) <= 0 for f in cone.facets
    ):
        raise InvariantViolation("a member plus an ideal point leaves the cone's interior")
    return ColonReport(bound, w, len(points), members, members * len(ideal_points), witnesses, [])

"""Strict linear separation and line shellings of cross-section polytopes.

A selection's signed cone {x : f_i.x >= 0 on the selected facets, <= 0 on
the others} is full-dimensional exactly when the strict system is feasible,
and the sum of its extreme rays is then a primitive lattice witness.  The
rays come from one double-description pass over the signed facet rows, or
from the cone's facet arrangement, which each cone keeps as a private memo:
the signed cone is pointed, since the facet covectors span the space, so its
extreme rays are exactly the arrangement's 1-D flats, taken with either
sign, whose sign vectors are conformal to the selection's (Bjorner-Las
Vergnas-Sturmfels-White-Ziegler, *Oriented Matroids*, 1999): two mask tests
per flat, and the signed cone is full-dimensional exactly when their
supports cover every facet.  Listing the flats takes C(n, d - 1) kernels
and sign vectors for n facets, far more than one pass once n grows, so a
cone makes passes until they have cost about as much as the listing, and
only then lists its flats.
A cone with a few facets lists them on its first selection; one selection of
a many-facet cone costs one pass.  Shellings order the facets of the
cross-section polytope by crossing times of an oriented generic line
(Bruggesser-Mani, Math. Scand. 29, 1971), compared on integers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm

from .geometry import (
    Cone,
    FacetSelection,
    InvariantViolation,
    Vector,
    bitmask,
    common_denominator,
    default_grading,
    dot,
    extreme_rays,
    integer_kernel,
    primitive,
    rank_over_field,
)

# Listing a cone's flats tries C(n, d - 1) subsets of its n facets, each by
# one kernel line of d - 1 rows and n sign tests; the line is weighed as
# d^3 / 2 sign tests, which made the listing 0.2-0.5 microseconds a test on
# cones of 4 to 40 facets in R^3..R^5 when each line took d minors.  One
# double-description pass over the signed rows was worth 80-550 tests there.
PASS_TESTS = 300
# Sign tests above which a cone never lists its flats, however many
# selections it serves: about a second, and up to C(n, d - 1) flats held.
ARRANGEMENT_LIMIT = 2_000_000


class DegeneratePoint(ValueError):
    """Steering point on a facet hyperplane, or tied / missing crossings."""


@dataclass(frozen=True)
class SeparationResult:
    separable: bool
    witness: Vector | None = None


def _cofactor_line(rows) -> Vector:
    """A vector spanning the kernel of d - 1 integer rows of length d, or
    the zero vector when the rows are dependent: in R^3 the cross product,
    and above it the one kernel basis vector of ``integer_kernel``, one
    fraction-free elimination of the rows."""
    if len(rows) == 2:
        (a0, a1, a2), (b0, b1, b2) = rows
        return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)
    basis = integer_kernel(rows, len(rows) + 1)
    return basis[0] if len(basis) == 1 else (0,) * (len(rows) + 1)


def _flats(cone: Cone) -> tuple[tuple[Vector, int, int], ...]:
    """The 1-D flats of the facet arrangement, each once, as (u, positive,
    negative): a primitive direction u of the flat and the bitmasks of the
    facets positive and negative on it.

    A flat is the kernel of d - 1 independent facet covectors, so each
    (d - 1)-subset is tried by ``_cofactor_line``; its zero mask, the facets
    through the flat, tells repeats apart."""
    normals = [f.coeffs for f in cone.facets]
    full = (1 << len(normals)) - 1
    flats = {}
    for subset in combinations(normals, cone.dim - 1):
        u = _cofactor_line(subset)
        if not any(u):
            continue
        positive = negative = 0
        for bit, normal in enumerate(normals):
            value = dot(normal, u)
            if value > 0:
                positive |= 1 << bit
            elif value < 0:
                negative |= 1 << bit
        flats.setdefault(full ^ (positive | negative), (primitive(u), positive, negative))
    return tuple(flats.values())


def _centroid(cone: Cone, w):
    """The cross-section centroid as C / N, C an integer vector and N > 0.

    With the ray heights h = w.r and L their least common multiple, the
    cross-section vertex r / h is r.(L / h) / L, so the n vertices average to
    C / (n.L) with C the sum of the r.(L / h)."""
    heights = [dot(w, r) for r in cone.rays]
    big = lcm(*heights)
    total = tuple(
        sum(r[i] * (big // h) for r, h in zip(cone.rays, heights)) for i in range(cone.dim)
    )
    return total, len(cone.rays) * big


class _Arrangement:
    """One cone's facet arrangement, kept on the cone as ``_arrangement``:
    the cost ``tests`` of listing the 1-D flats of :func:`_flats`, in sign
    tests, the flats once listed and, from the first shelling on, the frame
    of its shellings: the default grading, the cross-section centroid (C, N)
    and the facet values f_i.C there.

    The flats are listed on the selection at which ``PASS_TESTS`` per
    double-description pass made on the cone, this one included, reach
    ``tests``, and never above ``ARRANGEMENT_LIMIT``.  Nothing else is changed
    after it is set, so threads share it without a lock: two threads that
    list the flats at once build equal values and one is kept, and a pass
    count lost to a race only delays the listing."""

    __slots__ = ("tests", "passes", "_flats", "_frame")

    def __init__(self, cone: Cone):
        n, d = len(cone.facets), cone.dim
        self.tests = comb(n, d - 1) * (n + d**3 // 2)
        self.passes = 0
        self._flats = self._frame = None

    def frame(self, cone: Cone):
        """The shelling frame (w, (C, N), f_i.C), made on first use."""
        frame = self._frame
        if frame is None:
            w = default_grading(cone)
            centroid = _centroid(cone, w)
            frame = self._frame = (w, centroid, tuple(f(centroid[0]) for f in cone.facets))
        return frame

    def flats(self, cone: Cone):
        """The flats, or None while a double-description pass is the cheaper
        way to this selection's extreme rays; a None counts one pass."""
        flats = self._flats
        if flats is None:
            if self.tests > min(ARRANGEMENT_LIMIT, PASS_TESTS * (self.passes + 1)):
                self.passes += 1
                return None
            flats = self._flats = _flats(cone)
        return flats


def _arrangement(cone: Cone) -> _Arrangement:
    """The cone's arrangement memo, made on first use and kept on the cone."""
    memo = cone._arrangement
    if memo is None:
        memo = _Arrangement(cone)
        object.__setattr__(cone, "_arrangement", memo)
    return memo


def separation_witness(selection: FacetSelection) -> SeparationResult:
    """Strict feasibility of: positive on selected facets, negative on the rest.

    The signed covectors cut out a pointed cone C that has a strictly feasible
    point exactly when every row is positive on one of its extreme rays: a
    row nonnegative on each ray and zero on not all of them is positive on
    their sum, and a row zero on every ray is zero on C.  That sum, made
    primitive, is then the witness, and it is re-verified against every
    facet covector.  The extreme rays are the flats u (or -u) of the
    arrangement positive only on selected facets and negative only on the
    others, and a row is positive on such a flat exactly when its facet is
    in the flat's support (positive | negative mask), so on listed flats the
    test is that their supports cover every facet.  Before the cone has
    listed its flats, the rays come from one double-description pass over
    the signed rows, and the test is that they span the space."""
    cone = selection.cone
    flats = _arrangement(cone).flats(cone)
    if flats is None:
        rows = [
            f.coeffs if i in selection.selected else tuple(-a for a in f.coeffs)
            for i, f in enumerate(cone.facets)
        ]
        lineality, rays = extreme_rays([], rows, cone.dim)
        rays = lineality + rays
        # C is never (d - 1)-dimensional.  The rows vanishing on such a C
        # would all be multiples of one covector a.  Were they all positive
        # multiples, a small step from a relative-interior point of C along
        # some v with a.v > 0 would stay in C and make them positive.  So two
        # of them would be opposite primitive rows, f_i = +-f_j, and no two
        # facets of a full-dimensional pointed cone are.  The rank is d, or
        # at most d - 2.
        if len(rays) < cone.dim or rank_over_field(rays) < cone.dim:
            return SeparationResult(False)
    else:
        full = (1 << len(cone.facets)) - 1
        selected = bitmask(selection.selected)
        others = full ^ selected
        rays, support = [], 0
        for u, positive, negative in flats:
            if not (positive & others or negative & selected):
                rays.append(u)
            elif not (positive & selected or negative & others):
                rays.append(tuple(-a for a in u))
            else:
                continue
            support |= positive | negative
        if support != full:
            return SeparationResult(False)
    point = primitive(tuple(map(sum, zip(*rays))))
    for i, facet in enumerate(cone.facets):
        value = facet(point)
        if not (value > 0 if i in selection.selected else value < 0):
            raise InvariantViolation(f"the separation witness has the wrong sign on facet {i}")
    return SeparationResult(True, point)


@dataclass(frozen=True)
class ShellingOrder:
    """Facet permutation from a line shelling plus the steering point used."""

    order: tuple[int, ...]
    source_point: tuple[Fraction, ...]


def line_shelling(cone: Cone, point) -> ShellingOrder:
    """Order the facets by oriented crossing times of the line from the
    cross-section centroid toward ``point``.

    Hyperplanes crossed on the outgoing half of the line come first, in
    crossing order; the rest follow in the order the returning half meets
    them.  Raises DegeneratePoint for a steering point on a facet hyperplane,
    a vanishing direction, a line parallel to some facet, or tied crossings;
    callers are expected to retry with a perturbed point.  A point of the
    wrong length raises a plain ValueError.

    The point x = P / D and the centroid C / N are held as integer rows, so
    every facet product is an integer.  For w.P = 0 the line runs from the
    centroid along x, and for w.P != 0 from the centroid to the projected
    point P / (w.P), along U = N.P - (w.P).C up to the factor 1 / ((w.P).N),
    so f_i.U = N (f_i.P) - (w.P)(f_i.C) with f_i.C kept on the cone.  Facet i
    is crossed at time -(f_i.C) / (f_i.U) times one factor that has the sign
    of w.P (positive for w.P = 0), and f_i.C > 0 at the interior centroid.
    So the sign of f_i.U picks the half of the line, and within a half the
    times are ordered, and tied, as the integers (f_i.C) L / |f_i.U|, with L
    the lcm of the |f_i.U|.  Only the reported source point is made of
    fractions."""
    pt = tuple(Fraction(a) for a in point)
    if len(pt) != cone.dim:
        raise ValueError(f"point has {len(pt)} coordinates, the cone has dimension {cone.dim}")
    den, (row,) = common_denominator([pt])
    return _line_shelling(cone, den, row)


def _line_shelling(cone: Cone, den: int, row) -> ShellingOrder:
    """``line_shelling`` at the point x = row / den, given as an integer row
    over the least denominator den > 0."""
    values = [dot(f.coeffs, row) for f in cone.facets]
    if not all(values):
        raise DegeneratePoint("point lies on a facet hyperplane")
    w, (centroid, scale), at_centroid = _arrangement(cone).frame(cone)
    wp = dot(w, row)
    if wp == 0:
        direction, along = row, values
        source = tuple(Fraction(c * den + a * scale, scale * den) for c, a in zip(centroid, row))
    else:
        source = tuple(Fraction(a, wp) for a in row)
        direction = tuple(scale * a - wp * c for a, c in zip(row, centroid))
        along = [scale * v - wp * h for v, h in zip(values, at_centroid)]
    if not any(direction):
        raise DegeneratePoint("point projects onto the centroid")
    if not all(along):
        raise DegeneratePoint(f"line is parallel to facet {along.index(0)}")
    big = lcm(*along)
    # the outgoing half first, by ascending time, then the returning half
    # by descending time
    keys = []
    for height, value in zip(at_centroid, along):
        key = height * (big // abs(value))
        keys.append((0, key) if (value > 0) == (wp < 0) else (1, -key))
    if len(set(keys)) < len(keys):
        raise DegeneratePoint("two facet hyperplanes crossed simultaneously")
    return ShellingOrder(tuple(sorted(range(len(keys)), key=keys.__getitem__)), source)


def is_shelling_prefix(selection: FacetSelection, shelling: ShellingOrder) -> bool:
    """True when the selected facets are exactly an initial segment."""
    k = len(selection.selected)
    return set(shelling.order[:k]) == set(selection.selected)


def shelling_through_witness(selection: FacetSelection, witness) -> ShellingOrder:
    """Line shelling whose initial segment is the selected facet set.

    The line through the cross-section centroid and the projected witness
    meets the selected facets' hyperplanes on one side and the others on the
    opposite side, so one of the two orientations starts with the selected
    group.  Degenerate lines are retried with shrinking seeded offsets that
    keep the witness sign pattern.  Candidates and steering points are
    integer rows over a positive denominator, and each steering point is
    reduced to its least denominator, the one ``line_shelling`` finds; an
    integer witness is its own row over 1."""
    cone = selection.cone
    w, (centroid, scale), _ = _arrangement(cone).frame(cone)
    base_den, (base,) = common_denominator([tuple(witness)])
    for attempt in range(32):
        if attempt == 0:
            den, row = base_den, base
        else:
            # the witness plus (k_i / 97) / 2^(attempt + 4), k_i seeded in 1..97
            rng = random.Random(attempt)
            step = 97 << (attempt + 4)
            den = base_den * step
            row = tuple(b * step + base_den * rng.randint(1, 97) for b in base)
            values = [dot(f.coeffs, row) for f in cone.facets]
            if not all(v and (v > 0) == (i in selection.selected) for i, v in enumerate(values)):
                continue
        # the steering point, with the candidate x = P / D and the centroid C / N
        wp = dot(w, row)
        if wp < 0:
            steer = _reduced(-wp, [-a for a in row])
        elif wp > 0:
            # twice the centroid minus the projected point P / (w.P)
            steer = _reduced(scale * wp, [2 * c * wp - a * scale for c, a in zip(centroid, row)])
        else:
            steer = _reduced(scale * den, [c * den - a * scale for c, a in zip(centroid, row)])
        try:
            shelling = _line_shelling(cone, *steer)
        except DegeneratePoint:
            continue
        if not is_shelling_prefix(selection, shelling):
            raise InvariantViolation("the witness shelling does not start with the selection")
        return shelling
    raise DegeneratePoint("no generic steering point found for the witness")


def _reduced(den: int, row) -> tuple[int, tuple[int, ...]]:
    """The point row / den, den > 0, over its least denominator."""
    g = gcd(den, *row)
    return den // g, tuple(a // g for a in row)

"""Strict linear separation and line shellings of cross-section polytopes.

Separation is decided on the integer double-description kernel: the selected
facet covectors, with the others negated, cut out a cone that is
full-dimensional exactly when the strict system is feasible, and the sum of
its extreme rays is then a primitive lattice witness.  Shellings order the
facets of the cross-section polytope by crossing times of an oriented generic
line.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .geometry import (
    Cone,
    FacetSelection,
    InvariantViolation,
    Vector,
    common_denominator,
    default_grading,
    dot,
    extreme_rays,
    primitive,
    rank_over_field,
)


class DegeneratePoint(ValueError):
    """Steering point on a facet hyperplane, or tied / missing crossings."""


@dataclass(frozen=True)
class SeparationResult:
    separable: bool
    witness: Vector | None = None


def separation_witness(selection: FacetSelection) -> SeparationResult:
    """Strict feasibility of: positive on selected facets, negative on the rest.

    The signed covectors cut out a cone C that has a strictly feasible point
    exactly when it is full-dimensional.  Its extreme rays then span the
    space, so every row, nonnegative on each ray and zero on not all of them,
    is positive on their sum: that sum, made primitive, is the witness.  It is
    re-verified against every facet covector."""
    cone = selection.cone
    rows = [
        f.coeffs if i in selection.selected else tuple(-a for a in f.coeffs)
        for i, f in enumerate(cone.facets)
    ]
    lineality, rays = extreme_rays([], rows, cone.dim)
    # C is never (d - 1)-dimensional.  The rows vanishing on such a C would
    # all be multiples of one covector a.  Were they all positive multiples,
    # a small step from a relative-interior point of C along some v with
    # a.v > 0 would stay in C and make them positive.  So two of them would
    # be opposite primitive rows, f_i = +-f_j, and no two facets of a
    # full-dimensional pointed cone are.  The rank is d, or at most d - 2.
    if rank_over_field(lineality + rays) < cone.dim:
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
    every facet product is an integer; only the crossing times are
    fractions.  For w.P = 0 the line runs from the centroid along x, and for
    w.P != 0 from the centroid to the projected point P / (w.P), along
    U = N.P - (w.P).C up to the factor 1 / ((w.P).N)."""
    pt = tuple(Fraction(a) for a in point)
    if len(pt) != cone.dim:
        raise ValueError(f"point has {len(pt)} coordinates, the cone has dimension {cone.dim}")
    den, (row,) = common_denominator([pt])
    for facet in cone.facets:
        if dot(facet.coeffs, row) == 0:
            raise DegeneratePoint("point lies on a facet hyperplane")
    w = default_grading(cone)
    centroid, scale = _centroid(cone, w)
    wp = dot(w, row)
    if wp == 0:
        direction = row
        source = tuple(Fraction(c * den + a * scale, scale * den) for c, a in zip(centroid, row))
        # time -(f.C / N) / (f.P / D)
        factor, divisor = den, scale
    else:
        source = tuple(Fraction(a, wp) for a in row)
        direction = tuple(scale * a - wp * c for a, c in zip(row, centroid))
        # time -(f.C / N) / (f.U / ((w.P).N))
        factor, divisor = wp, 1
    if not any(direction):
        raise DegeneratePoint("point projects onto the centroid")
    times = []
    for idx, facet in enumerate(cone.facets):
        at_centroid = dot(facet.coeffs, centroid)  # interior, hence positive
        along = dot(facet.coeffs, direction)
        if along == 0:
            raise DegeneratePoint(f"line is parallel to facet {idx}")
        times.append((Fraction(-at_centroid * factor, along * divisor), idx))
    if len({t for t, _ in times}) < len(times):
        raise DegeneratePoint("two facet hyperplanes crossed simultaneously")
    outgoing = sorted((t, i) for t, i in times if t > 0)
    returning = sorted((t, i) for t, i in times if t < 0)
    order = tuple(i for _, i in outgoing) + tuple(i for _, i in returning)
    return ShellingOrder(order, source)


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
    keep the witness sign pattern."""
    cone = selection.cone
    w = default_grading(cone)
    centroid, scale = _centroid(cone, w)
    base = tuple(Fraction(a) for a in witness)
    for attempt in range(32):
        if attempt == 0:
            candidate = base
        else:
            rng = random.Random(attempt)
            eps = Fraction(1, 2 ** (attempt + 4))
            candidate = tuple(b + eps * Fraction(rng.randint(1, 97), 97) for b in base)
        den, (row,) = common_denominator([candidate])
        if attempt:
            values = [dot(f.coeffs, row) for f in cone.facets]
            if not all(v and (v > 0) == (i in selection.selected) for i, v in enumerate(values)):
                continue
        # the steering point, with the candidate x = P / D and the centroid C / N
        wp = dot(w, row)
        if wp < 0:
            steer = tuple(Fraction(a, wp) for a in row)
        elif wp > 0:
            # twice the centroid minus the projected point P / (w.P)
            steer = tuple(Fraction(2 * c * wp - a * scale, scale * wp) for c, a in zip(centroid, row))
        else:
            steer = tuple(Fraction(c * den - a * scale, scale * den) for c, a in zip(centroid, row))
        try:
            shelling = line_shelling(cone, steer)
        except DegeneratePoint:
            continue
        if not is_shelling_prefix(selection, shelling):
            raise InvariantViolation("the witness shelling does not start with the selection")
        return shelling
    raise DegeneratePoint("no generic steering point found for the witness")

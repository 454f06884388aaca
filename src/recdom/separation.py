"""Strict linear separation and line shellings of cross-section polytopes.

Separation witnesses come from exact Fourier-Motzkin elimination on the
homogeneous strict system; shellings order the facets of the cross-section
polytope by crossing times of an oriented generic line.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .geometry import Cone, FacetSelection, InvariantViolation, default_grading, dot


class DegeneratePoint(ValueError):
    """Steering point on a facet hyperplane, or tied / missing crossings."""


@dataclass(frozen=True)
class SeparationResult:
    separable: bool
    witness: tuple[Fraction, ...] | None = None


def separation_witness(selection: FacetSelection) -> SeparationResult:
    """Strict feasibility of: positive on selected facets, negative on the rest.

    Decided by Fourier-Motzkin elimination over exact rationals; a returned
    witness is re-verified against every facet covector."""
    cone = selection.cone
    rows = []
    for i, facet in enumerate(cone.facets):
        coeffs = facet.coeffs if i in selection.selected else tuple(-a for a in facet.coeffs)
        rows.append(tuple(Fraction(a) for a in coeffs))
    point = _strict_feasible_point(rows, cone.dim)
    if point is None:
        return SeparationResult(False)
    for i, facet in enumerate(cone.facets):
        value = facet(point)
        if not (value > 0 if i in selection.selected else value < 0):
            raise InvariantViolation(f"the separation witness has the wrong sign on facet {i}")
    return SeparationResult(True, point)


def _strict_feasible_point(rows, dim):
    """A point with r.x > 0 for every row, or None if there is none.

    Variables are eliminated from the last coordinate down.  Every inequality
    here is strict, and positive-negative combinations of strict inequalities
    stay strict, so a derived all-zero row reads 0 > 0 and kills the system.
    Back substitution walks the stages in reverse, picking interval midpoints
    (or a unit step off a one-sided bound)."""
    stages = [list(rows)]
    system = list(rows)
    for var in range(dim - 1, 0, -1):
        positive = [r for r in system if r[var] > 0]
        negative = [r for r in system if r[var] < 0]
        new = [r for r in system if r[var] == 0]
        for p in positive:
            for n in negative:
                combo = tuple(p[j] * -n[var] + n[j] * p[var] for j in range(dim))
                if all(a == 0 for a in combo):
                    return None
                new.append(combo)
        system = new
        stages.append(system)
    point = [Fraction(0)] * dim
    for var in range(dim):
        lower = None
        upper = None
        for r in stages[dim - 1 - var]:
            c = r[var]
            if c == 0:
                continue
            partial = sum(r[j] * point[j] for j in range(var))
            bound = -partial / c
            if c > 0:
                lower = bound if lower is None else max(lower, bound)
            else:
                upper = bound if upper is None else min(upper, bound)
        if lower is None and upper is None:
            point[var] = Fraction(0)
        elif lower is None:
            point[var] = upper - 1
        elif upper is None:
            point[var] = lower + 1
        elif lower < upper:
            point[var] = (lower + upper) / 2
        else:
            return None  # only reachable while fixing the first variable
    return tuple(point)


@dataclass(frozen=True)
class ShellingOrder:
    """Facet permutation from a line shelling plus the steering point used."""

    order: tuple[int, ...]
    source_point: tuple[Fraction, ...]


def cross_section_vertices(cone: Cone) -> tuple[tuple[Fraction, ...], ...]:
    """Rays scaled onto the hyperplane {w.x = 1} for the default grading w."""
    w = default_grading(cone)
    return tuple(tuple(Fraction(a, dot(w, r)) for a in r) for r in cone.rays)


def line_shelling(cone: Cone, point) -> ShellingOrder:
    """Order the facets by oriented crossing times of the line from the
    cross-section centroid toward ``point``.

    Hyperplanes crossed on the outgoing half of the line come first, in
    crossing order; the rest follow in the order the returning half meets
    them.  Raises DegeneratePoint for a steering point on a facet hyperplane,
    a vanishing direction, a line parallel to some facet, or tied crossings;
    callers are expected to retry with a perturbed point."""
    pt = tuple(Fraction(a) for a in point)
    for facet in cone.facets:
        if dot(facet.coeffs, pt) == 0:
            raise DegeneratePoint("point lies on a facet hyperplane")
    w = default_grading(cone)
    verts = cross_section_vertices(cone)
    centroid = tuple(sum(col) / len(verts) for col in zip(*verts))
    wp = dot(w, pt)
    if wp == 0:
        direction = pt
        source = tuple(c + u for c, u in zip(centroid, direction))
    else:
        source = tuple(a / wp for a in pt)
        direction = tuple(t - c for t, c in zip(source, centroid))
    if all(u == 0 for u in direction):
        raise DegeneratePoint("point projects onto the centroid")
    times = []
    for idx, facet in enumerate(cone.facets):
        at_centroid = dot(facet.coeffs, centroid)  # interior, hence positive
        along = dot(facet.coeffs, direction)
        if along == 0:
            raise DegeneratePoint(f"line is parallel to facet {idx}")
        times.append((-Fraction(at_centroid) / along, idx))
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


def shelling_through_witness(selection: FacetSelection, witness, max_attempts: int = 32) -> ShellingOrder:
    """Line shelling whose initial segment is the selected facet set.

    The line through the cross-section centroid and the projected witness
    meets the selected facets' hyperplanes on one side and the others on the
    opposite side, so one of the two orientations starts with the selected
    group.  Degenerate lines are retried with shrinking seeded offsets that
    keep the witness sign pattern."""
    cone = selection.cone
    verts = cross_section_vertices(cone)
    centroid = tuple(sum(col) / len(verts) for col in zip(*verts))
    w = default_grading(cone)
    base = tuple(Fraction(a) for a in witness)
    for attempt in range(max_attempts):
        if attempt == 0:
            candidate = base
        else:
            rng = random.Random(attempt)
            eps = Fraction(1, 2 ** (attempt + 4))
            candidate = tuple(b + eps * Fraction(rng.randint(1, 97), 97) for b in base)
            pattern_ok = all(
                (cone.facets[i](candidate) > 0) == (i in selection.selected)
                and cone.facets[i](candidate) != 0
                for i in range(len(cone.facets))
            )
            if not pattern_ok:
                continue
        wp = dot(w, candidate)
        if wp < 0:
            steer = tuple(a / wp for a in candidate)
        elif wp > 0:
            projected = tuple(a / wp for a in candidate)
            steer = tuple(2 * c - p for c, p in zip(centroid, projected))
        else:
            steer = tuple(c - a for c, a in zip(centroid, candidate))
        try:
            shelling = line_shelling(cone, steer)
        except DegeneratePoint:
            continue
        if not is_shelling_prefix(selection, shelling):
            raise InvariantViolation("the witness shelling does not start with the selection")
        return shelling
    raise DegeneratePoint("no generic steering point found for the witness")

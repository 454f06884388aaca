"""Programmatic acceptance checks, shared by the CLI corpus runner and tests.

Each criterion function returns (passed, details).  Everything is exact; the
only tolerance anywhere is a wall-clock budget on the oracle-equivalence
sweep.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import corpus
from .enumerator import (
    COMPLEMENT,
    SELECTED,
    DomainSpec,
    FacetSelection,
    LaurentPoly,
    RationalGF,
    default_grading,
    domain_gf,
    expand,
    gf_equal,
    gf_scale,
    invert_variables,
    lattice_points,
    reciprocity_check,
    specialize,
    verify_colon_identity,
)
from .geometry import GF2, QQ, InvariantViolation
from .lifting import (
    lift,
    lift_height,
    support_measure,
    verify_embedding,
    verify_lower_hull,
)
from .separation import (
    is_shelling_prefix,
    separation_witness,
    shelling_through_witness,
)
from .topology import (
    SimplicialComplex,
    barycentric,
    boundary_inequality_check,
    boundary_subcomplex,
    is_cohen_macaulay,
    recognize_ball_sphere,
    reduced_homology,
    simplicial_as_polyhedral,
)


@dataclass
class CriterionResult:
    name: str
    passed: bool
    details: dict


def _selections(cone, max_size=None):
    n = len(cone.facets)
    top = n - 1 if max_size is None else min(max_size, n - 1)
    for size in range(1, top + 1):
        for subset in combinations(range(n), size):
            yield FacetSelection(cone, frozenset(subset))


def _facet_by_coeffs(cone, coeffs):
    for i, f in enumerate(cone.facets):
        if f.coeffs == tuple(coeffs):
            return i
    raise KeyError(coeffs)


def _univariate(terms, denominator_count) -> RationalGF:
    return RationalGF(
        LaurentPoly({(e,): c for e, c in terms.items()}),
        tuple((1,) for _ in range(denominator_count)),
    )


def criterion_1() -> CriterionResult:
    """Reciprocity holds on the quadrant and the adjacent square-cone pair."""
    details = {}
    ok = True

    quadrant = corpus.quadrant()
    sel = FacetSelection(quadrant, frozenset({_facet_by_coeffs(quadrant, (0, 1))}))
    g = domain_gf(DomainSpec(sel, SELECTED))
    g_comp = domain_gf(DomainSpec(sel, COMPLEMENT))
    lhs = invert_variables(g_comp)
    rhs = gf_scale(g, (-1) ** 2)
    expected = RationalGF(LaurentPoly({(0, 1): 1}), ((0, 1), (1, 0)))
    quadrant_ok = (
        gf_equal(lhs, rhs)
        and lhs.numerator == rhs.numerator
        and gf_equal(g, expected)
        and g.numerator.terms == {(0, 1): 1}
        and g.denom_rays == ((0, 1), (1, 0))
        and reciprocity_check(sel).holds
    )
    details["quadrant"] = {"holds": quadrant_ok, "numerator": sorted(g.numerator.terms)}
    ok = ok and quadrant_ok

    square = corpus.square_cone()
    adjacent = FacetSelection(square, corpus.facet_pairs_sharing_a_ray(square)[0])
    report = reciprocity_check(adjacent)
    g_adj = domain_gf(DomainSpec(adjacent, SELECTED))
    g_adj_comp = domain_gf(DomainSpec(adjacent, COMPLEMENT))
    weights = (0, 0, 1)
    target = _univariate({1: 1, 2: 1}, 3)  # t(1+t)/(1-t)^3
    fitted = expand(specialize(g_adj, weights), (1,), 10).coeffs == {
        (n,): n * n for n in range(1, 11)
    }
    square_ok = (
        report.holds
        and gf_equal(specialize(g_adj, weights), target)
        and gf_equal(specialize(g_adj_comp, weights), target)
        and fitted
    )
    details["square-adjacent"] = {"holds": report.holds, "series-fit": fitted}
    ok = ok and square_ok
    return CriterionResult("1 reciprocity positive", ok, details)


def criterion_2() -> CriterionResult:
    """Reciprocity fails on the opposite square-cone pair, which is not CM."""
    square = corpus.square_cone()
    opposite = FacetSelection(square, corpus.facet_pairs_sharing_no_ray(square)[0])
    report = reciprocity_check(opposite)
    cross = barycentric(boundary_subcomplex(opposite))
    cm_q = is_cohen_macaulay(cross, QQ)
    cm_f2 = is_cohen_macaulay(cross, GF2)
    weights = (0, 0, 1)
    g = specialize(domain_gf(DomainSpec(opposite, SELECTED)), weights)
    g_comp = specialize(domain_gf(DomainSpec(opposite, COMPLEMENT)), weights)
    counts = expand(g, (1,), 10).coeffs == {(n,): n * n - 1 for n in range(2, 11)}
    counts_comp = expand(g_comp, (1,), 10).coeffs == {(n,): n * n - 1 for n in range(2, 11)}
    lhs = invert_variables(g_comp)
    ok = (
        not report.holds
        and not report.cm_over["Q"]
        and not report.cm_over["F2"]
        and cm_q.failing_face == () == cm_f2.failing_face
        and cm_q.failing_index == 0 == cm_f2.failing_index
        and cm_q.failing_betti == 1 == cm_f2.failing_betti
        and counts
        and counts_comp
        and gf_equal(g, _univariate({2: 3, 3: -1}, 3))       # (3t^2 - t^3)/(1-t)^3
        and gf_equal(lhs, _univariate({0: 1, 1: -3}, 3))     # -(3t - 1)/(1-t)^3
        and not gf_equal(lhs, gf_scale(g, -1))
    )
    details = {"holds": report.holds, "cm": report.cm_over, "witness": report.witness}
    return CriterionResult("2 reciprocity negative", ok, details)


def criterion_3(seed: int = 0, bound: int = 8) -> CriterionResult:
    """expand(domain_gf) matches the lattice-point scan on the whole corpus."""
    start = time.monotonic()
    checked = 0
    failures = []
    for name, cone in corpus.corpus_cones(seed).items():
        w = default_grading(cone)
        for selection in _selections(cone, max_size=2):
            for side in (SELECTED, COMPLEMENT):
                spec = DomainSpec(selection, side)
                direct = lattice_points(spec, w, bound)
                series = expand(domain_gf(spec), w, bound)
                checked += 1
                if direct.coeffs != series.coeffs:
                    failures.append((name, sorted(selection.selected), side))
    elapsed = time.monotonic() - start
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.2f} s, limit 10 s")
    return CriterionResult(
        "3 oracle equivalence", not failures, {"checked": checked, "failures": failures}
    )


def criterion_4() -> CriterionResult:
    """Cohen-Macaulayness of the projective plane depends on the field."""
    rp2 = corpus.projective_plane()
    over_q = is_cohen_macaulay(rp2, QQ)
    over_f2 = is_cohen_macaulay(rp2, GF2)
    ok = (
        over_q.is_cm
        and not over_f2.is_cm
        and over_f2.failing_face == ()
        and over_f2.failing_index == 1
        and over_f2.failing_betti == 1
    )
    return CriterionResult(
        "4 CM field dependence",
        ok,
        {"Q": over_q.is_cm, "F2": (over_f2.is_cm, over_f2.failing_face, over_f2.failing_betti)},
    )


def _as_simplicial(pc) -> SimplicialComplex:
    if any(len(c.vertices) != c.dim + 1 for c in pc.cells):
        raise InvariantViolation("a subdivision cell is not a simplex")
    return SimplicialComplex.from_faces(
        len(pc.vertices), [c.vertices for c in pc.maximal_cells()]
    )


def criterion_5(seed: int = 0) -> CriterionResult:
    """witness => shelling prefix => ball => CM => reciprocity, end to end."""
    separable = 0
    inseparable = 0
    failures = []
    for name, cone in corpus.corpus_cones(seed).items():
        for selection in _selections(cone):
            result = separation_witness(selection)
            if not result.separable:
                inseparable += 1
                continue
            separable += 1
            shelling = shelling_through_witness(selection, result.witness)
            cross = boundary_subcomplex(selection)
            shape = recognize_ball_sphere(_as_simplicial(cross))
            cm = all(
                is_cohen_macaulay(barycentric(cross), f).is_cm for f in (QQ, GF2)
            )
            holds = reciprocity_check(selection).holds
            if not (
                is_shelling_prefix(selection, shelling)
                and shape == "ball"
                and cm
                and holds
            ):
                failures.append((name, sorted(selection.selected)))
    square = corpus.square_cone()
    opposite = FacetSelection(square, corpus.facet_pairs_sharing_no_ray(square)[0])
    opposite_infeasible = not separation_witness(opposite).separable
    ok = not failures and opposite_infeasible and separable > 0
    return CriterionResult(
        "5 separation chain",
        ok,
        {
            "separable": separable,
            "inseparable": inseparable,
            "opposite_infeasible": opposite_infeasible,
            "failures": failures,
        },
    )


def criterion_6(bound: int = 6) -> CriterionResult:
    """Colon-ideal scan: no violations, witnesses for every outside point."""
    instances = []
    quadrant = corpus.quadrant()
    instances.append(("quadrant", FacetSelection(quadrant, frozenset({0}))))
    square = corpus.square_cone()
    instances.append(
        ("square-adjacent", FacetSelection(square, corpus.facet_pairs_sharing_a_ray(square)[0]))
    )
    instances.append(
        ("square-opposite", FacetSelection(square, corpus.facet_pairs_sharing_no_ray(square)[0]))
    )
    details = {}
    ok = True
    for name, selection in instances:
        report = verify_colon_identity(selection, bound)
        witnesses_cover = len(report.witnesses) == report.points_scanned - report.members
        ok = ok and report.consistent and witnesses_cover
        details[name] = {
            "points": report.points_scanned,
            "members": report.members,
            "product_checks": report.product_checks,
            "witnesses": len(report.witnesses),
            "violations": len(report.violations),
        }
    return CriterionResult("6 colon identity", ok, details)


def _convexity_probe(result) -> bool:
    rng = random.Random(0)
    cells = [c for c in result.subdivision.maximal_cells()]
    for _ in range(100):
        pts = []
        for _ in range(2):
            cell = cells[rng.randrange(len(cells))]
            weights = [Fraction(rng.randint(1, 9)) for _ in cell.vertices]
            total = sum(weights)
            corners = result.subdivision.cell_points(cell)
            pts.append(
                tuple(
                    sum(w * p[i] for w, p in zip(weights, corners)) / total
                    for i in range(result.subdivision.ambient_dim)
                )
            )
        a, b = pts
        mid = tuple((x + y) / 2 for x, y in zip(a, b))
        f = lambda p: lift_height(result.arrangement, p)
        if 2 * f(mid) > f(a) + f(b):
            return False
    return True


def criterion_7() -> CriterionResult:
    """Lift correctness on the two stated instances."""
    details = {}
    one_d = lift(corpus.two_segments_1d())
    one_d_ok = (
        verify_lower_hull(one_d)
        and one_d.lift_values == (Fraction(6), Fraction(4), Fraction(4), Fraction(6))
        and one_d.max_value == 6
        and len(one_d.subdivision.maximal_cells()) == 2
        and support_measure(one_d.subdivision) == support_measure(corpus.two_segments_1d())
        and one_d.lifted_complex.cells == one_d.subdivision.cells
        and all(
            one_d.lifted_complex.point(i)[:-1] == one_d.subdivision.point(i)
            and one_d.lifted_complex.point(i)[-1] == one_d.lift_values[i]
            for i in range(len(one_d.subdivision.vertices))
        )
        and _convexity_probe(one_d)
    )
    details["segments-1d"] = {
        "values": [str(v) for v in one_d.lift_values],
        "ok": one_d_ok,
    }
    two_d_input = corpus.two_triangles_2d()
    two_d = lift(two_d_input)
    bijection = two_d.lifted_complex.cells == two_d.subdivision.cells
    two_d_ok = (
        verify_embedding(two_d_input)
        and verify_lower_hull(two_d)
        and bijection
        and support_measure(two_d.subdivision) == support_measure(two_d_input)
        and _convexity_probe(two_d)
    )
    details["triangles-2d"] = {"ok": two_d_ok, "pieces": len(two_d.affine_pieces)}
    return CriterionResult("7 lift correctness", one_d_ok and two_d_ok, details)


def criterion_8() -> CriterionResult:
    """Boundary inequality values on the solid torus and the one-tetra ball."""
    torus = corpus.solid_torus()
    torus_report = boundary_inequality_check(torus, QQ)
    ball_report = boundary_inequality_check(corpus.tetrahedron_ball(), QQ)
    ok = (
        (torus_report.h1_complex, torus_report.h1_boundary) == (1, 2)
        and torus_report.holds
        and (ball_report.h1_complex, ball_report.h1_boundary) == (0, 0)
        and ball_report.holds
    )
    return CriterionResult(
        "8 boundary inequality",
        ok,
        {
            "solid-torus": (torus_report.h1_complex, torus_report.h1_boundary),
            "tetra-ball": (ball_report.h1_complex, ball_report.h1_boundary),
        },
    )


def criterion_9() -> CriterionResult:
    """Homology engine consistency and barycentric invariance on the corpus."""
    checked = 0
    failures = []
    for name, sc in corpus.corpus_complexes().items():
        for field in (QQ, GF2):
            profile = reduced_homology(sc, field)  # raises on a negative Betti number
            if sc.dim <= 2:
                again = reduced_homology(barycentric(simplicial_as_polyhedral(sc)), field)
                if profile.betti != again.betti:
                    failures.append((name, field.label))
            checked += 1
    ok = not failures
    return CriterionResult(
        "9 homology engine", ok, {"checked": checked, "failures": failures}
    )


ALL_CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
)


def run_all(seed: int = 0, bound: int = 8) -> list[CriterionResult]:
    results = []
    for fn in ALL_CRITERIA:
        if fn is criterion_3:
            results.append(fn(seed=seed, bound=bound))
        elif fn is criterion_5:
            results.append(fn(seed=seed))
        else:
            results.append(fn())
    return results

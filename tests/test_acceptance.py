"""Acceptance gate: one test per criterion, all exact, printed pass/fail lines.

The heavy lifting lives in recdom.suite (shared with the `recdom corpus`
command); key expected values are additionally frozen here so the criteria
cannot drift silently.
"""

from fractions import Fraction

from recdom import suite
from recdom.corpus import (
    facet_pairs_sharing_a_ray,
    facet_pairs_sharing_no_ray,
    projective_plane,
    quadrant,
    solid_torus,
    square_cone,
    tetrahedron_ball,
    two_segments_1d,
)
from recdom.enumerator import (
    COMPLEMENT,
    SELECTED,
    DomainSpec,
    FacetSelection,
    LaurentPoly,
    RationalGF,
    domain_gf,
    expand,
    gf_equal,
    gf_scale,
    invert_variables,
    reciprocity_check,
    specialize,
    verify_colon_identity,
)
from recdom.geometry import GF2, QQ
from recdom.lifting import lift, verify_lower_hull
from recdom.separation import separation_witness
from recdom.topology import boundary_inequality_check, is_cohen_macaulay


def _report(result):
    status = "PASS" if result.passed else "FAIL"
    print(f"criterion {result.name}: {status}")
    assert result.passed, result.details


def test_criterion_1_reciprocity_positive():
    # quadrant, one selected facet: both sides reduce to y/((1-x)(1-y))
    sel = FacetSelection(quadrant(), frozenset({0}))
    g = domain_gf(DomainSpec(sel, SELECTED))
    g_comp = domain_gf(DomainSpec(sel, COMPLEMENT))
    lhs = invert_variables(g_comp)
    rhs = gf_scale(g, 1)  # (-1)^2
    assert lhs.numerator == rhs.numerator and lhs.denom_rays == rhs.denom_rays
    assert g.numerator.terms == {(0, 1): 1}
    assert g.denom_rays == ((0, 1), (1, 0))
    # square cone, adjacent pair: identity holds, z-specializations fit
    # t(1+t)/(1-t)^3 with coefficients n^2 up to degree 10
    cone = square_cone()
    adjacent = FacetSelection(cone, facet_pairs_sharing_a_ray(cone)[0])
    assert reciprocity_check(adjacent).holds
    target = RationalGF(LaurentPoly({(1,): 1, (2,): 1}), ((1,), (1,), (1,)))
    for side in (SELECTED, COMPLEMENT):
        spec_gf = specialize(domain_gf(DomainSpec(adjacent, side)), (0, 0, 1))
        assert gf_equal(spec_gf, target)
        assert expand(spec_gf, (1,), 10).coeffs == {(n,): n * n for n in range(1, 11)}
    _report(suite.criterion_1())


def test_criterion_2_reciprocity_negative():
    cone = square_cone()
    opposite = FacetSelection(cone, facet_pairs_sharing_no_ray(cone)[0])
    report = reciprocity_check(opposite)
    assert not report.holds
    assert report.cm_over == {"Q": False, "F2": False}
    g = specialize(domain_gf(DomainSpec(opposite, SELECTED)), (0, 0, 1))
    assert expand(g, (1,), 10).coeffs == {(n,): n * n - 1 for n in range(2, 11)}
    assert gf_equal(g, RationalGF(LaurentPoly({(2,): 3, (3,): -1}), ((1,), (1,), (1,))))
    lhs = invert_variables(specialize(domain_gf(DomainSpec(opposite, COMPLEMENT)), (0, 0, 1)))
    assert gf_equal(lhs, RationalGF(LaurentPoly({(0,): 1, (1,): -3}), ((1,), (1,), (1,))))
    assert not gf_equal(lhs, gf_scale(g, -1))
    _report(suite.criterion_2())


def test_criterion_3_oracle_equivalence():
    result = suite.criterion_3()
    # a run over the 10 s limit shows up as a failure entry
    assert result.details["failures"] == []
    assert result.details["checked"] > 100
    _report(result)


def test_criterion_3_names_the_time_over_the_limit(monkeypatch):
    ticks = iter((0.0, 12.5))
    monkeypatch.setattr(suite.time, "monotonic", lambda: next(ticks))
    result = suite.criterion_3(bound=2)
    assert not result.passed
    assert result.details["failures"] == ["took 12.50 s, limit 10 s"]


def test_criterion_4_cm_field_dependence():
    rp2 = projective_plane()
    assert is_cohen_macaulay(rp2, QQ).is_cm
    cert = is_cohen_macaulay(rp2, GF2)
    assert (cert.is_cm, cert.failing_face, cert.failing_index, cert.failing_betti) == (
        False,
        (),
        1,
        1,
    )
    _report(suite.criterion_4())


def test_criterion_5_separation_chain():
    cone = square_cone()
    opposite = FacetSelection(cone, facet_pairs_sharing_no_ray(cone)[0])
    assert not separation_witness(opposite).separable
    result = suite.criterion_5()
    assert result.details["separable"] > 0
    _report(result)


def test_criterion_6_colon_identity():
    sel = FacetSelection(quadrant(), frozenset({0}))
    report = verify_colon_identity(sel, 6)
    assert report.consistent
    assert report.witnesses[(0, 1)]["ideal_point"] == (0, 1)
    _report(suite.criterion_6())


def test_criterion_7_lift_correctness():
    result = lift(two_segments_1d())
    assert result.lift_values == (Fraction(6), Fraction(4), Fraction(4), Fraction(6))
    assert verify_lower_hull(result)
    _report(suite.criterion_7())


def test_criterion_8_boundary_inequality():
    torus = boundary_inequality_check(solid_torus(), QQ)
    assert (torus.h1_complex, torus.h1_boundary) == (1, 2)
    ball = boundary_inequality_check(tetrahedron_ball(), QQ)
    assert (ball.h1_complex, ball.h1_boundary) == (0, 0)
    _report(suite.criterion_8())


def test_criterion_9_homology_engine():
    _report(suite.criterion_9())

"""Enumerator tests: lattice points, generating functions, reciprocity, colon scan."""

import copy
import pickle
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations, compress, product
from math import ceil, floor
from pathlib import Path
from threading import Thread

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from recdom import enumerator, geometry, jsonio, separation, topology
from recdom.corpus import (
    corpus_cones,
    facet_pairs_sharing_a_ray,
    facet_pairs_sharing_no_ray,
    hexagon_cone,
    pentagon_cone,
    quadrant,
    square_cone,
)
from recdom.enumerator import (
    COMPLEMENT,
    BOX_LIMIT,
    SELECTED,
    BadGrading,
    BoxTooLarge,
    DomainSpec,
    FacetSelection,
    LaurentPoly,
    RationalGF,
    ReciprocityReport,
    WitnessSearchExhausted,
    _box_points,
    _numerator_over,
    default_grading,
    domain_gf,
    expand,
    gf_equal,
    gf_scale,
    invert_variables,
    lattice_points,
    reciprocity_check,
    simplicial_gf,
    specialize,
    triangulate,
    verify_colon_identity,
)
from recdom.geometry import (
    GF2,
    QQ,
    Cone,
    FieldSpec,
    InvariantViolation,
    NotFullDimensional,
    dot,
    faces_of,
    vadd,
)
from recdom.topology import barycentric, boundary_subcomplex, cm_on_upper_intervals, is_cohen_macaulay

DATA = Path(__file__).resolve().parents[1] / "data"


def interior_contains(cone, point):
    """Whether the point lies in the cone's interior (an oracle kept from the
    library's former ``Cone.interior_contains``)."""
    return all(f(point) > 0 for f in cone.facets)


def quadrant_selection():
    cone = quadrant()
    # facet 0 carries the covector (0, 1): its zero set is the horizontal ray
    return FacetSelection(cone, frozenset({0}))


def test_selection_validation():
    cone = quadrant()
    with pytest.raises(ValueError):
        FacetSelection(cone, frozenset())
    with pytest.raises(ValueError):
        FacetSelection(cone, frozenset({0, 1}))
    with pytest.raises(ValueError):
        FacetSelection(cone, frozenset({5}))


def test_lattice_points_quadrant_selected():
    spec = DomainSpec(quadrant_selection(), SELECTED)
    series = lattice_points(spec, (1, 1), 3)
    oracle = {
        (x, y)
        for x in range(4)
        for y in range(4)
        if x + y <= 3 and y > 0
    }
    assert set(series.support()) == oracle
    assert series.support() == [(0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (2, 1)]


def test_lattice_points_quadrant_complement():
    spec = DomainSpec(quadrant_selection(), COMPLEMENT)
    series = lattice_points(spec, (1, 1), 2)
    oracle = {(x, y) for x in range(3) for y in range(3) if x + y <= 2 and x > 0}
    assert set(series.support()) == oracle == {(1, 0), (2, 0), (1, 1)}


def test_lattice_points_square_cone_degree_counts():
    cone = square_cone()
    # strict on the two facets whose cross-section edges meet at a corner of
    # the square: x >= 0 and y >= 0, i.e. covectors (1,0,0) and (0,1,0)
    idx = {f.coeffs: i for i, f in enumerate(cone.facets)}
    sel = FacetSelection(cone, frozenset({idx[(1, 0, 0)], idx[(0, 1, 0)]}))
    series = lattice_points(DomainSpec(sel, SELECTED), (0, 0, 1), 2)
    oracle = {
        (x, y, z)
        for z in range(3)
        for x in range(z + 1)
        for y in range(z + 1)
        if x > 0 and y > 0
    }
    assert set(series.support()) == oracle
    assert series.degree_counts() == {1: 1, 2: 4}


def test_lattice_points_bad_grading():
    spec = DomainSpec(quadrant_selection(), SELECTED)
    with pytest.raises(BadGrading):
        lattice_points(spec, (1, -1), 4)
    with pytest.raises(BadGrading):
        lattice_points(spec, (1, 0), 4)


@pytest.mark.parametrize("w", [(1,), (1, 0, 0, 7)], ids=["short", "long"])
def test_wrong_length_grading_is_rejected(w):
    cone = Cone.from_rays([(1, 0, 0), (1, 1, 0), (1, 0, 1)])
    g = domain_gf(DomainSpec(FacetSelection(cone, frozenset({0})), SELECTED))
    message = f"grading length {len(w)} != 3 variables"
    with pytest.raises(BadGrading, match=message):
        expand(g, w, 2)
    with pytest.raises(BadGrading, match=message):
        specialize(g, w)


def oracle_box_points(cone, w, bound):
    """The former degree box: floor and ceil of the rays scaled by the
    Fraction bound / w.r, scanned and filtered by degree."""
    lows = [0] * cone.dim
    highs = [0] * cone.dim
    for r in cone.rays:
        s = Fraction(bound, dot(w, r))
        for i, a in enumerate(r):
            lows[i] = min(lows[i], floor(s * a))
            highs[i] = max(highs[i], ceil(s * a))
    box = product(*(range(lo, hi + 1) for lo, hi in zip(lows, highs)))
    return [pt for pt in box if dot(w, pt) <= bound]


@st.composite
def graded_cones(draw):
    """A pointed cone in R^2 or R^3 with rays of negative coordinates, a
    grading of degree above 1 on most rays, and a bound."""
    d = draw(st.integers(2, 3))
    ray = st.tuples(*[st.integers(-3, 3)] * (d - 1), st.integers(1, 3))
    rays = draw(st.lists(ray, min_size=d, max_size=5, unique=True))
    try:
        cone = Cone.from_rays(rays)
    except NotFullDimensional:
        assume(False)
    w = tuple(draw(st.lists(st.integers(-2, 2), min_size=d - 1, max_size=d - 1))) + (
        draw(st.integers(2, 5)),
    )
    assume(all(dot(w, r) > 0 for r in cone.rays))
    return cone, w, draw(st.integers(0, 7))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(graded_cones())
def test_box_points_match_fraction_box(case):
    cone, w, bound = case
    assert list(_box_points(cone, w, bound)) == oracle_box_points(cone, w, bound)


def test_box_above_the_limit_is_refused():
    spec = DomainSpec(quadrant_selection(), SELECTED)
    with pytest.raises(BoxTooLarge, match=f"of {BOX_LIMIT}"):
        lattice_points(spec, None, 10**8)
    assert issubclass(BoxTooLarge, ValueError)


def test_parallelepiped_at_and_past_the_limit(monkeypatch):
    # generators of determinant 3: the Smith diagonal counts three
    # parallelepiped points before any is made
    generators = ((1, 0), (1, 3))
    monkeypatch.setattr(enumerator, "BOX_LIMIT", 3)
    assert len(simplicial_gf(generators).numerator.terms) == 3
    monkeypatch.setattr(enumerator, "BOX_LIMIT", 2)
    with pytest.raises(BoxTooLarge, match="parallelepiped of 3 points exceeds the limit of 2"):
        simplicial_gf(generators)


def test_default_grading_positive_on_rays():
    for name, cone in corpus_cones().items():
        w = default_grading(cone)
        assert all(dot(w, r) > 0 for r in cone.rays), name


# -- triangulation ------------------------------------------------------------

def test_triangulate_simplicial_identity():
    cone = quadrant()
    pieces = triangulate(cone)
    assert len(pieces) == 1
    assert pieces[0].open_walls == (False, False)
    assert set(pieces[0].generators) == set(cone.rays)


def test_triangulate_square_cone_partition():
    cone = square_cone()
    pieces = triangulate(cone)
    assert len(pieces) == 2
    assert sum(p.open_walls.count(True) for p in pieces) == 1  # one shared wall opened once
    # direct partition check to degree 6 of the z-grading
    for z in range(7):
        cone_pts = {
            (x, y, z)
            for x in range(z + 1)
            for y in range(z + 1)
        }
        covered = []
        for p in cone_pts:
            owners = 0
            for piece in pieces:
                lam = _solve_coeffs(piece.generators, p)
                if lam is None or any(l < 0 for l in lam):
                    continue
                if any(l == 0 and open_ for l, open_ in zip(lam, piece.open_walls)):
                    continue
                owners += 1
            covered.append(owners)
        assert all(c == 1 for c in covered), f"degree {z}"


def _solve_coeffs(generators, point):
    from recdom.geometry import solve_exact

    rows = [[g[i] for g in generators] for i in range(len(point))]
    return solve_exact(rows, point)


def test_triangulation_uses_every_ray():
    for name, cone in corpus_cones().items():
        used = {g for piece in triangulate(cone) for g in piece.generators}
        assert used == set(cone.rays), name


def test_half_open_partition_on_corpus():
    # every cone point of small degree is claimed by exactly one flagged piece
    for name, cone in corpus_cones().items():
        pieces = triangulate(cone)
        w = default_grading(cone)
        bound = 3 * min(dot(w, r) for r in cone.rays)
        from recdom.enumerator import _cone_points

        for p in _cone_points(cone, w, bound):
            owners = 0
            for piece in pieces:
                lam = _solve_coeffs(piece.generators, p)
                if lam is None or any(l < 0 for l in lam):
                    continue
                if any(l == 0 and open_ for l, open_ in zip(lam, piece.open_walls)):
                    continue
                owners += 1
            assert owners == 1, (name, p)


# -- simplicial generating functions -----------------------------------------

def test_simplicial_gf_unimodular_closed():
    gf = simplicial_gf(((1, 0), (0, 1)))
    assert gf.numerator.terms == {(0, 0): 1}
    assert gf.denom_rays == ((0, 1), (1, 0))


def test_simplicial_gf_open_wall():
    # the wall spanned by (1,0) is the one omitting generator (0,1)
    gf = simplicial_gf(((1, 0), (0, 1)), (False, True))
    assert gf.numerator.terms == {(0, 1): 1}


def test_simplicial_gf_parallelepiped():
    gf = simplicial_gf(((1, 0), (1, 2)))
    assert gf.numerator.terms == {(0, 0): 1, (1, 1): 1}
    assert gf.denom_rays == ((1, 0), (1, 2))
    # oracle: count of parallelepiped points equals the determinant
    assert len(gf.numerator.terms) == 2


def test_simplicial_gf_expansion_matches_direct_count():
    # cone spanned by (1,0) and (1,2) is {(x, y) : y >= 0, 2x - y >= 0}
    gf = simplicial_gf(((1, 0), (1, 2)))
    series = expand(gf, (1, 1), 8)
    oracle = {
        (x, y): 1
        for x in range(9)
        for y in range(9)
        if x + y <= 8 and y >= 0 and 2 * x - y >= 0
    }
    assert series.coeffs == oracle


def test_simplicial_gf_rejects_dependent_generators():
    # a zero Smith pivot, more generators than coordinates, a dependent
    # pair in 3-D, and the zero vector
    for generators in (
        ((1, 0), (2, 0)),
        ((1, 0), (0, 1), (1, 1)),
        ((1, 0, 1), (2, 0, 2)),
        ((0, 0, 0),),
    ):
        with pytest.raises(ValueError, match="linearly independent"):
            simplicial_gf(generators)


# -- domain generating functions ----------------------------------------------

def test_domain_gf_quadrant_both_sides():
    sel = quadrant_selection()
    g = domain_gf(DomainSpec(sel, SELECTED))
    assert g.numerator.terms == {(0, 1): 1}
    assert g.denom_rays == ((0, 1), (1, 0))
    g2 = domain_gf(DomainSpec(sel, COMPLEMENT))
    assert g2.numerator.terms == {(1, 0): 1}
    for side, gf in ((SELECTED, g), (COMPLEMENT, g2)):
        series = expand(gf, (1, 1), 8)
        direct = lattice_points(DomainSpec(sel, side), (1, 1), 8)
        assert series.coeffs == direct.coeffs


def test_domain_gf_square_opposite_specialized():
    cone = square_cone()
    sel = FacetSelection(cone, facet_pairs_sharing_no_ray(cone)[0])
    g = specialize(domain_gf(DomainSpec(sel, SELECTED)), (0, 0, 1))
    expected = RationalGF(LaurentPoly({(2,): 3, (3,): -1}), ((1,), (1,), (1,)))
    assert gf_equal(g, expected)
    series = expand(g, (1,), 10)
    assert series.coeffs == {(n,): n * n - 1 for n in range(2, 11)}


def test_oracle_equivalence_small_corpus():
    for cone in (quadrant(), square_cone()):
        n = len(cone.facets)
        w = default_grading(cone)
        for size in range(1, n):
            for subset in combinations(range(n), size):
                sel = FacetSelection(cone, frozenset(subset))
                for side in (SELECTED, COMPLEMENT):
                    spec = DomainSpec(sel, side)
                    for bound in (0, 3, 10):
                        assert (
                            expand(domain_gf(spec), w, bound).coeffs
                            == lattice_points(spec, w, bound).coeffs
                        )


def test_oracle_equivalence_custom_grading():
    cone = square_cone()
    w = (1, 2, 4)  # strictly positive on all rays, unlike the default (0, 0, 2)
    for subset in ({0}, {1, 2}, {0, 3}):
        sel = FacetSelection(cone, frozenset(subset))
        for side in (SELECTED, COMPLEMENT):
            spec = DomainSpec(sel, side)
            assert (
                expand(domain_gf(spec), w, 9).coeffs
                == lattice_points(spec, w, 9).coeffs
            )


# -- the face-lattice sum against the subset walk ------------------------------

def closed_face_numerator(cone, face) -> LaurentPoly:
    """The numerator of a closed face's generating function over the cone's
    canonical denominator: ``_face_gf``'s, or, for the origin, whose closed
    function is 1, the product of (1 - x^v) over the rays."""
    if face.dim:
        return enumerator._face_gf(cone, face).numerator
    num = LaurentPoly.monomial((0,) * cone.dim)
    for v in cone.rays:
        num = num.times_one_minus(v)
    return num


def oracle_domain_gf(spec):
    """Inclusion-exclusion over all 2^|strict| subsets of the strict facets:
    the face where a subset is tight enters with sign (-1)^|subset|."""
    cone = spec.cone
    strict = sorted(spec.strict_facets)
    faces_by_rays = {f.rays: f for f in faces_of(cone)}
    all_rays = frozenset(range(len(cone.rays)))
    total = LaurentPoly.zero()
    for size in range(len(strict) + 1):
        for subset in combinations(strict, size):
            tight_rays = all_rays
            for j in subset:
                tight_rays &= cone.facets[j].incident_rays
            num = closed_face_numerator(cone, faces_by_rays[tight_rays])
            total = total + num if size % 2 == 0 else total - num
    return RationalGF(total, tuple(sorted(cone.rays)))


@st.composite
def domain_specs(draw):
    """A random pointed cone, d = 2..4 and at most 8 generators, each with a
    positive last coordinate, and a random proper selection and side."""
    d = draw(st.integers(2, 4))
    ray = st.tuples(*[st.integers(-2, 2)] * (d - 1), st.integers(1, 2))
    rays = draw(st.lists(ray, min_size=d, max_size=8, unique=True))
    try:
        cone = Cone.from_rays(rays)
    except NotFullDimensional:
        assume(False)
    n = len(cone.facets)
    selected = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
    side = draw(st.sampled_from((SELECTED, COMPLEMENT)))
    return DomainSpec(FacetSelection(cone, frozenset(selected)), side)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(domain_specs())
def test_domain_gf_matches_subset_walk(spec):
    got, want = domain_gf(spec), oracle_domain_gf(spec)
    assert got.numerator.terms == want.numerator.terms
    assert got.denom_rays == want.denom_rays


@settings(derandomize=True, max_examples=150, deadline=None)
@given(domain_specs(), st.integers(0, 3))
def test_domain_gf_expands_to_lattice_points(spec, bound):
    w = default_grading(spec.cone)
    assert expand(domain_gf(spec), w, bound).coeffs == lattice_points(spec, w, bound).coeffs


def test_domain_gf_lifts_each_face_at_most_once(monkeypatch):
    # The cone over (x, x^2, 1), x = -5..5, has 11 rays, 11 facets and 24
    # faces; a subset walk over 10 strict facets would ask for 2^10 faces.
    # Both sides together build each face's row at most once, under one
    # grading, the cone's Kronecker grading.
    cone = Cone.from_rays([(x, x * x, 1) for x in range(-5, 6)])
    assert len(cone.rays) == 11 and len(faces_of(cone)) == 24
    selection = FacetSelection(cone, frozenset(range(10)))
    built = Counter()
    graded_face_row = enumerator._graded_face_row

    def counted(cone, face, w):
        built[face, w] += 1
        return graded_face_row(cone, face, w)

    monkeypatch.setattr(enumerator, "_graded_face_row", counted)
    for side in (SELECTED, COMPLEMENT):
        before = len(built)
        domain_gf(DomainSpec(selection, side))
        assert len(built) > before, side
    assert set(built.values()) == {1} and len(built) <= len(faces_of(cone))
    assert {w for _, w in built} == {cone._face_table.kronecker}


def test_triangulation_independence_under_ray_reordering():
    cone = square_cone()
    # same cone with rays listed in a different order: different pulling apex
    permuted = Cone(cone.dim, cone.rays[::-1], tuple(
        type(f)(f.coeffs, frozenset(len(cone.rays) - 1 - i for i in f.incident_rays))
        for f in cone.facets
    ))
    sel_a = FacetSelection(cone, frozenset({0, 2}))
    sel_b = FacetSelection(permuted, frozenset({0, 2}))
    g_a = domain_gf(DomainSpec(sel_a, SELECTED))
    g_b = domain_gf(DomainSpec(sel_b, SELECTED))
    assert gf_equal(g_a, g_b)


# -- inversion and equality ----------------------------------------------------

def test_invert_variables_quadrant_example():
    g = RationalGF(LaurentPoly({(1, 0): 1}), ((0, 1), (1, 0)))
    inv = invert_variables(g)
    assert inv.numerator.terms == {(0, 1): 1}
    assert inv.denom_rays == g.denom_rays


def test_invert_variables_is_involution():
    sel = quadrant_selection()
    cone = square_cone()
    sel2 = FacetSelection(cone, facet_pairs_sharing_a_ray(cone)[0])
    for spec in (DomainSpec(sel, SELECTED), DomainSpec(sel2, COMPLEMENT)):
        g = domain_gf(spec)
        back = invert_variables(invert_variables(g))
        assert back.numerator == g.numerator and back.denom_rays == g.denom_rays


def test_invert_variables_negated_exponent_expansion():
    # 1/(1-x) inverted, expanded without normalization: substitute and expand
    # along the negated ray, which must reproduce original coefficients at
    # negated exponents
    g = RationalGF(LaurentPoly({(0,): 1}), ((1,),))
    substituted = LaurentPoly({tuple(-a for a in e): c for e, c in g.numerator.terms.items()})
    raw = RationalGF(substituted, ((-1,),))
    series = expand(raw, (-1,), 6)
    original = expand(g, (1,), 6)
    assert series.coeffs == {tuple(-a for a in e): c for e, c in original.coeffs.items()}
    # and the normalized inversion is -x/(1-x)
    inv = invert_variables(g)
    assert inv.numerator.terms == {(1,): -1}


def test_gf_equal_examples():
    y_over = RationalGF(LaurentPoly({(0, 1): 1}), ((0, 1), (1, 0)))
    y_over_reordered = RationalGF(LaurentPoly({(0, 1): 1}), ((1, 0), (0, 1)))
    x_over = RationalGF(LaurentPoly({(1, 0): 1}), ((0, 1), (1, 0)))
    assert gf_equal(y_over, y_over_reordered)
    assert not gf_equal(y_over, x_over)
    lhs = RationalGF(LaurentPoly({(2,): 3, (3,): -1}), ((1,), (1,), (1,)))
    rhs = RationalGF(LaurentPoly({(0,): 1, (1,): -3}), ((1,), (1,), (1,)))
    assert not gf_equal(lhs, rhs)


def test_gf_equal_across_different_denominators():
    # t/(1-t) == t(1-t)/(1-t)^2
    a = RationalGF(LaurentPoly({(1,): 1}), ((1,),))
    b = RationalGF(LaurentPoly({(1,): 1, (2,): -1}), ((1,), (1,)))
    assert gf_equal(a, b)


def test_gf_equal_is_equivalence_on_corpus_sample():
    cone = square_cone()
    sels = [FacetSelection(cone, frozenset({i})) for i in range(4)]
    gfs = [domain_gf(DomainSpec(s, SELECTED)) for s in sels]
    for g in gfs:
        assert gf_equal(g, g)
    for g1 in gfs:
        for g2 in gfs:
            assert gf_equal(g1, g2) == gf_equal(g2, g1)
    # transitivity through scaled copies
    g = gfs[0]
    h = gf_scale(gf_scale(g, -1), -1)
    assert gf_equal(g, h) and gf_equal(h, g)


def oracle_gf_equal(a, b):
    """The former equality test: shared denominator factors cancel as
    multisets, and the rest is decided by cross multiplication."""
    counts_a, counts_b = Counter(a.denom_rays), Counter(b.denom_rays)
    common = counts_a & counts_b
    lhs = a.numerator
    for v in (counts_b - common).elements():
        lhs = lhs.times_one_minus(v)
    rhs = b.numerator
    for v in (counts_a - common).elements():
        rhs = rhs.times_one_minus(v)
    return lhs == rhs


@st.composite
def gf_pairs(draw):
    """Two generating functions in two variables over different denominator
    multisets; half the time the second is the first with extra factors
    (1 - x^v) above and below, so the two are equal."""
    ray = st.sampled_from([(1, 0), (0, 1), (1, 1), (1, 2)])
    numerator = st.dictionaries(
        st.tuples(st.integers(-2, 3), st.integers(-2, 3)), st.integers(-2, 2), max_size=4
    )
    a = RationalGF(LaurentPoly(draw(numerator)), draw(st.lists(ray, min_size=1, max_size=3)))
    if draw(st.booleans()):
        extra = draw(st.lists(ray, min_size=1, max_size=2))
        num = a.numerator
        for v in extra:
            num = num.times_one_minus(v)
        b = RationalGF(num, a.denom_rays + tuple(extra))
    else:
        b = RationalGF(LaurentPoly(draw(numerator)), draw(st.lists(ray, min_size=1, max_size=3)))
    assume(Counter(a.denom_rays) != Counter(b.denom_rays))
    return a, b


@settings(derandomize=True, max_examples=200, deadline=None)
@given(gf_pairs())
def test_gf_equal_matches_cross_multiplication(pair):
    a, b = pair
    assert gf_equal(a, b) == gf_equal(b, a) == oracle_gf_equal(a, b)


# -- reciprocity ----------------------------------------------------------------

def test_reciprocity_quadrant_holds():
    report = reciprocity_check(quadrant_selection())
    assert report.holds
    assert report.cm_over == {"Q": True, "F2": True}
    assert report.witness["kind"] == "identity"
    assert report.to_json()["first_disagreement"] is None


def test_reciprocity_square_adjacent_holds():
    cone = square_cone()
    sel = FacetSelection(cone, facet_pairs_sharing_a_ray(cone)[0])
    report = reciprocity_check(sel)
    assert report.holds and report.cm_over == {"Q": True, "F2": True}
    g = specialize(domain_gf(DomainSpec(sel, SELECTED)), (0, 0, 1))
    expected = RationalGF(LaurentPoly({(1,): 1, (2,): 1}), ((1,), (1,), (1,)))
    assert gf_equal(g, expected)


def test_reciprocity_square_opposite_fails():
    cone = square_cone()
    sel = FacetSelection(cone, facet_pairs_sharing_no_ray(cone)[0])
    report = reciprocity_check(sel)
    assert not report.holds
    assert report.cm_over == {"Q": False, "F2": False}
    assert report.witness == {"kind": "disagreement", "degree": 0, "lhs": 1, "rhs": 0}
    payload = report.to_json()
    assert payload["first_disagreement"] == {"degree": 0, "lhs": 1, "rhs": 0}


def test_reciprocity_soundness_on_corpus():
    # CM over either field forces the identity: exhaustively over all proper
    # selections of the small cones, single facets elsewhere
    exhaustive = {"quadrant": quadrant(), "square": square_cone(), "pentagon": pentagon_cone()}
    for name, cone in exhaustive.items():
        n = len(cone.facets)
        for size in range(1, n):
            for subset in combinations(range(n), size):
                report = reciprocity_check(FacetSelection(cone, frozenset(subset)))
                if report.cm_over["Q"] or report.cm_over["F2"]:
                    assert report.holds, (name, subset)
    for name, cone in corpus_cones().items():
        for i in range(len(cone.facets)):
            sel = FacetSelection(cone, frozenset({i}))
            report = reciprocity_check(sel)
            if report.cm_over["Q"] or report.cm_over["F2"]:
                assert report.holds, (name, i)


def oracle_first_disagreement(degrees, lhs, difference, ray_degrees) -> dict:
    """The smallest grading degree where the series of two functions over
    one denominator differ, with both per-degree totals, read off their
    multivariate numerators.

    ``lhs`` and ``difference`` are coefficient sequences over one list of
    exponents, whose grading degrees are ``degrees``: the left numerator and
    D = left numerator - right numerator.  ``ray_degrees`` are the degrees of
    the denominator rays.  The series difference is D * prod 1/(1 - x^v), and
    every geometric factor is 1 plus terms of positive degree, so the
    lowest-degree part of D survives unchanged: the series first differ at
    the minimum degree of D's support, where the right side's total is the
    left side's minus D's total of that degree.  The left side's total is a
    coefficient of its specialisation x_i -> t^(w_i): its numerator summed
    by degree, times one geometric series in t per denominator ray."""
    support = list(compress(degrees, difference))
    if not support:
        raise InvariantViolation("the two sides were judged to differ, but their numerators agree")
    degree = min(support)
    part = sum(c for d, c in zip(degrees, difference) if d == degree)
    low = min(compress(degrees, lhs), default=degree)
    # ways[n]: the ways to write n as a sum of denominator degrees
    ways = [1] + [0] * (degree - low)
    for a in ray_degrees:
        for n in range(a, len(ways)):
            ways[n] += ways[n - a]
    total = sum(c * ways[degree - d] for d, c in zip(degrees, lhs) if c and d <= degree)
    return {"kind": "disagreement", "degree": degree, "lhs": total, "rhs": total - part}


def first_disagreement(lhs, rhs, w):
    """``oracle_first_disagreement`` of two functions over one denominator,
    given the union of their numerators' exponents and their degrees."""
    exponents = sorted(set(lhs.numerator.terms) | set(rhs.numerator.terms))
    left = [lhs.numerator.terms.get(e, 0) for e in exponents]
    right = [rhs.numerator.terms.get(e, 0) for e in exponents]
    return oracle_first_disagreement(
        [dot(w, e) for e in exponents],
        left,
        [a - b for a, b in zip(left, right)],
        [dot(w, v) for v in lhs.denom_rays],
    )


def test_first_disagreement_beyond_degree_64():
    # 1/(1-x) against (1+x^70)/(1-x): the series first differ at degree 70
    lhs = RationalGF(LaurentPoly({(0,): 1}), ((1,),))
    rhs = RationalGF(LaurentPoly({(0,): 1, (70,): 1}), ((1,),))
    witness = first_disagreement(lhs, rhs, (1,))
    assert witness == {"kind": "disagreement", "degree": 70, "lhs": 1, "rhs": 2}


def test_first_disagreement_when_the_lowest_difference_cancels_in_total():
    # (1 + x1) / ((1 - x1)(1 - x2)) against (1 + x2) / (same): the series
    # first differ at degree 1, at x1 and x2 with opposite signs, so both
    # sides count 3 points there although the exponents disagree
    denom = ((1, 0), (0, 1))
    lhs = RationalGF(LaurentPoly({(0, 0): 1, (1, 0): 1}), denom)
    rhs = RationalGF(LaurentPoly({(0, 0): 1, (0, 1): 1}), denom)
    witness = first_disagreement(lhs, rhs, (1, 1))
    assert witness == {"kind": "disagreement", "degree": 1, "lhs": 3, "rhs": 3}


OCTAHEDRON_RAYS = [(1, 0, 0, 1), (-1, 0, 0, 1), (0, 1, 0, 1), (0, -1, 0, 1), (0, 0, 1, 1), (0, 0, -1, 1)]
BIPYRAMID_RAYS = [(1, 0, 0, 1), (0, 1, 0, 1), (-1, -1, 0, 1), (0, 0, 1, 1), (0, 0, -1, 1)]


def _check_witnesses_by_expansion(cone, grading=None):
    """Expand both sides of every failing selection of ``cone`` up to the
    witness's degree, independently of the witness's own arithmetic, and
    check the degree is the first where the series differ and both totals
    are the series' counts there.  Returns the failing witnesses."""
    w = default_grading(cone) if grading is None else grading
    n = len(cone.facets)
    witnesses = []
    for size in range(1, n):
        for subset in combinations(range(n), size):
            sel = FacetSelection(cone, frozenset(subset))
            report = reciprocity_check(sel, fields=(), grading=grading)
            if report.holds:
                continue
            degree = report.witness["degree"]
            lhs = invert_variables(domain_gf(DomainSpec(sel, COMPLEMENT)))
            rhs = gf_scale(domain_gf(DomainSpec(sel, SELECTED)), (-1) ** cone.dim)
            sa, sb = expand(lhs, w, degree), expand(rhs, w, degree)
            differing = {
                dot(w, e)
                for e in set(sa.coeffs) | set(sb.coeffs)
                if sa.coefficient(e) != sb.coefficient(e)
            }
            assert min(differing) == degree, subset
            totals = (sa.degree_counts().get(degree, 0), sb.degree_counts().get(degree, 0))
            assert totals == (report.witness["lhs"], report.witness["rhs"]), subset
            witnesses.append(report.witness)
    return witnesses


def test_first_disagreement_degree_is_minimal_on_corpus():
    failing = 0
    for cone in corpus_cones(0).values():
        failing += len(_check_witnesses_by_expansion(cone))
    assert failing > 0


@pytest.mark.parametrize("rays", [OCTAHEDRON_RAYS, BIPYRAMID_RAYS], ids=["octahedron", "bipyramid"])
@pytest.mark.parametrize("grading", [None, (1, 2, 3, 4)], ids=["default", "skew"])
def test_first_disagreement_degree_is_minimal_at_positive_degree(rays, grading):
    # The corpus fails only at degree 0.  These cones fail at degrees 8 and 6
    # under the default grading, where the totals are 0 and 1; under the skew
    # grading they fail at degrees up to 7 with totals up to 4 and 5, so the
    # count of ways to reach a degree from the denominator is checked too.
    witnesses = _check_witnesses_by_expansion(Cone.from_rays(rays), grading)
    positive = [x for x in witnesses if x["degree"] > 0]
    assert positive
    if grading is not None:
        assert any(x["lhs"] > 0 for x in positive)


def test_invariant_violation_is_not_an_input_error():
    with pytest.raises(InvariantViolation):
        _numerator_over(RationalGF(LaurentPoly.monomial((0,)), ((2,),)), [(1,)])
    assert not issubclass(InvariantViolation, (ValueError, KeyError, RuntimeError))


# -- the one-sided check against the two-sided path -----------------------------

def oracle_identity_certificate(selection):
    """The coefficients L(K) and R(K) of each closed face's sigma_K, faces in
    ``faces_of`` order, in F_complement(1/x) and in (-1)^d F_selected(x),
    from each face's tight facets alone.  A face is open on a side when it
    is tight on none of that side's strict facets, and a face G contains K
    when G's tight facets are among K's.  L(K) is (-1)^dim K when K is open
    on the complement's side and 0 otherwise; R(K) is (-1)^d times the sum
    of (-1)^(dim G - dim K) over the faces G containing K that are open on
    the selected side."""
    cone = selection.cone
    faces = faces_of(cone)
    lhs = tuple(0 if k.tight_facets & selection.complement else (-1) ** k.dim for k in faces)
    rhs = tuple(
        (-1) ** cone.dim * sum(
            (-1) ** (g.dim - k.dim)
            for g in faces
            if g.tight_facets <= k.tight_facets and not g.tight_facets & selection.selected
        )
        for k in faces
    )
    return lhs, rhs


def certificate_checks(selection, witness) -> bool:
    """Whether a holding witness is the checker's certificate: the cone's
    faces, and coefficients equal to L(K) and to R(K) face by face."""
    lhs, rhs = oracle_identity_certificate(selection)
    certificate = {"kind": "identity", "faces": faces_of(selection.cone), "coefficients": lhs}
    return lhs == rhs and witness == certificate


def numerators_agree(selection) -> bool:
    """Whether F_complement(1/x) and (-1)^d F_selected(x), each from the
    subset walk over the canonical denominator, have equal numerators."""
    lhs = invert_variables(oracle_domain_gf(DomainSpec(selection, COMPLEMENT)))
    rhs = oracle_domain_gf(DomainSpec(selection, SELECTED))
    return lhs.numerator == rhs.numerator.scale((-1) ** selection.cone.dim)


def check_certificate_against_the_numerators(selection) -> bool:
    """The checker's two sides agree exactly when the numerators do, the
    report holds exactly then, and a holding report's certificate is the
    checker's.  Returns whether the report holds."""
    lhs, rhs = oracle_identity_certificate(selection)
    assert (lhs == rhs) == numerators_agree(selection)
    report = reciprocity_check(selection, fields=())
    assert report.holds == (lhs == rhs)
    assert not report.holds or certificate_checks(selection, report.witness)
    return report.holds


def oracle_reciprocity_check(selection, fields=(QQ, GF2)):
    """Both domains' generating functions, the complement's inverted back to
    1/x, compared by ``gf_equal``, with the library's witness."""
    cone = selection.cone
    lhs = invert_variables(domain_gf(DomainSpec(selection, COMPLEMENT)))
    rhs = gf_scale(domain_gf(DomainSpec(selection, SELECTED)), (-1) ** cone.dim)
    holds = gf_equal(lhs, rhs)
    subdivided = barycentric(boundary_subcomplex(selection))
    cm_over = {f.label: is_cohen_macaulay(subdivided, f).is_cm for f in fields}
    if holds:
        coefficients = oracle_identity_certificate(selection)[0]
        witness = {"kind": "identity", "faces": faces_of(cone), "coefficients": coefficients}
    else:
        witness = first_disagreement(lhs, rhs, default_grading(cone))
    return ReciprocityReport(holds, cm_over, witness)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(domain_specs())
def test_reciprocity_check_matches_two_sided_path(spec):
    got, want = reciprocity_check(spec.selection), oracle_reciprocity_check(spec.selection)
    assert got.to_json() == want.to_json()
    assert got.witness == want.witness


@pytest.mark.parametrize("rays", [OCTAHEDRON_RAYS, BIPYRAMID_RAYS], ids=["octahedron", "bipyramid"])
def test_reciprocity_check_matches_two_sided_path_on_every_selection(rays):
    # every selection of two cones whose failing witnesses include positive
    # degrees (8 on the octahedron, 6 on the bipyramid), all on one cone
    # object, so later selections read the face rows that earlier ones built;
    # the identity certificate is checked against the subset walk's numerators
    cone = Cone.from_rays(rays)
    n = len(cone.facets)
    degrees = Counter()
    for size in range(1, n):
        for subset in combinations(range(n), size):
            selection = FacetSelection(cone, frozenset(subset))
            got, want = reciprocity_check(selection), oracle_reciprocity_check(selection)
            assert got.to_json() == want.to_json(), subset
            assert got.witness == want.witness, subset
            assert check_certificate_against_the_numerators(selection) == got.holds, subset
            degrees[got.witness.get("degree")] += 1
    assert any(d for d in degrees if d) and degrees[None], degrees


def oracle_face_row_witness(selection, w):
    """The multivariate failing path: the signed sums of the faces'
    multivariate numerators (``closed_face_numerator``), read through
    ``oracle_first_disagreement`` with the degree of every exponent."""
    cone = selection.cone
    lhs, rhs = enumerator._lattice_sides(selection)
    numerator, difference = Counter(), Counter()
    for face, a, b in zip(geometry.face_lattice(cone).faces, lhs, rhs):
        for e, c in closed_face_numerator(cone, face).terms.items():
            numerator[e] += a * c
            difference[e] += (a - b) * c
    exponents = sorted(set(numerator) | set(difference))
    return oracle_first_disagreement(
        [dot(w, e) for e in exponents],
        [numerator[e] for e in exponents],
        [difference[e] for e in exponents],
        [dot(w, v) for v in cone.rays],
    )


@settings(derandomize=True, max_examples=150, deadline=None)
@given(domain_specs(), st.data())
def test_graded_witness_matches_the_multivariate_oracle(spec, data):
    # the selection, its complement and up to 30 pairs of facets, under the
    # default grading and under a random grading at least 1 on every ray
    cone = spec.cone
    head = data.draw(st.lists(st.integers(-3, 3), min_size=cone.dim - 1, max_size=cone.dim - 1))
    least = max(-((dot(head, r[:-1]) - 1) // r[-1]) for r in cone.rays)
    skew = tuple(head) + (max(least, 1) + data.draw(st.integers(0, 3)),)
    chosen = [spec.selection.selected, spec.selection.complement]
    chosen += [frozenset(pair) for pair in combinations(range(len(cone.facets)), 2)][:30]
    for w in (default_grading(cone), skew):
        for selected in chosen:
            if len(selected) == len(cone.facets):
                continue
            selection = FacetSelection(cone, selected)
            report = reciprocity_check(selection, fields=(), grading=w)
            if not report.holds:
                assert report.witness == oracle_face_row_witness(selection, w), w


@pytest.mark.parametrize("grading", [None, (1, 2, 3, 4)], ids=["default", "skew"])
def test_graded_rows_on_the_octahedron_cone(monkeypatch, grading):
    # Work pin: every selection of the octahedron cone under one grading
    # builds each face's graded row once, under that grading alone and not
    # the cone's Kronecker grading; each graded row is the face's
    # multivariate numerator summed by degree.
    cone = Cone.from_rays(OCTAHEDRON_RAYS)
    w = default_grading(cone) if grading is None else grading
    built = Counter()
    graded_face_row = enumerator._graded_face_row

    def counted(cone, face, w):
        built[face] += 1
        return graded_face_row(cone, face, w)

    monkeypatch.setattr(enumerator, "_graded_face_row", counted)
    n = len(cone.facets)
    failing = 0
    for size in range(1, n):
        for subset in combinations(range(n), size):
            selection = FacetSelection(cone, frozenset(subset))
            failing += not reciprocity_check(selection, fields=(), grading=grading).holds
    table, faces = cone._face_table, cone._face_lattice.faces
    assert (failing, len(faces)) == (128, 28)
    assert set(built.values()) == {1} and len(built) == 28 and len(table._graded) == 28
    for (key, k), row in table._graded.items():
        face = faces[k]
        by_degree = Counter()
        for e, c in closed_face_numerator(cone, face).terms.items():
            by_degree[dot(w, e)] += c
        assert key == w and row == {d: c for d, c in by_degree.items() if c}, face


def unpacking_mismatches(cone, base=None) -> list:
    """The faces whose graded row under a fresh face table's Kronecker
    grading, or under the packing of base ``base`` in its place, does not
    unpack to the face's multivariate numerator in lexicographic order; a
    packed key out of range counts as a mismatch."""
    table = enumerator._FaceTable(cone)
    if base is not None:
        table.base = base
        table.kronecker = tuple(base**i for i in reversed(range(cone.dim)))
    wrong = []
    for face in table.lattice.faces:
        want = closed_face_numerator(cone, face).terms
        try:
            got = table.unpack(enumerator._graded_face_row(cone, face, table.kronecker))
        except InvariantViolation:
            got = None
        if got != want or list(got) != sorted(want):
            wrong.append(face)
    return wrong


@settings(derandomize=True, max_examples=100, deadline=None)
@given(domain_specs())
def test_packed_face_rows_unpack_to_the_multivariate_numerators(spec):
    cone = spec.cone
    assume(any(a < 0 for r in cone.rays for a in r))
    assert not unpacking_mismatches(cone)


@pytest.mark.parametrize(
    "rays",
    [OCTAHEDRON_RAYS, BIPYRAMID_RAYS, [(-2, -1, 1), (2, -1, 1), (1, 2, 1), (-1, 2, 1)], [(-1, 1), (2, 1)]],
    ids=["octahedron", "bipyramid", "quadrilateral", "segment"],
)
def test_packing_with_a_base_one_too_small_is_caught(rays):
    # Mutant: base B - 1 leaves some coordinate's range without a digit, so
    # some face's row unpacks wrong or out of range.
    cone = Cone.from_rays(rays)
    assert not unpacking_mismatches(cone)
    assert unpacking_mismatches(cone, enumerator._FaceTable(cone).base - 1)


def test_unpacking_a_key_out_of_range_raises():
    cone = Cone.from_rays([(-1, 1), (2, 1)])
    table = enumerator._FaceTable(cone)
    assert (table.low, table.base, table.kronecker) == ((-1, 0), 4, (4, 1))
    offset = dot(table.kronecker, table.low)
    assert table.unpack({offset: 1, offset + 15: -2, offset + 7: 0}) == {(-1, 0): 1, (2, 3): -2}
    for key in (offset - 1, offset + 16):
        with pytest.raises(InvariantViolation, match="outside the cone's exponent box"):
            table.unpack({key: 1})


def test_holding_selections_of_the_4_cube_cone_build_no_multivariate_row(monkeypatch):
    # The cone over the 4-cube with vertices (+-1, ..., +-1) has 16 rays, 8
    # facets and 82 faces (the origin included), and its shared numerators
    # have tens of thousands of terms.  Its first 4 two-facet and 36
    # three-facet selections hold; their verdicts and their witnesses, one
    # coefficient per face, build no face's row, under any grading, and walk
    # no parallelepiped.
    cone = Cone.from_rays([c + (1,) for c in product((-1, 1), repeat=4)])
    calls = Counter()
    for name in ("_graded_face_row", "_face_gf", "simplicial_gf", "_parallelepiped_points"):
        original = getattr(enumerator, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(enumerator, name, counted)
    subsets = list(combinations(range(8), 2))[:4] + list(combinations(range(8), 3))[:36]
    selections = [FacetSelection(cone, frozenset(s)) for s in subsets]
    reports = [reciprocity_check(selection) for selection in selections]
    assert len(cone._face_lattice.faces) == 82
    assert all(r.holds for r in reports)
    witnesses = [r.witness for r in reports]
    assert not calls and not cone._face_table._graded
    assert all(certificate_checks(s, x) for s, x in zip(selections, witnesses))


def test_holding_report_is_a_plain_dataclass():
    # a holding report holds its certificate as a plain field: equality,
    # repr, pickles and copies see it as any other field, and to_json()
    # leaves it out
    assert not {"_built_on_read", "__getattr__", "__getstate__"} & vars(ReciprocityReport).keys()
    selection = FacetSelection(pentagon_cone(), frozenset({0, 1}))
    report = reciprocity_check(selection)
    assert report.holds and certificate_checks(selection, report.witness)
    assert vars(report).keys() == {"holds", "cm_over", "witness"}
    built = ReciprocityReport(True, {"Q": True, "F2": True}, dict(report.witness))
    assert report == built == reciprocity_check(FacetSelection(pentagon_cone(), frozenset({0, 1})))
    assert repr(report) == repr(built) == (
        f"ReciprocityReport(holds=True, cm_over={{'Q': True, 'F2': True}}, witness={report.witness!r})"
    )
    for copied in (pickle.loads(pickle.dumps(report)), copy.deepcopy(report), copy.copy(report)):
        assert vars(copied).keys() == {"holds", "cm_over", "witness"}
        assert copied == built and repr(copied) == repr(built)
    assert report.to_json() == {"holds": True, "cm": {"Q": True, "F2": True}, "first_disagreement": None}
    # equality reads the witness: another origin coefficient makes another report
    other = dict(report.witness, coefficients=(-1,) + report.witness["coefficients"][1:])
    assert report != ReciprocityReport(True, dict(report.cm_over), other)


def test_face_table_leaves_cone_equality_hash_and_repr_alone():
    cone, fresh = pentagon_cone(), pentagon_cone()
    before = (hash(cone), repr(cone))
    assert cone._face_table is None and cone._face_lattice is None
    report = reciprocity_check(FacetSelection(cone, frozenset({0, 2})))
    assert cone._face_table is not None and fresh._face_table is None
    assert cone._face_lattice is cone._face_table.lattice and fresh._face_lattice is None
    assert (hash(cone), repr(cone)) == before == (hash(fresh), repr(fresh))
    assert cone == fresh and "_face_table" not in repr(cone) and "_face_lattice" not in repr(cone)
    # copies leave the memos, and the table's lock, behind and build their own
    for other in (pickle.loads(pickle.dumps(cone)), copy.deepcopy(cone), copy.copy(cone)):
        assert other == cone and other._face_table is None and other._face_lattice is None
        again = reciprocity_check(FacetSelection(other, frozenset({0, 2})))
        assert again == report and other._face_lattice is not cone._face_lattice


TWELVE_GON = [(-4, -4), (-3, -4), (0, -3), (2, -2), (3, -1), (4, 1),
              (5, 4), (4, 4), (1, 3), (-1, 2), (-2, 1), (-3, -1)]


def test_face_table_fills_safely_from_many_threads(monkeypatch):
    # Eight threads, more than the cores, share one fresh cone over a 12-gon
    # (rows of about 2,500 terms) and start at different selections, so
    # they build its face lattice and graded rows at the same time, under a
    # short switch interval, and take Cohen-Macaulay verdicts over three
    # fields on a fresh octahedron cone, whose origin interval is ranked.
    # Every witness and verdict must equal the one computed alone, and each
    # row be built once per cone.
    rays = [(x, y, 1) for x, y in TWELVE_GON]
    selections = [frozenset({i, j}) for i in range(12) for j in (i, (i + 5) % 12)]
    selections += [frozenset({i, (i + 2) % 12, (i + 7) % 12}) for i in range(12)]
    alone = Cone.from_rays(rays)
    expected = [reciprocity_check(FacetSelection(alone, s)) for s in selections]
    assert sum(x.witness["kind"] == "disagreement" for x in expected) > len(selections) // 3
    assert {x.cm_over["Q"] for x in expected} == {True, False}
    fields = (QQ, GF2, FieldSpec(3))
    solid_selections = [frozenset(s) for size in (2, 6) for s in combinations(range(8), size)]
    solid_alone = Cone.from_rays(OCTAHEDRON_RAYS)
    expected_cm = [cm_on_upper_intervals(FacetSelection(solid_alone, s), fields) for s in solid_selections]
    assert any(not c["Q"].is_cm for c in expected_cm) and any(c["Q"].is_cm for c in expected_cm)
    shared = Cone.from_rays(rays)
    solid = Cone.from_rays(OCTAHEDRON_RAYS)
    got, got_over, got_cm, errors = {}, {}, {}, []
    built = []  # list.append is atomic, where a Counter's += is not
    graded_face_row = enumerator._graded_face_row

    def counted(cone, face, w):
        built.append((id(cone), face, w))
        return graded_face_row(cone, face, w)

    monkeypatch.setattr(enumerator, "_graded_face_row", counted)

    def work(offset):
        try:
            for i in range(offset, offset + len(selections)):
                k = i % len(selections)
                report = reciprocity_check(FacetSelection(shared, selections[k]))
                got.setdefault(k, []).append(report.witness)
                got_over.setdefault(k, []).append(report.cm_over)
                j = i % len(solid_selections)
                certificates = cm_on_upper_intervals(FacetSelection(solid, solid_selections[j]), fields)
                got_cm.setdefault(j, []).append(certificates)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [Thread(target=work, args=(3 * t,)) for t in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    for k, x in enumerate(expected):
        assert got[k] == [x.witness] * len(threads) and got_over[k] == [x.cm_over] * len(threads)
    assert all(all(c == expected_cm[j] for c in got_cm[j]) for j in range(len(solid_selections)))
    assert sum(map(len, got_cm.values())) == len(selections) * len(threads)
    assert built and len(set(built)) == len(built)
    assert {w for _, _, w in built} == {default_grading(shared)}


@settings(derandomize=True, max_examples=100, deadline=None)
@given(domain_specs())
def test_lattice_verdict_matches_the_numerators(spec):
    check_certificate_against_the_numerators(spec.selection)


def test_a_flipped_certificate_coefficient_fails_the_checker():
    # Mutant: every holding certificate of the pentagon cone with any one
    # nonzero coefficient negated must fail the checker.
    cone = pentagon_cone()
    n = len(cone.facets)
    held = 0
    for size in range(1, n):
        for subset in combinations(range(n), size):
            selection = FacetSelection(cone, frozenset(subset))
            report = reciprocity_check(selection, fields=())
            if report.holds:
                held += 1
                witness = report.witness
                assert certificate_checks(selection, witness)
                coefficients = witness["coefficients"]
                for k, c in enumerate(coefficients):
                    flipped = dict(witness, coefficients=coefficients[:k] + (-c,) + coefficients[k + 1:])
                    assert not c or not certificate_checks(selection, flipped), (subset, k)
    assert held


def test_reciprocity_check_reads_the_complement_without_inverting(monkeypatch):
    # Work pin, per selection, holding or failing: no domain_gf, inversion,
    # rescaling, series expansion or cross-section, and no face's generating
    # function: a failing witness is read off graded rows, and a holding one
    # is the face lattice's certificate.  Each face's row is built at most
    # once, never under the Kronecker grading, and reading the holding
    # witnesses builds no row at all.
    cone = pentagon_cone()
    counts = Counter()

    def count(module, name):
        original = getattr(module, name)

        def counted(*args):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)

    graded_face_row = enumerator._graded_face_row
    built = Counter()

    def counted_graded_face_row(cone, face, w):
        built[face, w] += 1
        return graded_face_row(cone, face, w)

    monkeypatch.setattr(enumerator, "_graded_face_row", counted_graded_face_row)
    for name in ("domain_gf", "invert_variables", "gf_scale", "expand", "simplicial_gf", "_face_gf"):
        count(enumerator, name)
    count(topology, "boundary_subcomplex")
    count(topology, "barycentric")
    n = len(cone.facets)
    outcomes = Counter()
    reports = []
    for size in range(1, n):
        for subset in combinations(range(n), size):
            counts.clear()
            report = reciprocity_check(FacetSelection(cone, frozenset(subset)))
            outcomes[report.holds] += 1
            assert not counts, subset
            reports.append(report)
    assert outcomes[True] and outcomes[False]
    before = Counter(built)
    for report in reports:
        if report.holds:
            assert report.witness["kind"] == "identity"
    assert not counts and built == before
    assert set(built.values()) == {1}
    assert all(w != cone._face_table.kronecker for _, w in built)


def test_cm_verdicts_rank_cells_not_order_complexes(monkeypatch):
    # Work pin: every selection of data/pentagon_cone.json and of a
    # simplicial 4-D cone, whose origin interval (t = 2) is ranked, takes its
    # Cohen-Macaulay verdicts from the face lattice's cells: no
    # reduced_homology call and no SimplicialComplex, and one face lattice
    # built per cone.
    counts = Counter()

    def count(owner, name, key):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(topology, "reduced_homology", "reduced_homology")
    count(topology, "sparse_rank", "sparse_rank")
    count(topology.SimplicialComplex, "__init__", "SimplicialComplex")
    count(geometry, "_FaceLattice", "lattice")
    cones = [
        jsonio.cone_from_dict(jsonio.read(DATA / "pentagon_cone.json")),
        Cone.from_rays([(1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1), (0, 0, 0, 1)]),
    ]
    for cone in cones:
        n = len(cone.facets)
        for size in range(1, n):
            for subset in combinations(range(n), size):
                reciprocity_check(FacetSelection(cone, frozenset(subset)), fields=(QQ, GF2, FieldSpec(3)))
    assert counts["lattice"] == len(cones)
    assert counts["sparse_rank"] and not counts["reduced_homology"] and not counts["SimplicialComplex"]


def _selection_chain(cone):
    """The selections benchmark's chain on every selection of the cone:
    separation, the shelling through a witness, and the reciprocity check."""
    n = len(cone.facets)
    for size in range(1, n):
        for subset in combinations(range(n), size):
            selection = FacetSelection(cone, frozenset(subset))
            result = separation.separation_witness(selection)
            if result.separable:
                separation.shelling_through_witness(selection, result.witness)
            reciprocity_check(selection)


def test_default_grading_is_computed_twice_per_cone(monkeypatch):
    # Work pin: over every selection of a hexagon cone the default grading
    # is computed twice: once by the face table, which checks it and whose
    # copy each reciprocity check reads, and once by the shelling frame.  A
    # grading the caller passes is still checked on every call.
    calls = []
    original = geometry.default_grading

    def counted(cone):
        calls.append(cone)
        return original(cone)

    for module in (geometry, enumerator, separation, topology):
        if getattr(module, "default_grading", None) is original:
            monkeypatch.setattr(module, "default_grading", counted)
    cone = hexagon_cone()
    _selection_chain(cone)
    assert len(calls) == 2
    selection = FacetSelection(cone, frozenset({0}))
    for bad in ((1, 1), (1, 1, -100)):
        with pytest.raises(BadGrading):
            reciprocity_check(selection, grading=bad)
    assert len(calls) == 2


# The cones of the selections benchmark, rays (x, y, 1) over polygons and
# (x, y, z, 1) over tetrahedra, and the graded rows their chains build
SELECTIONS_CONES = (
    ([(-3, 2, 1), (-2, -1, 1), (2, 1, 1), (3, 2, 1)], 6),
    ([(-2, 2, 1), (-1, -1, 1), (2, -2, 1), (3, 0, 1)], 6),
    ([(-3, -1, 1), (-2, 1, 1), (0, 2, 1), (1, 2, 1), (3, -1, 1)], 12),
    ([(-2, -2, 1), (-1, -3, 1), (-1, 0, 1), (2, -1, 1), (2, 3, 1)], 12),
    ([(-2, 2, 1), (-2, 4, 1), (-1, 3, 1), (0, -4, 1), (2, -4, 1), (2, -2, 1)], 14),
    ([(-2, 1, 1), (-2, 2, 1), (-1, -2, 1), (0, 3, 1), (1, -1, 1), (3, 2, 1)], 14),
    ([(-1, -1, 1, 1), (0, 1, 0, 1), (0, 1, 1, 1), (1, 1, 1, 1)], 0),
    ([(-1, 1, 1, 1), (0, -1, 0, 1), (0, -1, 1, 1), (1, -1, -1, 1)], 0),
)


@pytest.mark.parametrize("rays, rows", SELECTIONS_CONES)
def test_graded_rows_per_cone_on_the_selection_chain(monkeypatch, rays, rows):
    # Work pin: the chain builds each of these graded rows once, and only
    # for failing witnesses; a holding verdict builds none
    built = []
    graded_face_row = enumerator._graded_face_row

    def counted(cone, face, w):
        built.append((face, w))
        return graded_face_row(cone, face, w)

    monkeypatch.setattr(enumerator, "_graded_face_row", counted)
    _selection_chain(Cone.from_rays(rays))
    assert len(built) == len(set(built)) == rows


# -- colon identity -------------------------------------------------------------

def test_colon_quadrant_examples():
    report = verify_colon_identity(quadrant_selection(), 6)
    assert report.consistent
    # a = (1, 0) is a member (strict on the complement facet, the x-functional)
    assert report.members > 0
    # a = (0, 1) is outside and gets the witness b = (0, 1) on the x = 0 facet
    assert report.witnesses[(0, 1)]["ideal_point"] == (0, 1)
    assert report.witnesses[(0, 1)]["sum"] == (0, 2)
    assert len(report.witnesses) == report.points_scanned - report.members
    assert report.product_checks == report.members * len(
        [
            p
            for p in _cone_scan(quadrant(), 6)
            if quadrant().facets[0](p) > 0
        ]
    )


def _cone_scan(cone, bound, w=None):
    from recdom.enumerator import _cone_points

    return _cone_points(cone, w or default_grading(cone), bound)


def test_colon_square_cone_instances():
    cone = square_cone()
    for pair in (facet_pairs_sharing_a_ray(cone)[0], facet_pairs_sharing_no_ray(cone)[0]):
        report = verify_colon_identity(FacetSelection(cone, pair), 6)
        assert report.consistent
        assert len(report.witnesses) == report.points_scanned - report.members
        for a, data in report.witnesses.items():
            b = data["ideal_point"]
            facet = cone.facets[data["facet"]]
            assert facet(a) == 0 and facet(b) == 0
            assert all(cone.facets[i](b) > 0 for i in pair)
            assert not interior_contains(cone, data["sum"])


def test_colon_witness_exhaustion_error():
    cone = quadrant()
    sel = FacetSelection(cone, frozenset({0}))
    with pytest.raises(WitnessSearchExhausted):
        verify_colon_identity(sel, 0)
    # under the grading (1, 5) the scan to degree 3 finds (1, 0) inside the
    # facet y = 0, and no point inside the facet x = 0, which the origin needs
    x_facet = next(i for i, f in enumerate(cone.facets) if f((0, 1)) == 0)
    sel = FacetSelection(cone, frozenset({1 - x_facet}))
    assert oracle_facet_interior_witness(cone, 1 - x_facet, (1, 5), 3) == (1, 0)
    assert oracle_facet_interior_witness(cone, x_facet, (1, 5), 3) is None
    with pytest.raises(WitnessSearchExhausted, match=f"facet {x_facet} up to degree 3"):
        verify_colon_identity(sel, 1, grading=(1, 5))


def oracle_facet_interior_witness(cone, facet_index, w, cap):
    """The former per-facet search: the first cone point, in (degree, lex)
    order, up to degree ``cap`` in the relative interior of one facet."""
    for p in _cone_scan(cone, cap, w):
        values = cone.facet_values(p)
        if values[facet_index] == 0 and all(
            v > 0 for i, v in enumerate(values) if i != facet_index
        ):
            return p
    return None


def test_colon_identity_every_corpus_cone():
    # the scan bound must leave room for facet-interior witnesses: the sum of
    # a facet's rays is one, so a third of its largest degree always suffices;
    # on every selection of one or two facets each witness is the one the
    # former per-facet search finds
    for name, cone in corpus_cones().items():
        w = default_grading(cone)
        needed = max(
            sum(dot(w, cone.rays[i]) for i in facet.incident_rays)
            for facet in cone.facets
        )
        bound = max(6, -(-needed // 3))
        n = len(cone.facets)
        searched = {}
        for chosen in (c for k in (1, 2) if k < n for c in combinations(range(n), k)):
            report = verify_colon_identity(FacetSelection(cone, frozenset(chosen)), bound)
            assert report.consistent, (name, chosen)
            assert len(report.witnesses) == report.points_scanned - report.members
            for a, data in report.witnesses.items():
                facet = data["facet"]
                if facet not in searched:
                    searched[facet] = oracle_facet_interior_witness(cone, facet, w, 3 * bound)
                assert data["ideal_point"] == searched[facet], (name, chosen, a)


def oracle_colon_pairs(selection, bound):
    """The former scan: every member against every ideal point."""
    cone = selection.cone
    points = _cone_scan(cone, bound)
    members = [a for a in points if all(cone.facets[i](a) > 0 for i in selection.complement)]
    ideal = [b for b in points if all(cone.facets[i](b) > 0 for i in selection.selected)]
    bad = [(a, b) for a in members for b in ideal if not interior_contains(cone, vadd(a, b))]
    return len(members), len(members) * len(ideal), bad


def test_colon_facet_minima_match_the_pairwise_scan():
    for name, cone in corpus_cones().items():
        w = default_grading(cone)
        needed = max(sum(dot(w, cone.rays[i]) for i in f.incident_rays) for f in cone.facets)
        bound = max(6, -(-needed // 3))
        for size in range(1, min(3, len(cone.facets))):
            for subset in combinations(range(len(cone.facets)), size):
                sel = FacetSelection(cone, frozenset(subset))
                report = verify_colon_identity(sel, bound)
                members, checks, bad = oracle_colon_pairs(sel, bound)
                assert (report.members, report.product_checks) == (members, checks)
                assert bad == report.violations == [], (name, subset)


def test_colon_sum_leaving_the_interior_raises(monkeypatch):
    # (1, -3) is outside the quadrant, strict on the unselected facet (a
    # member) and negative on the selected one, so every sum with an ideal
    # point leaves the interior there
    cone_points = enumerator._cone_points
    monkeypatch.setattr(
        enumerator, "_cone_points", lambda cone, w, bound: cone_points(cone, w, bound) + [(1, -3)]
    )
    with pytest.raises(InvariantViolation, match="leaves the cone's interior"):
        verify_colon_identity(quadrant_selection(), 6)

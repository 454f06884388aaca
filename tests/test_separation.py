"""Separation witnesses, from double-description passes or each cone's facet
arrangement, checked against a Fourier-Motzkin oracle and the former
double-description separation, and line shellings."""

import copy
import pickle
import random
import sys
from fractions import Fraction
from itertools import combinations
from math import comb, gcd
from threading import Thread

import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from recdom import enumerator, separation
from recdom.corpus import (
    corpus_cones,
    facet_pairs_sharing_a_ray,
    facet_pairs_sharing_no_ray,
    pentagon_cone,
    quadrant,
    random_polygon_cone,
    square_cone,
)
from recdom.enumerator import FacetSelection, default_grading, reciprocity_check
from recdom.geometry import (
    GF2,
    QQ,
    Cone,
    InvariantViolation,
    cross_section_vertices,
    dot,
    extreme_rays,
    faces_of,
    integer_kernel,
    primitive,
    rank_over_field,
)
from recdom.separation import (
    DegeneratePoint,
    SeparationResult,
    ShellingOrder,
    is_shelling_prefix,
    line_shelling,
    separation_witness,
    shelling_through_witness,
)
from recdom.separation import _flats as separation_flats
from recdom.topology import (
    SimplicialComplex,
    _all_faces,
    barycentric,
    boundary_subcomplex,
    is_cohen_macaulay,
    recognize_ball_sphere,
)


def oracle_strict_feasible_point(rows, dim):
    """A point with r.x > 0 for every row, or None if there is none.

    Fourier-Motzkin elimination over exact rationals, from the last coordinate
    down.  Every inequality here is strict, and positive-negative combinations
    of strict inequalities stay strict, so a derived all-zero row reads 0 > 0
    and kills the system.  Back substitution walks the stages in reverse,
    picking interval midpoints (or a unit step off a one-sided bound)."""
    rows = [tuple(Fraction(a) for a in r) for r in rows]
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


def signed_rows(selection):
    return [
        f.coeffs if i in selection.selected else tuple(-a for a in f.coeffs)
        for i, f in enumerate(selection.cone.facets)
    ]


def check_against_oracle(selection):
    """The verdict matches the oracle's; a witness is a primitive lattice
    point with the required strict sign on every facet."""
    cone = selection.cone
    result = separation_witness(selection)
    oracle = oracle_strict_feasible_point(signed_rows(selection), cone.dim)
    assert result.separable == (oracle is not None), sorted(selection.selected)
    if result.separable:
        assert all(type(a) is int for a in result.witness)
        assert gcd(*result.witness) == 1
        for i, facet in enumerate(cone.facets):
            value = facet(result.witness)
            assert value > 0 if i in selection.selected else value < 0
    else:
        assert result.witness is None


def all_selections(cone):
    n = len(cone.facets)
    for size in range(1, n):
        for subset in combinations(range(n), size):
            yield FacetSelection(cone, frozenset(subset))


def cyclic_cone():
    """The 4-D cone over the cyclic polytope (t, t^2, t^3), t = -5..4: 16 facets."""
    return Cone.from_rays([(t, t * t, t**3, 1) for t in range(-5, 5)])


def test_witness_quadrant():
    sel = FacetSelection(quadrant(), frozenset({0}))
    result = separation_witness(sel)
    assert result.separable
    assert result.witness == (Fraction(-1), Fraction(1))


def test_witness_square_adjacent():
    cone = square_cone()
    sel = FacetSelection(cone, facet_pairs_sharing_a_ray(cone)[0])
    result = separation_witness(sel)
    assert result.separable
    for i, facet in enumerate(cone.facets):
        value = facet(result.witness)
        assert value > 0 if i in sel.selected else value < 0


def test_witness_square_opposite_infeasible():
    cone = square_cone()
    sel = FacetSelection(cone, facet_pairs_sharing_no_ray(cone)[0])
    assert not separation_witness(sel).separable


def test_witness_verified_on_all_corpus_selections():
    cones = list(corpus_cones().values()) + [random_polygon_cone(s) for s in range(1, 40, 6)]
    for cone in cones:
        for selection in all_selections(cone):
            check_against_oracle(selection)


def test_verdicts_match_oracle_on_cyclic_cone():
    # Fourier-Motzkin squares its row count per eliminated variable here
    cone = cyclic_cone()
    assert len(cone.facets) == 16
    rng = random.Random(16)
    for _ in range(20):
        size = rng.randint(1, 15)
        check_against_oracle(FacetSelection(cone, frozenset(rng.sample(range(16), size))))


def test_signed_cone_of_one_ray_is_not_separable():
    # The cone over the square pyramid with base (+-1, +-1, 0) and apex
    # (0, 0, 1): on these selections the signed facet rows cut out a single
    # ray, a cone that is neither full-dimensional nor {0}.
    cone = Cone.from_rays([(x, y, 0, 1) for x in (1, -1) for y in (1, -1)] + [(0, 0, 1, 1)])
    assert len(cone.facets) == 5
    for selected in ({0, 4}, {1, 3}, {0, 2, 4}, {1, 2, 3}):
        selection = FacetSelection(cone, frozenset(selected))
        lineality, rays = extreme_rays([], signed_rows(selection), cone.dim)
        assert lineality == [] and len(rays) == 1
        assert not separation_witness(selection).separable
        check_against_oracle(selection)


@st.composite
def pointed_selections(draw):
    """A facet selection of a pointed full-dimensional cone in R^2..R^4
    spanned by at most 8 integer rays, each with a positive last coordinate."""
    dim = draw(st.integers(2, 4))
    ray = st.tuples(*[st.integers(-3, 3)] * (dim - 1), st.integers(1, 3))
    rays = draw(st.lists(ray, min_size=dim, max_size=8, unique=True))
    assume(rank_over_field(rays) == dim)
    cone = Cone.from_rays(rays)
    n = len(cone.facets)
    selected = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
    return FacetSelection(cone, frozenset(selected))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(pointed_selections())
def test_verdicts_match_oracle_on_random_cones(selection):
    check_against_oracle(selection)


def oracle_separation_witness(selection):
    """The former separation: one double-description pass over the signed
    facet rows per selection, then the same rank test, sum and signs."""
    cone = selection.cone
    lineality, rays = extreme_rays([], signed_rows(selection), cone.dim)
    if rank_over_field(lineality + rays) < cone.dim:
        return SeparationResult(False)
    point = primitive(tuple(map(sum, zip(*rays))))
    for i, facet in enumerate(cone.facets):
        value = facet(point)
        if not (value > 0 if i in selection.selected else value < 0):
            raise InvariantViolation(f"the separation witness has the wrong sign on facet {i}")
    return SeparationResult(True, point)


def _separation_outcome(witness_fn, selection):
    try:
        return witness_fn(selection)
    except InvariantViolation as err:
        return type(err), str(err)


@st.composite
def cones_with_selections(draw):
    """A pointed full-dimensional cone in R^2..R^5 spanned by at most d + 3
    integer rays, each with a positive last coordinate, and up to 16 of its
    facet selections."""
    dim = draw(st.integers(2, 5))
    ray = st.tuples(*[st.integers(-2, 2)] * (dim - 1), st.integers(1, 2))
    rays = draw(st.lists(ray, min_size=dim + 1, max_size=dim + 3, unique=True))
    assume(rank_over_field(rays) == dim)
    cone = Cone.from_rays(rays)
    n = len(cone.facets)
    subset = st.frozensets(st.integers(0, n - 1), min_size=1, max_size=n - 1)
    selected = draw(st.lists(subset, min_size=1, max_size=16, unique=True))
    return [FacetSelection(cone, s) for s in selected]


def listed(cone):
    """The cone, with its flats listed up front whatever its size, so that
    every separation reads them."""
    separation._arrangement(cone)._flats = separation._flats(cone)
    return cone


@settings(derandomize=True, max_examples=120, deadline=None, report_multiple_bugs=False)
@given(cones_with_selections())
def test_separation_matches_double_description_oracle(selections):
    listed(selections[0].cone)
    for selection in selections:
        got = _separation_outcome(separation_witness, selection)
        assert got == _separation_outcome(oracle_separation_witness, selection)


def _drop_first_flat(cone):
    return separation_flats(cone)[1:]


def _flip_first_sign(cone):
    # one facet's sign on the first flat flips, and with it the result of
    # that flat's conformality test on every selection that differs from the
    # flat's sign vector only at that facet
    (u, positive, negative), *rest = separation_flats(cone)
    bit = (positive or negative) & -(positive or negative)
    return ((u, positive ^ bit, negative ^ bit), *rest)


@pytest.mark.parametrize("mutant", [_drop_first_flat, _flip_first_sign])
def test_oracle_property_catches_arrangement_mutants(monkeypatch, mutant):
    # the property above on the same examples, only without shrinking the
    # first failure it finds
    unshrunk = settings(
        derandomize=True, max_examples=120, deadline=None, phases=[Phase.generate]
    )(given(cones_with_selections())(
        test_separation_matches_double_description_oracle.hypothesis.inner_test
    ))
    monkeypatch.setattr(separation, "_flats", mutant)
    with pytest.raises(AssertionError):
        unshrunk()


def _counting(monkeypatch, name, calls):
    inner = getattr(separation, name)

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(separation, name, counted)


def test_separation_lists_flats_once_passes_have_paid(monkeypatch):
    # Work pin on every selection of the pentagon cone and the cyclic cone's
    # {0, 3, 7}.  Listing the pentagon's flats costs C(5, 2) (5 + 13) = 180
    # sign tests, less than one double-description pass is worth (300), so
    # its first selection lists them from C(5, 2) subsets and no selection
    # makes a pass.  The cyclic cone's cost C(16, 3) (16 + 32) = 26,880: one
    # selection is one pass, and the flats are listed on the 90th, the first
    # at which the passes are worth as much.
    pentagon, cyclic = Cone.from_rays(pentagon_cone().rays), cyclic_cone()
    kernel_calls, builds, subsets = [], [], []
    _counting(monkeypatch, "extreme_rays", kernel_calls)
    _counting(monkeypatch, "_flats", builds)
    _counting(monkeypatch, "_cofactor_line", subsets)
    for selection in all_selections(pentagon):
        assert separation_witness(selection) == oracle_separation_witness(selection)
    assert (kernel_calls, builds, len(subsets)) == ([], [(pentagon,)], comb(5, 2))
    del builds[:], subsets[:]
    for k, selection in enumerate(all_selections(cyclic)):
        if k == 0:
            selection = FacetSelection(cyclic, frozenset({0, 3, 7}))
        assert separation_witness(selection) == oracle_separation_witness(selection)
        assert len(builds) == (k >= 89) and len(kernel_calls) == min(k + 1, 89)
        if k == 100:
            break
    assert len(subsets) == comb(16, 3)


def test_arrangement_limit_caps_listing(monkeypatch):
    # With passes worth any number of sign tests, only the cap decides.  The
    # pentagon cone's listing, at 180 tests, is made at the limit; one past
    # it, no flat is made and every selection is one double-description pass.
    monkeypatch.setattr(separation, "PASS_TESTS", 10**9)
    monkeypatch.setattr(separation, "ARRANGEMENT_LIMIT", 180)
    listing = []
    _counting(monkeypatch, "_flats", listing)
    separation_witness(FacetSelection(pentagon_cone(), frozenset({0, 1})))
    assert len(listing) == 1
    monkeypatch.setattr(separation, "ARRANGEMENT_LIMIT", 179)
    monkeypatch.setattr(separation, "_cofactor_line", lambda rows: pytest.fail("built a flat"))
    kernel_calls = []
    _counting(monkeypatch, "extreme_rays", kernel_calls)
    selections = list(all_selections(pentagon_cone()))
    for selection in selections:
        assert separation_witness(selection) == oracle_separation_witness(selection)
    assert len(kernel_calls) == len(selections)


def test_arrangement_leaves_cone_equality_and_copies_alone():
    cone, fresh = pentagon_cone(), pentagon_cone()
    before = (hash(cone), repr(cone))
    result = separation_witness(FacetSelection(cone, frozenset({0, 1})))
    assert cone._arrangement is not None and fresh._arrangement is None
    assert cone == fresh and (hash(cone), repr(cone)) == before
    for other in (pickle.loads(pickle.dumps(cone)), copy.deepcopy(cone)):
        assert other._arrangement is None
        assert separation_witness(FacetSelection(other, frozenset({0, 1}))) == result


def test_arrangement_fills_safely_from_many_threads(monkeypatch):
    # Eight threads, more than the cores, share one fresh hexagon cone and
    # start at different selections under a short switch interval, so they
    # count double-description passes and list its flats at the same time:
    # at 10 tests a pass, its listing's 285 are paid on the 29th.  Every
    # separation and shelling must equal the one computed alone.
    monkeypatch.setattr(separation, "PASS_TESTS", 10)
    rays = [(-2, 1, 1), (-2, 2, 1), (-1, -2, 1), (0, 3, 1), (1, -1, 1), (3, 2, 1)]

    def chain(selection):
        result = separation_witness(selection)
        if not result.separable:
            return result, None
        return result, shelling_through_witness(selection, result.witness)

    alone = Cone.from_rays(rays)
    subsets = [s.selected for s in all_selections(alone)]
    expected = [chain(FacetSelection(alone, s)) for s in subsets]
    shared = Cone.from_rays(rays)
    got, errors = {}, []

    def work(offset):
        try:
            for i in range(offset, offset + len(subsets)):
                k = i % len(subsets)
                got.setdefault(k, []).append(chain(FacetSelection(shared, subsets[k])))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [Thread(target=work, args=(7 * t,)) for t in range(8)]
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
    assert all(got[k] == [expected[k]] * len(threads) for k in range(len(subsets)))


def test_separable_iff_contiguous_arc_on_polygon_cones():
    # for a cone over a polygon, a selection separates exactly when its
    # cross-section edges form one contiguous arc
    cone = pentagon_cone()
    n = len(cone.facets)
    adjacency = {
        frozenset((i, j))
        for i in range(n)
        for j in range(n)
        if i != j and cone.facets[i].incident_rays & cone.facets[j].incident_rays
    }

    def is_arc(subset):
        subset = set(subset)
        if len(subset) <= 1:
            return True
        edges = [p for p in adjacency if p <= subset]
        degree = {v: 0 for v in subset}
        for p in edges:
            for v in p:
                degree[v] += 1
        if sorted(degree.values()).count(1) != 2:
            return False
        return len(edges) == len(subset) - 1

    for size in range(1, n):
        for subset in combinations(range(n), size):
            sel = FacetSelection(cone, frozenset(subset))
            assert separation_witness(sel).separable == is_arc(subset), subset


# -- line shellings -------------------------------------------------------------


def oracle_crossing_order(cone, source):
    """Independent crossing-time sort for a steering point on the hyperplane."""
    verts = cross_section_vertices(cone)
    centroid = tuple(sum(c) / len(verts) for c in zip(*verts))
    direction = tuple(s - c for s, c in zip(source, centroid))
    times = []
    for i, facet in enumerate(cone.facets):
        t = -Fraction(facet(centroid)) / facet(direction)
        times.append((t, i))
    up = sorted((t, i) for t, i in times if t > 0)
    down = sorted((t, i) for t, i in times if t < 0)
    return tuple(i for _, i in up + down)


def oracle_line_shelling(cone, point):
    """The former line shelling, every product taken on Fractions."""
    pt = tuple(Fraction(a) for a in point)
    if len(pt) != cone.dim:
        raise ValueError(f"point has {len(pt)} coordinates, the cone has dimension {cone.dim}")
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
        at_centroid = dot(facet.coeffs, centroid)
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


def _outcome(shelling_fn, cone, point):
    try:
        result = shelling_fn(cone, point)
    except (DegeneratePoint, ValueError) as err:
        return type(err), str(err)
    # the same Fraction values, each of type Fraction
    assert all(type(x) is Fraction for x in result.source_point)
    return result


SHELLING_CONES = list(corpus_cones().values()) + [random_polygon_cone(s) for s in range(1, 7)]
FRACTIONS = st.fractions(min_value=-9, max_value=9, max_denominator=7)


@st.composite
def steering_points(draw):
    """A cone and a point: a random one, one with w.p = 0, one on a facet
    hyperplane, the centroid moved inside a facet's direction (a line
    parallel to that facet), or a small integer point (ties).  The 600
    examples below reach an order and each of the four DegeneratePoint
    messages."""
    cone = draw(st.sampled_from(SHELLING_CONES))
    d = cone.dim
    point = list(draw(st.lists(FRACTIONS, min_size=d, max_size=d)))
    kind = draw(st.sampled_from(["random", "degree-zero", "on-facet", "parallel", "integer"]))
    w = default_grading(cone)
    if kind in ("degree-zero", "on-facet"):
        normal = w if kind == "degree-zero" else draw(st.sampled_from(cone.facets)).coeffs
        j = next(i for i, a in enumerate(normal) if a)
        point[j] -= Fraction(dot(normal, point), normal[j])
    elif kind == "parallel":
        verts = cross_section_vertices(cone)
        centroid = [sum(col) / len(verts) for col in zip(*verts)]
        facet = draw(st.sampled_from(cone.facets))
        kernel = integer_kernel([facet.coeffs, w], d)
        step = draw(st.integers(1, 5))
        u = kernel[0] if kernel else (0,) * d
        point = [c + step * a for c, a in zip(centroid, u)]
    elif kind == "integer":
        point = draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d))
    return cone, tuple(point)


@settings(derandomize=True, max_examples=600, deadline=None)
@given(steering_points())
def test_line_shelling_matches_fraction_oracle(case):
    cone, point = case
    assert _outcome(line_shelling, cone, point) == _outcome(oracle_line_shelling, cone, point)


def test_line_shelling_square_far_point():
    cone = square_cone()
    # far beyond the cross-section edge of the facet -x + z >= 0 (index 0)
    point = (Fraction(20), Fraction(3, 5), Fraction(1))
    shelling = line_shelling(cone, point)
    assert shelling.order[0] == 0
    assert shelling.order[-1] == 3  # the opposite edge x = 0 comes last
    assert set(shelling.order[1:3]) == {1, 2}
    assert shelling.order == oracle_crossing_order(cone, shelling.source_point)
    # rerunning from the stored source reproduces the order
    assert line_shelling(cone, shelling.source_point).order == shelling.order


def test_line_shelling_simplex_first_exit():
    cone = pentagon_cone()
    w = default_grading(cone)
    for target_facet in range(len(cone.facets)):
        result = None
        # steer far beyond one facet: centroid of its cross-section edge,
        # pushed along the outward normal within the hyperplane
        verts = cross_section_vertices(cone)
        ids = sorted(cone.facets[target_facet].incident_rays)
        centroid = tuple(sum(c) / len(verts) for c in zip(*verts))
        for t in (Fraction(2, 5), Fraction(3, 7), Fraction(5, 11), Fraction(4, 9)):
            mid = tuple(
                verts[ids[0]][k] + t * (verts[ids[1]][k] - verts[ids[0]][k])
                for k in range(3)
            )
            candidate = tuple(c + 9 * (m - c) for c, m in zip(centroid, mid))
            try:
                result = line_shelling(cone, candidate)
                break
            except DegeneratePoint:
                continue
        assert result is not None
        assert result.order[0] == target_facet


def test_line_shelling_degenerate_point_on_hyperplane():
    cone = square_cone()
    # the cross-section centroid itself lies on no facet, but a point on the
    # x = 0 hyperplane must be rejected
    with pytest.raises(DegeneratePoint):
        line_shelling(cone, (Fraction(0), Fraction(1, 3), Fraction(1)))


def test_line_shelling_degenerate_parallel():
    cone = square_cone()
    # direction parallel to two opposite edges gives no crossing
    with pytest.raises(DegeneratePoint):
        line_shelling(cone, (Fraction(1, 2), Fraction(10), Fraction(1)))


def test_is_shelling_prefix():
    cone = square_cone()
    adjacent = FacetSelection(cone, facet_pairs_sharing_a_ray(cone)[0])
    result = separation_witness(adjacent)
    shelling = shelling_through_witness(adjacent, result.witness)
    assert is_shelling_prefix(adjacent, shelling)
    opposite = FacetSelection(cone, facet_pairs_sharing_no_ray(cone)[0])
    assert not is_shelling_prefix(opposite, shelling)


def test_witness_retry_skips_perturbations_off_the_selection_pattern(monkeypatch):
    # The witness lies on the hyperplane z = x of a selected facet and within
    # 2^-6 of the others, and w.x < 0, so its steering point x / (w.x) lies
    # on that hyperplane too.  The first perturbation, by offsets up to 2^-5,
    # is on the wrong side of three facet hyperplanes; a line shelling
    # steered by it would not start with the selection, so the retry must
    # skip it.
    cone = square_cone()
    facet = {f.coeffs: i for i, f in enumerate(cone.facets)}
    selection = FacetSelection(cone, frozenset({facet[(-1, 0, 1)], facet[(0, -1, 1)]}))
    witness = (Fraction(-1, 128), Fraction(-1, 64), Fraction(-1, 128))
    assert [f(witness) for f in cone.facets] == [0, Fraction(1, 128), Fraction(-1, 64), Fraction(-1, 128)]
    steered = []
    integer_body = separation._line_shelling

    def recording(cone, den, row):
        steered.append((den, row))
        return integer_body(cone, den, row)

    monkeypatch.setattr(separation, "_line_shelling", recording)
    shelling = shelling_through_witness(selection, witness)
    assert is_shelling_prefix(selection, shelling)
    assert len(steered) == 2  # the witness itself, then the second perturbation


def test_square_shellings_are_contiguous_arcs():
    # scan many generic steering points: every prefix of every line shelling
    # of the square cross-section is a contiguous arc, so an opposite pair is
    # never a prefix
    cone = square_cone()
    opposite_pairs = facet_pairs_sharing_no_ray(cone)
    found = 0
    for px in range(-6, 7, 3):
        for py in range(-5, 6, 2):
            try:
                shelling = line_shelling(
                    cone, (Fraction(px, 7), Fraction(py, 5), Fraction(1))
                )
            except DegeneratePoint:
                continue
            found += 1
            for pair in opposite_pairs:
                assert set(shelling.order[:2]) != pair
    assert found > 10


def test_every_shelling_prefix_is_cm_ball():
    cone = pentagon_cone()
    shelling = line_shelling(cone, (Fraction(9), Fraction(5, 3), Fraction(1)))
    for k in range(1, len(shelling.order)):
        sel = FacetSelection(cone, frozenset(shelling.order[:k]))
        cross = boundary_subcomplex(sel)
        simplicial = SimplicialComplex.from_faces(
            len(cross.vertices), [c.vertices for c in cross.maximal_cells()]
        )
        assert recognize_ball_sphere(simplicial) == "ball", k
        for field in (QQ, GF2):
            assert is_cohen_macaulay(barycentric(cross), field).is_cm


def test_witness_chain_end_to_end():
    for name, cone in corpus_cones().items():
        n = len(cone.facets)
        for size in range(1, n):
            for subset in combinations(range(n), size):
                sel = FacetSelection(cone, frozenset(subset))
                result = separation_witness(sel)
                if not result.separable:
                    continue
                shelling = shelling_through_witness(sel, result.witness)
                assert is_shelling_prefix(sel, shelling), (name, subset)
                cross = boundary_subcomplex(sel)
                simplicial = SimplicialComplex.from_faces(
                    len(cross.vertices), [c.vertices for c in cross.maximal_cells()]
                )
                assert recognize_ball_sphere(simplicial) == "ball", (name, subset)
                assert all(
                    is_cohen_macaulay(barycentric(cross), f).is_cm for f in (QQ, GF2)
                )
                assert reciprocity_check(sel).holds, (name, subset)


def test_chain_makes_no_fraction_solves(fraction_solves):
    # Work guard: with every cache of the chain emptied, the witness
    # shelling and the reciprocity check of a fresh cone run without a
    # Fraction row reduction.
    cone = Cone.from_rays([(-2, 1, 1), (-2, 2, 1), (-1, -2, 1), (0, 3, 1), (1, -1, 1), (3, 2, 1)])
    for cache in (
        faces_of,
        _all_faces,
        enumerator._face_gf,
        enumerator._face_decomposition,
        enumerator._pulling_triangulation,
    ):
        cache.cache_clear()
    checked = 0
    for selection in all_selections(cone):
        result = separation_witness(selection)
        if result.separable:
            shelling_through_witness(selection, result.witness)
            checked += 1
        reciprocity_check(selection)
    assert checked == 30 and fraction_solves == []


@st.composite
def chain_selections(draw):
    """A facet selection of a pointed cone in R^3 or R^4 spanned by dim + 1
    to 7 integer rays, each with a positive last coordinate."""
    dim = draw(st.integers(3, 4))
    ray = st.tuples(*[st.integers(-2, 2)] * (dim - 1), st.integers(1, 2))
    rays = draw(st.lists(ray, min_size=dim + 1, max_size=7, unique=True))
    assume(rank_over_field(rays) == dim)
    cone = Cone.from_rays(rays)
    n = len(cone.facets)
    selected = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
    return FacetSelection(cone, frozenset(selected))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(chain_selections())
def test_separable_selections_satisfy_the_chain(selection):
    # separable => the witness line shelling starts with the selection =>
    # the cross-section of the removed boundary part is a ball => it is
    # Cohen-Macaulay over Q and F2 => the reciprocity identity holds
    result = separation_witness(selection)
    if not result.separable:
        return
    shelling = shelling_through_witness(selection, result.witness)
    assert is_shelling_prefix(selection, shelling)
    subdivided = barycentric(boundary_subcomplex(selection))
    assert recognize_ball_sphere(subdivided) == "ball"
    assert all(is_cohen_macaulay(subdivided, field).is_cm for field in (QQ, GF2))
    report = reciprocity_check(selection)
    assert report.holds and report.cm_over == {"Q": True, "F2": True}

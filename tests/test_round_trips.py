"""JSON round trips of random cones and complexes, in memory and through the CLI.

Each input goes to its JSON object, through JSON text, and back, and must come
back equal.  The same object, written to a file and run through the CLI, must
give the report that the command's library calls give in memory on the
original input."""

import io
import json
import os
import tempfile
from contextlib import redirect_stdout

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from recdom import jsonio
from recdom.cli import main
from recdom.geometry import GF2, QQ, Cone, FacetSelection, rank_over_field
from recdom.lifting import embedded_complex, lift, verify_lower_hull
from recdom.separation import separation_witness
from recdom.topology import SimplicialComplex, is_cohen_macaulay, reduced_homology


def through_text(data):
    return json.loads(jsonio.dumps(data))


def cli_report(command, data, *options):
    """Exit code and JSON report of ``recdom command`` on ``data`` written to
    a temporary file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w") as handle:
            handle.write(jsonio.dumps(data))
        out = io.StringIO()
        with redirect_stdout(out):
            code = main([command, path, "--json", *options])
    return code, json.loads(out.getvalue())


@st.composite
def cones(draw):
    """A pointed full-dimensional cone in R^2..R^4 spanned by at most 6
    integer rays, each with a positive last coordinate, and one facet index."""
    dim = draw(st.integers(2, 4))
    ray = st.tuples(*[st.integers(-3, 3)] * (dim - 1), st.integers(1, 3))
    rays = draw(st.lists(ray, min_size=dim, max_size=6, unique=True))
    assume(rank_over_field(rays) == dim)
    cone = Cone.from_rays(rays)
    return cone, draw(st.integers(0, len(cone.facets) - 1))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(cones())
def test_cone_round_trip(case):
    cone, facet = case
    data = jsonio.cone_to_dict(cone)
    assert jsonio.cone_from_dict(through_text(data)) == cone
    result = separation_witness(FacetSelection(cone, frozenset({facet})))
    report = {
        "separable": result.separable,
        "witness": [jsonio.fraction_str(x) for x in result.witness] if result.witness else None,
    }
    code = 0 if result.separable else 1
    assert cli_report("separate", data, "--select", str(facet)) == (code, report)


@st.composite
def simplicial_complexes(draw):
    """Up to five faces of up to four vertices on at most six vertices, some
    of which may be unused."""
    n = draw(st.integers(1, 6))
    face = st.sets(st.integers(0, n - 1), min_size=1, max_size=4)
    return SimplicialComplex.from_faces(n, draw(st.lists(face, min_size=1, max_size=5)))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(simplicial_complexes())
def test_simplicial_round_trip(sc):
    data = jsonio.simplicial_to_dict(sc)
    assert jsonio.simplicial_from_dict(through_text(data)) == sc
    verdicts, betti = {}, {}
    for field in (QQ, GF2):
        cert = is_cohen_macaulay(sc, field)
        verdicts[field.label] = {
            "is_cm": cert.is_cm,
            "failing_face": list(cert.failing_face) if cert.failing_face is not None else None,
            "failing_index": cert.failing_index,
            "failing_betti": cert.failing_betti,
        }
        betti[field.label] = list(reduced_homology(sc, field).betti)
    code = 0 if all(v["is_cm"] for v in verdicts.values()) else 1
    assert cli_report("cm", data) == (code, {"cm": verdicts, "betti": betti})


GRID_TRIANGLES = [
    tri
    for x in range(2)
    for y in range(2)
    for tri in (((x, y), (x + 1, y), (x, y + 1)), ((x + 1, y), (x, y + 1), (x + 1, y + 1)))
]
RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def embedded_complexes(draw):
    """Segments between consecutive points of a line, or triangles of a
    triangulated 2x2 grid, scaled by a positive rational and moved by a
    rational offset, so that coordinates are written as "p/q"."""
    if draw(st.booleans()):
        ends = draw(st.lists(st.integers(0, 12), min_size=2, max_size=5, unique=True))
        ends.sort()
        gaps = draw(st.sets(st.integers(0, len(ends) - 2), min_size=1))
        cells = [((ends[i],), (ends[i + 1],)) for i in sorted(gaps)]
    else:
        cells = draw(st.lists(st.sampled_from(GRID_TRIANGLES), min_size=1, max_size=3, unique=True))
    scale = draw(RATIONALS.filter(lambda q: q > 0))
    offset = draw(st.lists(RATIONALS, min_size=len(cells[0][0]), max_size=len(cells[0][0])))
    cells = [tuple(tuple(scale * a + b for a, b in zip(p, offset)) for p in cell) for cell in cells]
    vertices = sorted({p for cell in cells for p in cell})
    index = {p: i for i, p in enumerate(vertices)}
    return embedded_complex(vertices, [tuple(index[p] for p in cell) for cell in cells])


@settings(derandomize=True, max_examples=40, deadline=None)
@given(embedded_complexes())
def test_embedded_round_trip(pc):
    data = jsonio.embedded_to_dict(pc)
    again = jsonio.embedded_from_dict(through_text(data))
    assert again.vertices == pc.vertices and again.cells == pc.cells
    result = lift(pc)
    hull_ok = verify_lower_hull(result)
    report = {
        "max_value": jsonio.fraction_str(result.max_value),
        "margin": result.margin,
        "subdivision": jsonio.embedded_to_dict(result.subdivision),
        "lift_values": [jsonio.fraction_str(v) for v in result.lift_values],
        "polytope_vertices": [[jsonio.fraction_str(x) for x in v] for v in result.polytope_vertices],
        "lower_hull_verified": hull_ok,
    }
    assert hull_ok and cli_report("lift", data) == (0, report)

"""JSON schemas for cones, complexes and reports.

Cones: {"dim": d, "rays": [[int, ...], ...]} or {"inequalities": [[int, ...], ...]}.
Complexes: {"vertices": [["p/q", ...], ...], "facets": [[int, ...], ...]} with an
optional "ambient_dim".  Rational numbers are encoded as strings "p/q" (plain
integers are accepted).  All emitters sort keys so output is byte stable.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .geometry import Cone
from .lifting import embedded_complex
from .topology import PolyhedralComplex, SimplicialComplex


def parse_fraction(value) -> Fraction:
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator: {value!r}") from None
    raise ValueError(f"not a rational: {value!r}")


def fraction_str(f: Fraction) -> str:
    f = Fraction(f)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _required(data: dict, key: str, kind: str):
    if key not in data:
        raise ValueError(f'{kind} JSON needs "{key}"')
    return data[key]


def _integer_vectors(data: dict, key: str, kind: str = "cone") -> list[tuple[int, ...]]:
    rows = _required(data, key, kind)
    if not isinstance(rows, list) or not rows:
        raise ValueError(f'{kind} JSON "{key}" must be a nonempty list')
    for row in rows:
        if not isinstance(row, list) or any(type(a) is not int for a in row):
            raise ValueError(f'{kind} JSON "{key}" entries must be lists of integers, got {row!r}')
    return [tuple(row) for row in rows]


def vertex_lists(data: dict, key: str, n_vertices=None) -> list[tuple[int, ...]]:
    """Nonempty lists of vertex indices, each below ``n_vertices`` if given."""
    cells = _integer_vectors(data, key, "complex")
    for cell in cells:
        if not cell or any(v < 0 or (n_vertices is not None and v >= n_vertices) for v in cell):
            raise ValueError(
                f'complex JSON "{key}" entries must be nonempty lists of vertex indices, '
                f"got {list(cell)!r}"
            )
    return cells


def vertex_points(data: dict) -> list[tuple[Fraction, ...]]:
    """The "vertices" list: rational points, all of one dimension."""
    points = _required(data, "vertices", "complex")
    if (
        not isinstance(points, list)
        or not points
        or not all(isinstance(p, list) for p in points)
        or len({len(p) for p in points}) != 1
    ):
        raise ValueError('complex JSON "vertices" must be a nonempty list of points of one length')
    return [tuple(parse_fraction(x) for x in p) for p in points]


def _check_declared(data: dict, key: str, kind: str, computed: int) -> None:
    if key not in data:
        return
    if type(data[key]) is not int:
        raise ValueError(f'{kind} JSON "{key}" must be an integer, got {data[key]!r}')
    if data[key] != computed:
        raise ValueError(f"{kind} JSON says {key} {data[key]}, computed {computed}")


def cone_from_dict(data: dict) -> Cone:
    if "rays" in data:
        cone = Cone.from_rays(_integer_vectors(data, "rays"))
    elif "inequalities" in data:
        cone = Cone.from_inequalities(_integer_vectors(data, "inequalities"))
    else:
        raise ValueError('cone JSON needs "rays" or "inequalities"')
    _check_declared(data, "dim", "cone", cone.dim)
    return cone


def cone_to_dict(cone: Cone) -> dict:
    return {"dim": cone.dim, "rays": [list(r) for r in cone.rays]}


def simplicial_from_dict(data: dict) -> SimplicialComplex:
    """A simplicial complex from its facets; "vertices", when given, lists
    one (placeholder) entry per vertex and bounds the vertex indices."""
    n_vertices = None
    if "vertices" in data:
        if not isinstance(data["vertices"], list):
            raise ValueError(f'complex JSON "vertices" must be a list, got {data["vertices"]!r}')
        n_vertices = len(data["vertices"])
    facets = vertex_lists(data, "facets", n_vertices)
    for facet in facets:
        if len(set(facet)) != len(facet):
            raise ValueError(f'complex JSON "facets" entry {list(facet)!r} repeats a vertex')
    if n_vertices is None:
        n_vertices = 1 + max(v for f in facets for v in f)
    return SimplicialComplex.from_faces(n_vertices, facets)


def simplicial_to_dict(sc: SimplicialComplex) -> dict:
    # placeholder 1-d coordinates: the schema carries vertices, homology does not
    return {
        "vertices": [[fraction_str(Fraction(i))] for i in range(sc.n_vertices)],
        "facets": [list(f) for f in sc.facets],
    }


def embedded_from_dict(data: dict) -> PolyhedralComplex:
    vertices = vertex_points(data)
    pc = embedded_complex(vertices, vertex_lists(data, "facets", len(vertices)))
    _check_declared(data, "ambient_dim", "complex", pc.ambient_dim)
    return pc


def embedded_to_dict(pc: PolyhedralComplex) -> dict:
    return {
        "ambient_dim": pc.ambient_dim,
        "vertices": [[fraction_str(x) for x in p] for p in pc.vertices],
        "facets": [list(c.vertices) for c in pc.maximal_cells()],
    }


def gf_to_dict(gf) -> dict:
    return {
        "numerator": [
            {"exponent": list(e), "coefficient": c}
            for e, c in sorted(gf.numerator.terms.items())
        ],
        "denominator_rays": [list(v) for v in gf.denom_rays],
    }


def series_to_dict(series) -> dict:
    return {
        "grading": list(series.grading),
        "bound": series.bound,
        "points": [list(e) for e in series.support()],
        "degree_counts": {str(k): v for k, v in series.degree_counts().items()},
    }


def read(path) -> dict:
    """The JSON object in the file at ``path``.

    Raises ``ValueError`` when the file holds any other JSON value, and
    ``OSError`` when it cannot be read."""
    with open(path) as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError(f"JSON input must be an object, got {type(data).__name__}")
    return data


def dumps(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"

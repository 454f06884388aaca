"""Seeded inputs, operations and verdict checks of the benchmark workloads.

Inputs (rays, grid cubes, grid triangles) are plain tuples built from fixed
shapes with the benchmark's own helpers, never recdom's, so that a change to
the library cannot change them.  Everything from the inputs onward is the
program's work and is timed, including ``Cone.from_rays``,
``SimplicialComplex.from_faces`` and ``embedded_complex``.

Inputs come in rounds, and every round holds each shape once: fixed
polygons, simplices, unions of squares and triangle sets, written out below.
``random.Random(seed)`` picks how each shape is presented, that is its
lattice symmetry, its translation or its vertex labels, and the order.
Presentations of one shape do the same work, up to the order in which the
library visits it, while different shapes of one size differ up to sixfold;
fixing the shapes makes runs of different seeds do comparable work, so their
figures can be compared.  No cone or complex repeats within a run: cache
hits come only from work that distinct inputs really share (the selections
of one cone, the fields of one complex).  A run ends early once a shape has
no unseen presentation left.

``Workload.ops(item)`` is a generator that does one operation per ``next``
and yields a small record of its verdicts; ``Workload.check(records)`` is
run after the measured window and returns one message per operation whose
verdicts are wrong.  Library functions are looked up as module attributes
at call time, so a traced run sees every call.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations, product

from recdom import enumerator, geometry, lifting, separation, topology

MAX_DRAWS = 2_000


class InputsExhausted(Exception):
    """No input unseen in this run could be drawn."""


def lattice_images(points):
    """Distinct images of a point set under the signed permutations of the
    coordinates, the symmetries of the lattice Z^d that fix the origin."""
    d = len(points[0])
    images = set()
    for axes in permutations(range(d)):
        for signs in product((1, -1), repeat=d):
            images.add(tuple(sorted(tuple(s * p[a] for s, a in zip(signs, axes)) for p in points)))
    return sorted(images)


class Workload:
    """Rounds of seeded inputs; subclasses define the round mix and the ops."""

    name = ""
    # Rounds in a traced run: a fixed amount of work, so counts repeat exactly.
    trace_rounds = 1

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self._seen: set = set()
        self._rounds: list[list] = []
        self._queues: dict = {}

    def round(self, index: int) -> list:
        """Inputs of round ``index``; the same list every time it is asked for.

        Empty once the input space has no unseen input left for a round."""
        while len(self._rounds) <= index:
            try:
                self._rounds.append(self._draw_round())
            except InputsExhausted:
                return []
        return self._rounds[index]

    def _fresh(self, draw, *args):
        for _ in range(MAX_DRAWS):
            item, key = draw(*args)
            if key not in self._seen:
                self._seen.add(key)
                return item
        raise InputsExhausted(f"{self.name}: no unseen input from {draw.__name__}{args}")

    def _take(self, key, candidates):
        """The next of ``candidates`` in a seeded order; each is taken once."""
        queue = self._queues.get(key)
        if queue is None:
            queue = self._queues[key] = list(candidates)
            self.rng.shuffle(queue)
        if not queue:
            raise InputsExhausted(f"{self.name}: every presentation of {key} was taken")
        return queue.pop()

    def _draw_round(self) -> list:
        raise NotImplementedError

    def ops(self, item):
        raise NotImplementedError

    def check(self, records) -> list[str]:
        raise NotImplementedError


class Selections(Workload):
    """The paper's chain on every selection of 3-D polygon cones and 4-D cones."""

    name = "selections"
    trace_rounds = 1
    # Per round, each of these cones once, in a seeded lattice symmetry
    # (48 of them for the 3-D cones, 384 for the 4-D ones): two each of
    # quadrilaterals, pentagons and hexagons of twice-area 20, 24 and 30,
    # centred on the axis of the cone, and two lattice tetrahedra of volume
    # 2/6 in [-1, 1]^3.  The polygons carry most of the time, as in the main
    # use, where gf_equal dominates; the 4-D cones add links of 2-D complexes.
    CONES = tuple(
        tuple(p + (1,) for p in points)
        for points in (
            ((-3, 2), (-2, -1), (2, 1), (3, 2)),
            ((-2, 2), (-1, -1), (2, -2), (3, 0)),
            ((-3, -1), (-2, 1), (0, 2), (1, 2), (3, -1)),
            ((-2, -2), (-1, -3), (-1, 0), (2, -1), (2, 3)),
            ((-2, 2), (-2, 4), (-1, 3), (0, -4), (2, -4), (2, -2)),
            ((-2, 1), (-2, 2), (-1, -2), (0, 3), (1, -1), (3, 2)),
            ((-1, -1, 1), (0, 1, 0), (0, 1, 1), (1, 1, 1)),
            ((-1, 1, 1), (0, -1, 0), (0, -1, 1), (1, -1, -1)),
        )
    )

    def _draw_round(self):
        return [self._take(rays, lattice_images(rays)) for rays in self.CONES]

    def ops(self, rays):
        cone = geometry.Cone.from_rays(rays)
        n = len(cone.facets)
        for size in range(1, n):
            for subset in combinations(range(n), size):
                selection = enumerator.FacetSelection(cone, frozenset(subset))
                result = separation.separation_witness(selection)
                prefix = None
                if result.separable:
                    shelling = separation.shelling_through_witness(selection, result.witness)
                    prefix = separation.is_shelling_prefix(selection, shelling)
                report = enumerator.reciprocity_check(selection)
                yield selection, result.separable, prefix, report.holds, dict(report.cm_over)

    def check(self, records):
        wrong = []
        for selection, separable, prefix, holds, cm in records:
            where = f"rays {selection.cone.rays} selection {sorted(selection.selected)}"
            if any(cm.values()) and not holds:
                wrong.append(f"{where}: CM over {cm} but reciprocity fails")
                continue
            if not separable:
                continue
            cross = topology.boundary_subcomplex(selection)
            shape = topology.recognize_ball_sphere(topology.barycentric(cross))
            if not (prefix and shape == "ball" and all(cm.values()) and holds):
                wrong.append(
                    f"{where}: separable but prefix={prefix} shape={shape} cm={cm} holds={holds}"
                )
        return wrong


class Dilations(Workload):
    """Lattice scan against series expansion, and a failing reciprocity
    check, on one fresh dilated quadrilateral cone per operation."""

    name = "dilations"
    FACTORS = tuple(range(3, 14))
    # Odd factors dilate a unit square, even ones an area-3/2 quadrilateral,
    # each with a vertex at the origin, in a seeded lattice symmetry of Z^3
    # (24 distinct ones for the square, 48 for the quadrilateral).  Moving a
    # polygon off the origin makes its scans up to six times costlier.
    BASES = (((0, 0), (1, 0), (1, 1), (0, 2)), ((0, 0), (1, 0), (1, 1), (0, 1)))

    def _draw_round(self):
        factors = list(self.FACTORS)
        self.rng.shuffle(factors)
        round_ = []
        for k in factors:
            rays = tuple((k * x, k * y, 1) for x, y in self.BASES[k % 2])
            round_.append(self._take(rays, lattice_images(rays)))
        return round_

    def ops(self, rays):
        cone = geometry.Cone.from_rays(rays)
        w = enumerator.default_grading(cone)
        bound = max(geometry.dot(w, r) for r in cone.rays)
        facets = cone.facets
        opposite = next(
            frozenset((i, j))
            for i, j in combinations(range(len(facets)), 2)
            if not facets[i].incident_rays & facets[j].incident_rays
        )
        selection = enumerator.FacetSelection(cone, opposite)
        agree = []
        for side in enumerator.SIDES:
            spec = enumerator.DomainSpec(selection, side)
            direct = enumerator.lattice_points(spec, w, bound)
            series = enumerator.expand(enumerator.domain_gf(spec), w, bound)
            agree.append(direct == series)
        report = enumerator.reciprocity_check(selection)
        yield rays, tuple(agree), report.holds, report.witness

    def check(self, records):
        wrong = []
        for rays, agree, holds, witness in records:
            if not all(agree):
                wrong.append(f"rays {rays}: expand(domain_gf) != lattice_points {agree}")
            elif holds or witness.get("kind") != "disagreement" or witness["lhs"] == witness["rhs"]:
                wrong.append(f"rays {rays}: opposite pair gave holds={holds} witness={witness}")
        return wrong


def cube_tetrahedra(cubes):
    """Vertex count and tetrahedra of unit grid cubes, six per cube.

    Each cube is split along sorted-coordinate chains, so neighbouring cubes
    agree on shared faces; vertices are the sorted cube corners."""
    corners = sorted(
        {tuple(c + o for c, o in zip(cube, off)) for cube in cubes for off in product((0, 1), repeat=3)}
    )
    index = {c: i for i, c in enumerate(corners)}
    tetrahedra = []
    for cube in sorted(cubes):
        for axes in permutations(range(3)):
            chain = [cube]
            for axis in axes:
                step = list(chain[-1])
                step[axis] += 1
                chain.append(tuple(step))
            tetrahedra.append(tuple(sorted(index[p] for p in chain)))
    return len(corners), tuple(sorted(tetrahedra))


def is_disk(squares) -> bool:
    """Whether a union of unit squares is a closed disk.

    It is when the squares are connected through edges, no two of them meet
    only at a corner, and the union has Euler characteristic 1 (no holes).
    The slab over a disk is a 3-ball, which is Cohen-Macaulay over every
    field; the slab over anything else is not, so this is an oracle for the
    Cohen-Macaulay verdicts that shares no code with the library."""
    cells = set(squares)
    for x, y in cells:
        for dy in (1, -1):
            if (x + 1, y + dy) in cells and (x + 1, y) not in cells and (x, y + dy) not in cells:
                return False
    start = next(iter(cells))
    reached, frontier = {start}, [start]
    while frontier:
        x, y = frontier.pop()
        for step in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if step in cells and step not in reached:
                reached.add(step)
                frontier.append(step)
    if reached != cells:
        return False
    corners = {(x + i, y + j) for x, y in cells for i in (0, 1) for j in (0, 1)}
    edges = {((x, y), (x + 1, y)) for x, y in cells} | {((x, y + 1), (x + 1, y + 1)) for x, y in cells}
    edges |= {((x, y), (x, y + 1)) for x, y in cells} | {((x + 1, y), (x + 1, y + 1)) for x, y in cells}
    return len(corners) - len(edges) + len(cells) == 1


class Complexes(Workload):
    """Cohen-Macaulay tests of cube-slab complexes over Q, F2 and F_1000003."""

    name = "complexes"
    FIELDS = (geometry.QQ, geometry.GF2, geometry.FieldSpec(1000003))
    # Per round, each of these unions of unit squares once, drawn row by row
    # ("#" a square): for each grid 3x3, 3x4, 4x3 and 4x4, two disks and one
    # union that is not a disk, so every round has the same mix of full link
    # scans and early failures.  The seed relabels the vertices of each slab.
    SLABS = (
        "### #.# ..#", "### .## ..#", "##. ..# ###",
        ".#. ### ### .#.", ".## ..# .## ###", "#.# .## .#. ###",
        "#.## ###. #.#.", "##.# .### .##.", "#### ...# #.##",
        "###. .### .#.. ####", "#.#. #.## #### .##.", "##.# ##.# ##.. #.##",
    )
    # Checked after the window, not timed: in the rounds they would be a
    # different mix from the rest.
    FULL = ((2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (4, 4))

    def _draw_round(self):
        return [self._fresh(self._relabelled, picture) for picture in self.SLABS]

    def _relabelled(self, picture):
        squares = [
            (x, y)
            for y, row in enumerate(picture.split())
            for x, cell in enumerate(row)
            if cell == "#"
        ]
        n_vertices, tetrahedra = cube_tetrahedra([(x, y, 0) for x, y in squares])
        labels = list(range(n_vertices))
        self.rng.shuffle(labels)
        tetrahedra = tuple(sorted(tuple(sorted(labels[v] for v in t)) for t in tetrahedra))
        return (n_vertices, tetrahedra, is_disk(squares)), (n_vertices, tetrahedra)

    def ops(self, item):
        n_vertices, tetrahedra, disk = item
        sc = topology.SimplicialComplex.from_faces(n_vertices, tetrahedra)
        for field in self.FIELDS:
            yield item, field.label, topology.is_cohen_macaulay(sc, field)

    def check(self, records):
        # Subcomplexes of R^3 have torsion-free homology and links, so the
        # link scan stops at the same face with the same Betti number over
        # every field.
        wrong = []
        groups: dict = {}
        for item, label, cert in records:
            groups.setdefault(item, []).append((label, cert))
        for (n_vertices, _, disk), results in groups.items():
            where = f"slab on {n_vertices} vertices (disk={disk})"
            if len(results) == len(self.FIELDS) and len({cert for _, cert in results}) != 1:
                wrong.append(f"{where}: fields disagree {results}")
            if any(cert.is_cm != disk for _, cert in results):
                wrong.append(f"{where}: CM verdicts {results}")
        for k, l in self.FULL:
            sc = topology.SimplicialComplex.from_faces(
                *cube_tetrahedra([(x, y, 0) for x in range(k) for y in range(l)])
            )
            for field in self.FIELDS:
                if not topology.is_cohen_macaulay(sc, field).is_cm:
                    wrong.append(f"full {k}x{l} slab is not CM over {field.label}")
        return wrong


class Lifts(Workload):
    """Embedding check, lift and lower-hull check of 1-D segment sets and
    subsets of triangulated 2x2 grids."""

    name = "lifts"
    trace_rounds = 2
    # Counts of segments with random ends in [0, 24], whose cost depends on
    # the count alone.  The median latency falls among the four-segment
    # sets rather than between two sizes.
    SEGMENTS = (1, 2, 4, 4, 4, 4)
    # Subsets of a triangulated 2x2 grid, each moved by a seeded translation
    # in [4, 11]^2.  The shape fixes the arrangement a lift has to cut and so
    # its work: random subsets differ up to fivefold in cost, and the
    # orientations of one subset up to twofold, because the brute-force
    # search follows the vertex order.  The costliest shape comes twice, so
    # the tail percentile falls inside one shape.
    SHAPES = (
        (((0, 0), (1, 0), (0, 1)),),  # a triangle
        (((0, 0), (0, 1), (1, 1)), ((0, 1), (1, 1), (1, 2))),  # sharing an edge
        (((0, 0), (1, 0), (0, 1)), ((1, 1), (2, 1), (1, 2))),  # disjoint
        (((0, 0), (1, 0), (0, 1)), ((1, 1), (2, 1), (1, 2))),
    )
    OFFSETS = tuple(product(range(4, 12), repeat=2))

    def _draw_round(self):
        return [self._fresh(self._segments, n) for n in self.SEGMENTS] + [
            self._placed(shape) for shape in self.SHAPES
        ]

    def _segments(self, n):
        ends = sorted(self.rng.sample(range(25), 2 * n))
        vertices = tuple((e,) for e in ends)
        cells = tuple((2 * i, 2 * i + 1) for i in range(n))
        return (vertices, cells), vertices

    def _placed(self, shape):
        dx, dy = self._take(shape, self.OFFSETS)
        chosen = sorted(tuple(sorted((x + dx, y + dy) for x, y in t)) for t in shape)
        vertices = tuple(sorted({p for t in chosen for p in t}))
        index = {p: i for i, p in enumerate(vertices)}
        return vertices, tuple(tuple(index[p] for p in t) for t in chosen)

    def ops(self, item):
        vertices, cells = item
        pc = lifting.embedded_complex(vertices, cells)
        embedded = lifting.verify_embedding(pc)
        result = lifting.lift(pc)
        yield pc, result.subdivision, embedded, lifting.verify_lower_hull(result)

    def check(self, records):
        wrong = []
        for pc, subdivision, embedded, lower_hull in records:
            if not (embedded and lower_hull):
                wrong.append(f"{pc.vertices}: embedding={embedded} lower_hull={lower_hull}")
            elif lifting.support_measure(subdivision) != lifting.support_measure(pc):
                wrong.append(f"{pc.vertices}: subdivision changes the support measure")
        return wrong


WORKLOADS = {w.name: w for w in (Selections, Dilations, Complexes, Lifts)}

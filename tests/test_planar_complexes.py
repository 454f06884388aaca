"""The paper's positive case in the plane: a 2-complex embedded in R^2 is
Cohen-Macaulay exactly when it is a disk.

Random unions of unit squares of a small grid, each square split along one of
its diagonals, are checked three ways: Cohen-Macaulay over Q and over F2, the
ball/sphere recognizer, and a disk oracle on the squares alone that shares no
code with the library."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from recdom.geometry import GF2, QQ
from recdom.topology import SimplicialComplex, is_cohen_macaulay, recognize_ball_sphere

GRID = 3


@st.composite
def square_unions(draw):
    """A nonempty set of the GRID x GRID unit squares, each named by its
    lower-left corner and mapped to whether its diagonal rises."""
    cell = st.tuples(st.integers(0, GRID - 1), st.integers(0, GRID - 1))
    squares = draw(st.sets(cell, min_size=1))
    return {square: draw(st.booleans()) for square in sorted(squares)}


def triangulation(diagonals):
    """Two triangles per square, split along its chosen diagonal."""
    corners = sorted({(x + i, y + j) for x, y in diagonals for i in (0, 1) for j in (0, 1)})
    index = {p: i for i, p in enumerate(corners)}
    facets = []
    for (x, y), rising in diagonals.items():
        a, b, c, d = (x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1)
        triangles = ((a, b, d), (a, c, d)) if rising else ((a, b, c), (b, c, d))
        facets += [tuple(sorted(index[p] for p in t)) for t in triangles]
    return SimplicialComplex.from_faces(len(corners), facets)


def is_disk(squares) -> bool:
    """Whether a union of closed unit squares is a disk.

    Without a pinch point (a grid vertex whose squares fall into two arcs
    around it) the union is a surface with boundary; in the plane that is a
    disk with holes, and it is a disk when it is connected through edges and
    V - E + F = 1."""
    corners = {(x + i, y + j) for x, y in squares for i in (0, 1) for j in (0, 1)}
    for vx, vy in corners:
        around = [(vx, vy), (vx - 1, vy), (vx - 1, vy - 1), (vx, vy - 1)]  # cyclic order
        present = [s in squares for s in around]
        if sum(1 for i in range(4) if present[i] and not present[i - 1]) > 1:
            return False
    start = min(squares)
    reached, frontier = {start}, [start]
    while frontier:
        x, y = frontier.pop()
        for step in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if step in squares and step not in reached:
                reached.add(step)
                frontier.append(step)
    if reached != set(squares):
        return False
    edges = set()
    for x, y in squares:
        edges |= {("h", x, y), ("h", x, y + 1), ("v", x, y), ("v", x + 1, y)}
    return len(corners) - len(edges) + len(squares) == 1


RING = {(x, y) for x in range(3) for y in range(3)} - {(1, 1)}


@settings(derandomize=True, max_examples=120, deadline=None)
@given(square_unions())
@example(dict.fromkeys(sorted(RING), True))  # an annulus
@example({(0, 0): True, (1, 1): False})  # a pinch point
def test_planar_square_union_is_cm_exactly_when_a_disk(diagonals):
    sc = triangulation(diagonals)
    disk = is_disk(set(diagonals))
    assert (recognize_ball_sphere(sc) == "ball") == disk
    for field in (QQ, GF2):
        assert is_cohen_macaulay(sc, field).is_cm == disk


def test_disk_oracle_on_known_shapes():
    assert is_disk({(0, 0)})
    assert is_disk({(0, 0), (1, 0), (1, 1)})
    assert not is_disk({(0, 0), (1, 1)})  # a pinch point
    assert not is_disk({(0, 0), (2, 0)})  # two pieces
    assert not is_disk(RING)  # an annulus
    assert is_disk(RING | {(1, 1)})

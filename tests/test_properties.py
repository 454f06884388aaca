"""Generative property tests against independent oracles."""

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings
from hypothesis import strategies as st

from recdom.geometry import QQ, rank_over_field

ENTRIES = st.integers(-9, 9)


@st.composite
def integer_matrices(draw):
    """Small integer matrices with some zeroed columns and some rows that are
    integer combinations of others, in shuffled order."""
    n_rows = draw(st.integers(1, 6))
    n_cols = draw(st.integers(1, 6))
    zero_cols = draw(st.sets(st.integers(0, n_cols - 1)))
    rows = [
        [0 if j in zero_cols else a for j, a in enumerate(row)]
        for row in draw(
            st.lists(
                st.lists(ENTRIES, min_size=n_cols, max_size=n_cols),
                min_size=n_rows,
                max_size=n_rows,
            )
        )
    ]
    for _ in range(draw(st.integers(0, 3))):
        coeffs = draw(st.lists(ENTRIES, min_size=len(rows), max_size=len(rows)))
        rows.append([sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(n_cols)])
    return [rows[i] for i in draw(st.permutations(range(len(rows))))]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(integer_matrices())
def test_rank_over_q_matches_sympy(rows):
    assert rank_over_field(rows, QQ) == sympy.Matrix(rows).rank()

"""Every cell of the committed parity fixture rebuilt and compared with the stored numbers."""

import numpy as np
import pytest

from make_parity_fixture import GRID, cell_name, load_fixture, run_cell


@pytest.fixture(scope="module")
def stored():
    return load_fixture()


def within(got, want, tol):
    """Largest deviation at most ``tol`` of the largest stored entry."""
    return np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


@pytest.mark.parametrize("cell", GRID, ids=[cell_name(*c) for c in GRID])
def test_cell_matches_fixture(cell, stored):
    prefix = cell_name(*cell) + "."
    got = run_cell(*cell)
    want = {key: value for key, value in stored.items() if key.startswith(prefix)}
    assert sorted(got) == sorted(want)
    for key, value in got.items():
        if key.endswith(".logits32"):
            assert value.dtype == np.float32
            assert within(value, want[key], 1e-5), key
            assert np.array_equal(np.argmax(value, axis=1), np.argmax(want[key], axis=1)), key
        else:
            assert value.dtype == np.float64 and value.shape == want[key].shape, key
            assert within(value, want[key], 1e-12), key

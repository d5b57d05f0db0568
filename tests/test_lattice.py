import itertools
import tracemalloc

import numpy as np
import pytest

from azeta.lattice import (box_rows, box_size, grid_rows, half_box_slabs, orthant_slabs,
                           shell, slabs)
from oracles import lattice_points


@pytest.mark.parametrize("dim,box", [(1, 7), (2, 5), (3, 3)])
def test_nonzero_box_rows_match_oracle_row_for_row(dim, box):
    got = box_rows([box] * dim, nonzero=True)
    assert got.dtype == np.float64
    np.testing.assert_array_equal(got, lattice_points(dim, box))


@pytest.mark.parametrize("box", [[6], [4, 3], [3, 2, 5]])
def test_slabs_rebuild_the_box_under_the_cap(box):
    sizes = 2 * np.asarray(box) + 1
    rest = int(np.prod(sizes[1:]))
    cap = 2 * rest + 1
    parts = slabs(sizes, cap)
    pieces = [box_rows(box, part) for part in parts]
    assert len(parts) > 1
    assert all(0 < p.shape[0] <= cap for p in pieces)
    np.testing.assert_array_equal(np.concatenate(pieces), box_rows(box))


def test_a_slab_of_a_long_box_costs_its_own_rows():
    tracemalloc.start()
    try:
        rows = box_rows([10**6, 1], slice(10**6 - 1, 10**6 + 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows[:, 0].tolist() == [-1.0, -1.0, -1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0]
    assert peak < 100_000


def test_grid_rows_of_float_axes_slice_the_first_axis():
    axes = [np.array([0.5, 1.5, 2.5]), np.array([-1.0, 2.0])]
    full = grid_rows(axes)
    assert full.tolist() == [[0.5, -1.0], [0.5, 2.0], [1.5, -1.0],
                             [1.5, 2.0], [2.5, -1.0], [2.5, 2.0]]
    # a slab of the first axis is a run of consecutive rows
    np.testing.assert_array_equal(grid_rows([axes[0][1:3], axes[1]]), full[2:])


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_shells_partition_the_nonzero_box(dim):
    top = 4
    np.testing.assert_array_equal(shell(dim, 0), np.zeros((1, dim)))
    rings = []
    for m in range(1, top + 1):
        rows = shell(dim, m)
        assert rows.shape == ((2 * m + 1) ** dim - (2 * m - 1) ** dim, dim)
        box = box_rows([m] * dim)
        np.testing.assert_array_equal(rows, box[np.max(np.abs(box), axis=1) == m])
        assert not rows.flags.writeable
        rings.append(rows)
    together = sorted(map(tuple, np.concatenate(rings).tolist()))
    whole = sorted(map(tuple, box_rows([top] * dim, nonzero=True).tolist()))
    assert together == whole


@pytest.mark.parametrize("box", [[0], [9], [2, 5], [1, 2, 3]])
def test_box_size_counts_the_rows(box):
    assert box_size(box) == box_rows(box).shape[0]
    assert isinstance(box_size(box), float)


@pytest.mark.parametrize("box", [[0], [5], [3, 0], [2, 4], [1, 2, 3]])
def test_half_box_is_the_rows_after_the_origin(box):
    rows = box_rows(box)
    origin = rows.shape[0] // 2
    assert not np.any(rows[origin])
    cap = 2 * int(np.prod(2 * np.asarray(box[1:]) + 1)) + 1
    half = np.concatenate(list(half_box_slabs(box, cap)))
    np.testing.assert_array_equal(half, rows[origin + 1:])


@pytest.mark.parametrize("dim,box", [(1, 6), (2, 4), (3, 2)])
def test_half_box_and_its_negative_partition_the_nonzero_box(dim, box):
    half = np.concatenate(list(half_box_slabs([box] * dim, cap=7)))
    # lexicographically positive: the first nonzero coordinate is positive
    first = half[np.arange(half.shape[0]), np.argmax(half != 0.0, axis=1)]
    assert np.all(first > 0.0)
    both = sorted(map(tuple, np.concatenate([half, -half]).tolist()))
    assert both == sorted(map(tuple, lattice_points(dim, box).tolist()))
    assert len(set(both)) == len(both)


@pytest.mark.parametrize("box", [[3], [3, 0], [2, 3], [0, 2, 1], [2, 1, 3]])
def test_orthant_rows_and_their_sign_images_give_the_box_once(box):
    signs = np.array(list(itertools.product([1.0, -1.0], repeat=len(box))))
    images, walked = [], []
    for axes, mirrors in orthant_slabs(box, cap=3):
        assert [a.dtype for a in axes] == [np.float64] * len(box)
        rows = grid_rows(axes)
        assert 0 < rows.shape[0] <= 3
        assert np.all(rows >= 0.0)
        for row in rows:
            flips = set(map(tuple, (row * signs).tolist()))  # -0.0 == 0.0
            assert mirrors == len(flips)
            images.extend(flips)
        walked.append(rows)
    whole = box_rows(box)
    assert sorted(images) == sorted(map(tuple, whole.tolist()))
    # the row order: each face's rows in the box's C order, the faces in C
    # order of their supports
    orthant = whole[np.all(whole >= 0.0, axis=1)]
    faces = [orthant[np.all((orthant > 0.0) == support, axis=1)]
             for support in itertools.product((False, True), repeat=len(box))]
    np.testing.assert_array_equal(np.concatenate(walked), np.concatenate(faces))

"""Point grids: tensor grids as axes, and the one place a grid becomes rows.

Every quantity azeta computes is a sum over a grid: ζ(φ,s) = Σ φ(ω)^{-s}
and the count #{φ(ω) < r} over an integer box, θ sums over boxes, and the
graded Gauss grids of `quadrature.box_integral`.  This module builds those
grids, walks a large grid in first-axis slabs of bounded row count and gives
the size of an integer box.  It also walks half an integer box: the rows
after the origin, which are the lexicographically positive rows (first
nonzero coordinate positive).  With their negatives they partition the
nonzero rows of the box, so a sum over an even φ needs only them, each
counted twice.  Last, it walks the closed
orthant prod [0, B_i] of a box face by face, each slab with its number of
sign images: a φ that sees each x_i only through |x_i|
(`coordinate_monotone`) needs only these points, for the walk of φ over a
box (`homog._lattice_values`) and for the column heads of
`volume.lattice_count`.

The orthant walk hands out each slab as its axes, one 1-D array per
coordinate, and φ is evaluated on it by `HomogeneousFunction.evaluate_grid`,
which for a separable φ forms one term per axis point instead of one per row;
`grid_rows` and `box_rows` give rows where a caller needs them (the half-box
walk, θ's orthant slabs, the count's column heads and the θ* tables' boxes
for summands off their own flow).

Row order is a contract: a grid over axes a_0, ..., a_{n-1} comes out in C
order, first axis slowest and last axis fastest, the order in which
``np.ndindex`` walks the grid shape, and a grid's values, from
`evaluate_grid` or from `evaluate_many` on its rows, flatten in the same
order.  Slabs are consecutive ranges of the first axis, so walking the slabs
in turn visits the same rows in the same order.  The orthant walk takes its
faces in a fixed order (see `orthant_slabs`) and each face's grid in C order.
The order is fixed because floating-point sums depend on it:
`zeta._rigorous_sum`, `theta.theta_phi` and `quadrature._tensor_sum` add
their terms in row order, and a different order changes their last bits and
with them the CLI outputs.
"""

from __future__ import annotations

from itertools import product

import numpy as np

__all__ = ["COUNT_BUDGET", "SLAB_ROWS", "grid_rows", "box_rows", "slabs", "half_box_slabs",
           "orthant_slabs", "box_size"]

# Row cap of a slab where the caller names none.  It caps the points of one
# θ* table (`theta._shell_limit`) and the faces of `orthant_slabs`, which
# hold `volume.lattice_count`'s column heads (under 2e5 of them in a box
# within COUNT_BUDGET, so one slab a face).  Slabs that are evaluated pass
# smaller caps: `homog._WALK_ROWS` and `homog._WALK_EVAL_ROWS`.
SLAB_ROWS = 1_000_000
# points in the box of one lattice enumeration: `volume.lattice_count`'s box
# and `theta.theta_phi`'s box.  It bounds the box, not the rows visited;
# `lattice_count`'s column-height route visits far fewer rows than its box.
COUNT_BUDGET = int(1e8)


def grid_rows(axes) -> np.ndarray:
    """float64 rows of the tensor grid over `axes`, in C order.

    The rows are filled by broadcasting each axis into one array, with no
    intermediate grids.
    """
    axes = [np.asarray(a, dtype=float) for a in axes]
    dim = len(axes)
    out = np.empty([a.size for a in axes] + [dim])
    for i, a in enumerate(axes):
        shape = [1] * dim
        shape[i] = a.size
        out[..., i] = a.reshape(shape)
    return out.reshape(-1, dim)


def box_rows(box, first: slice = slice(None), nonzero: bool = False) -> np.ndarray:
    """Rows of the integer box prod [-B_i, B_i], optionally without the origin.

    `first` selects from the first axis before any array is made, so a slab
    of a long first axis costs its own rows only.
    """
    span = range(-int(box[0]), int(box[0]) + 1)[first]
    rows = grid_rows([np.arange(span.start, span.stop, span.step)]
                     + [np.arange(-int(b), int(b) + 1) for b in box[1:]])
    if nonzero:
        rows = rows[np.any(rows != 0.0, axis=1)]
    return rows


def slabs(sizes, cap: int = SLAB_ROWS) -> list:
    """First-axis slices of a grid with axis lengths `sizes`, in order.

    Each slab holds at most `cap` rows, except that a slab always takes at
    least one first-axis entry.
    """
    rest = 1
    for size in sizes[1:]:
        rest *= int(size)
    step = max(1, cap // max(1, rest))
    return [slice(lo, lo + step) for lo in range(0, int(sizes[0]), step)]


def half_box_slabs(box, cap: int = SLAB_ROWS):
    """The rows of the integer box prod [-B_i, B_i] after the origin, in slabs.

    In C order these are the x_0 = 0 slab past the origin's row, then the
    first-axis slabs x_0 = 1, ..., B_0 in `slabs` steps of at most `cap` rows.
    Concatenated, the yielded arrays are ``box_rows(box)`` past the origin.
    """
    box = [int(b) for b in box]
    zero = box_rows(box, slice(box[0], box[0] + 1))
    yield zero[zero.shape[0] // 2 + 1:]
    for part in slabs([box[0]] + [2 * b + 1 for b in box[1:]], cap):
        yield box_rows(box, slice(part.start + box[0] + 1, part.stop + box[0] + 1))


def orthant_slabs(box, cap: int = SLAB_ROWS):
    """The closed orthant prod [0, B_i] of a box, face by face, in slabs.

    The face of a nonempty set S of axes is prod_{i in S} [1, B_i] x {0}
    off S; its rows have exactly the axes of S nonzero, and each stands for
    the 2^|S| rows of the box that flipping signs gives.  Yields pairs
    (axes, mirrors = 2^|S|), a slab as the float axes of its grid (the
    one-point axis [0] off S): first the origin, the one face with 1
    mirror; then the other faces in C order of S written as a 0/1 row (for
    two axes: {1}, {0}, {0, 1}); within a face its grid in `slabs` of at
    most `cap` points, cut along the first axis of S.  Empty faces are left
    out.  The slabs' `grid_rows` with their sign images give each row of
    ``box_rows(box)`` once.
    """
    box = [int(b) for b in box]
    dim = len(box)
    zero = np.zeros(1)
    yield [zero] * dim, 1
    for support in list(product((False, True), repeat=dim))[1:]:
        on = np.flatnonzero(support)
        sizes = [box[i] for i in on]
        if 0 in sizes:
            continue
        axes = [np.arange(1.0, box[i] + 1) if i in on[1:] else zero for i in range(dim)]
        for part in slabs(sizes, cap):
            # the slab's own range of the first axis of S, as in `box_rows`
            first = range(1, sizes[0] + 1)[part]
            axes[on[0]] = np.arange(first.start, first.stop, dtype=float)
            yield list(axes), 1 << on.size


def box_size(box) -> float:
    """Number of points in the integer box prod [-B_i, B_i], as a float."""
    return float(np.prod(2.0 * np.asarray(box, dtype=float) + 1.0))

"""Grid geometry: cells, rectangles and the discrete universe.

The paper works over a discrete ``d``-dimensional universe ``U`` of ``n``
cells arranged as a hypercube of side ``n**(1/d)``.  Cells are integer
coordinate tuples.  Queries are axis-aligned hyper-rectangles of cells,
represented by :class:`Rect`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

import numpy as np
import numpy.typing as npt

from .errors import InvalidQueryError, InvalidUniverseError, OutOfUniverseError

Cell = Tuple[int, ...]


def validate_side(side: int) -> int:
    """Validate and return a universe side length.

    Raises :class:`InvalidUniverseError` for non-integer or non-positive
    sides.
    """
    if not isinstance(side, (int, np.integer)) or isinstance(side, bool):
        raise InvalidUniverseError(f"side must be an int, got {side!r}")
    if side < 1:
        raise InvalidUniverseError(f"side must be >= 1, got {side}")
    return int(side)


def validate_dim(dim: int) -> int:
    """Validate and return a dimension count (must be >= 1)."""
    if not isinstance(dim, (int, np.integer)) or isinstance(dim, bool):
        raise InvalidUniverseError(f"dim must be an int, got {dim!r}")
    if dim < 1:
        raise InvalidUniverseError(f"dim must be >= 1, got {dim}")
    return int(dim)


def cell_in_universe(cell: Sequence[int], side: int, dim: int) -> bool:
    """Return True when ``cell`` has ``dim`` coordinates all in ``[0, side)``."""
    if len(cell) != dim:
        return False
    return all(0 <= int(c) < side for c in cell)


def check_cell(cell: Sequence[int], side: int, dim: int) -> Cell:
    """Validate ``cell`` against the universe and return it as a tuple."""
    if not cell_in_universe(cell, side, dim):
        raise OutOfUniverseError(
            f"cell {tuple(cell)!r} outside {dim}-d universe of side {side}"
        )
    return tuple(int(c) for c in cell)


def boundary_distance(cell: Sequence[int], side: int) -> int:
    """The onion layer statistic ``∇(α)`` from the paper.

    ``∇(α) = min_i min(x_i + 1, side − x_i)``: the L∞ distance of the cell to
    the outside of the grid, counting the outermost ring as distance 1.
    """
    return min(min(int(x) + 1, side - int(x)) for x in cell)


def num_layers(side: int) -> int:
    """Number of onion layers in a grid of the given side: ``ceil(side / 2)``."""
    return (side + 1) // 2


def layer_side(side: int, t: int) -> int:
    """Side length of the square/cube ring forming layer ``t`` (1-based)."""
    return side - 2 * (t - 1)


@dataclass(frozen=True)
class Rect:
    """An axis-aligned hyper-rectangle of grid cells, inclusive on both ends.

    ``lo`` and ``hi`` are cell coordinates with ``lo[i] <= hi[i]``; the rect
    contains every cell ``c`` with ``lo[i] <= c[i] <= hi[i]``.
    """

    lo: Cell
    hi: Cell

    def __post_init__(self) -> None:
        if len(self.lo) != len(self.hi):
            raise InvalidQueryError(
                f"lo and hi have different dimensions: {self.lo} vs {self.hi}"
            )
        if not self.lo:
            raise InvalidQueryError("rect must have at least one dimension")
        for a, b in zip(self.lo, self.hi):
            if a > b:
                raise InvalidQueryError(f"empty rect: lo={self.lo} hi={self.hi}")
        object.__setattr__(self, "lo", tuple(int(a) for a in self.lo))
        object.__setattr__(self, "hi", tuple(int(b) for b in self.hi))

    @classmethod
    def from_origin(cls, origin: Sequence[int], lengths: Sequence[int]) -> "Rect":
        """Build a rect from its lowest corner and per-dimension side lengths."""
        if len(origin) != len(lengths):
            raise InvalidQueryError("origin and lengths must have equal dimension")
        if any(int(l) < 1 for l in lengths):
            raise InvalidQueryError(f"lengths must all be >= 1, got {tuple(lengths)}")
        lo = tuple(int(o) for o in origin)
        hi = tuple(int(o) + int(l) - 1 for o, l in zip(origin, lengths))
        return cls(lo, hi)

    @property
    def dim(self) -> int:
        """Number of dimensions."""
        return len(self.lo)

    @property
    def lengths(self) -> Tuple[int, ...]:
        """Per-dimension side lengths (number of cells per axis)."""
        return tuple(h - l + 1 for l, h in zip(self.lo, self.hi))

    @property
    def volume(self) -> int:
        """Number of cells contained in the rect (``|q|`` in the paper)."""
        v = 1
        for length in self.lengths:
            v *= length
        return v

    def contains(self, cell: Sequence[int]) -> bool:
        """Return True when ``cell`` lies inside the rect."""
        if len(cell) != self.dim:
            return False
        return all(l <= int(c) <= h for l, c, h in zip(self.lo, cell, self.hi))

    def contains_many(self, coords: npt.NDArray[np.int64]) -> npt.NDArray[np.bool_]:
        """Vectorized :meth:`contains` over the rows of an ``(n, dim)`` array."""
        if coords.shape[1] != len(self.lo):
            return np.zeros(len(coords), dtype=bool)
        return ((coords >= self.lo) & (coords <= self.hi)).all(axis=1)

    def contains_box(self, lo: Sequence[int], hi: Sequence[int]) -> bool:
        """Return True when the box ``[lo, hi]`` lies wholly inside the rect."""
        if len(lo) != len(self.lo):
            return False
        return all(a <= l for a, l in zip(self.lo, lo)) and all(
            h <= b for h, b in zip(hi, self.hi)
        )

    def fits_in(self, side: int) -> bool:
        """Return True when the rect lies fully inside ``[0, side)^dim``."""
        return all(l >= 0 for l in self.lo) and all(h < side for h in self.hi)

    def check_fits(self, side: int) -> "Rect":
        """Raise :class:`InvalidQueryError` unless the rect fits the universe."""
        if not self.fits_in(side):
            raise InvalidQueryError(f"{self} does not fit in universe of side {side}")
        return self

    def cells(self) -> Iterator[Cell]:
        """Iterate over every cell in the rect (row-major order)."""
        ranges = [range(l, h + 1) for l, h in zip(self.lo, self.hi)]
        return iter(itertools.product(*ranges))

    def cells_array(self) -> np.ndarray:
        """All cells as an ``(volume, dim)`` int64 array (vectorized path)."""
        axes = [np.arange(l, h + 1, dtype=np.int64) for l, h in zip(self.lo, self.hi)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def is_cube(self) -> bool:
        """True when every side length is equal (the paper's cube query)."""
        lengths = self.lengths
        return all(l == lengths[0] for l in lengths)

    def translate(self, offset: Sequence[int]) -> "Rect":
        """Return the rect shifted by ``offset``."""
        if len(offset) != self.dim:
            raise InvalidQueryError("offset dimension mismatch")
        lo = tuple(l + int(o) for l, o in zip(self.lo, offset))
        hi = tuple(h + int(o) for h, o in zip(self.hi, offset))
        return Rect(lo, hi)

    def faces(self, side: int) -> Iterator[Tuple[int, int, "Rect"]]:
        """Yield the outside-adjacent shells of the rect, clipped to the universe.

        For each axis ``a`` and direction ``s in (-1, +1)`` where the rect
        does not already touch the universe boundary, yields
        ``(a, s, shell_rect)`` where ``shell_rect`` is the slab of cells just
        outside the rect across that face.  Used by the boundary-shell
        clustering algorithm.
        """
        for axis in range(self.dim):
            if self.lo[axis] - 1 >= 0:
                lo = list(self.lo)
                hi = list(self.hi)
                lo[axis] = hi[axis] = self.lo[axis] - 1
                yield axis, -1, Rect(tuple(lo), tuple(hi))
            if self.hi[axis] + 1 < side:
                lo = list(self.lo)
                hi = list(self.hi)
                lo[axis] = hi[axis] = self.hi[axis] + 1
                yield axis, +1, Rect(tuple(lo), tuple(hi))


def num_translations(side: int, lengths: Sequence[int]) -> int:
    """``|Q|`` for the translation query set of a rect with the given lengths.

    This is ``prod_i (side − ℓ_i + 1)`` and zero when any side does not fit.
    """
    count = 1
    for length in lengths:
        fit = side - int(length) + 1
        if fit <= 0:
            return 0
        count *= fit
    return count


def all_translations(side: int, lengths: Sequence[int]) -> Iterator[Rect]:
    """Iterate every translation of a rect with the given lengths inside the grid."""
    ranges = [range(side - int(l) + 1) for l in lengths]
    for origin in itertools.product(*ranges):
        yield Rect.from_origin(origin, lengths)

"""The 3-d onion curve: layer structure, the S1..S10 partition, jumps."""

import numpy as np
import pytest

from repro.curves import DEFAULT_FACE_ORDER, OnionCurve3D
from repro.errors import InvalidUniverseError, OutOfUniverseError
from repro.geometry import boundary_distance


class TestConstruction:
    def test_rejects_odd_side(self):
        with pytest.raises(InvalidUniverseError):
            OnionCurve3D(7)

    def test_rejects_wrong_dim(self):
        with pytest.raises(OutOfUniverseError):
            OnionCurve3D(8, dim=2)

    def test_rejects_bad_face_order(self):
        with pytest.raises(InvalidUniverseError):
            OnionCurve3D(8, face_order=(1, 2, 3))
        with pytest.raises(InvalidUniverseError):
            OnionCurve3D(8, face_order=(1,) * 10)

    def test_face_order_exposed(self):
        assert OnionCurve3D(8).face_order == DEFAULT_FACE_ORDER


class TestPaperStructure:
    @pytest.mark.parametrize("side", [2, 4, 6, 8])
    def test_bijection(self, side):
        OnionCurve3D(side).verify_bijection()

    def test_layers_are_key_contiguous(self):
        """The essential rule of Section VI-A: layers are sequential."""
        side = 8
        curve = OnionCurve3D(side)
        previous = 1
        for key in range(curve.size):
            layer = boundary_distance(curve.point(key), side)
            assert layer >= previous
            previous = layer

    def test_k1_telescopes(self):
        """K1(t) (paper's per-layer sum) equals side³ − j³."""
        side = 8
        m = side // 2
        for t_prime in range(1, m + 1):
            k1 = sum(
                2 * (side - 2 * t + 2) ** 2
                + 4 * (side - 2 * t) ** 2
                + 4 * (side - 2 * t)
                for t in range(1, t_prime)
            )
            j = side - 2 * (t_prime - 1)
            assert k1 == side**3 - j**3

    def test_piece_sizes_match_paper_v_vector(self):
        """V_t(1..10) from Section VI-A."""
        side = 8
        curve = OnionCurve3D(side)
        for t in range(1, side // 2 + 1):
            j = side - 2 * (t - 1)
            sizes = [curve._piece_size(j, g) for g in range(1, 11)]
            expected_face = j * j
            expected_line = max(j - 2, 0)
            expected_inner = max(j - 2, 0) ** 2
            assert sizes[0] == sizes[1] == expected_face
            assert sizes[2] == sizes[4] == sizes[5] == sizes[7] == expected_line
            assert sizes[3] == sizes[6] == sizes[8] == sizes[9] == expected_inner

    def test_first_cells(self):
        curve = OnionCurve3D(8)
        assert curve.point(0) == (0, 0, 0)
        # The first layer's S1 face is the slab x = 0.
        face_size = 8 * 8
        for key in range(face_size):
            assert curve.point(key)[0] == 0


class TestDiscontinuities:
    def test_jump_list_is_exact(self):
        """The analytic jump enumeration matches a full O(n) walk."""
        curve = OnionCurve3D(8)
        analytic = sorted(curve.discontinuities())
        walked = []
        previous = None
        for cell in curve.walk():
            if previous is not None:
                if sum(abs(a - b) for a, b in zip(previous, cell)) != 1:
                    walked.append(cell)
            previous = cell
        assert analytic == sorted(walked)

    def test_jump_count_is_linear_in_side(self):
        """At most ten pieces per layer can open with a jump."""
        for side in (4, 8, 12, 16):
            jumps = list(OnionCurve3D(side).discontinuities())
            assert len(jumps) <= 10 * (side // 2)


class TestFaceOrderAblation:
    """The paper: the within-layer piece order is immaterial."""

    REVERSED = tuple(reversed(DEFAULT_FACE_ORDER))

    def test_permuted_curve_is_bijective(self):
        OnionCurve3D(8, face_order=self.REVERSED).verify_bijection()

    def test_permuted_curve_keeps_layer_order(self):
        curve = OnionCurve3D(8, face_order=self.REVERSED)
        previous = 1
        for key in range(curve.size):
            layer = boundary_distance(curve.point(key), 8)
            assert layer >= previous
            previous = layer

    def test_permuted_jump_enumeration_still_exact(self):
        curve = OnionCurve3D(6, face_order=self.REVERSED)
        analytic = sorted(curve.discontinuities())
        walked = []
        previous = None
        for cell in curve.walk():
            if previous is not None:
                if sum(abs(a - b) for a, b in zip(previous, cell)) != 1:
                    walked.append(cell)
            previous = cell
        assert analytic == sorted(walked)


#: Piece orders the vectorized kernel is checked under: the paper's, its
#: reverse, and one that interleaves faces, lines and inner faces.
KERNEL_ORDERS = (
    DEFAULT_FACE_ORDER,
    TestFaceOrderAblation.REVERSED,
    (3, 9, 1, 7, 10, 2, 5, 4, 8, 6),
)


class TestVectorized:
    @pytest.mark.parametrize("side", range(2, 25, 2))
    def test_index_many_matches_scalar(self, side):
        """Every cell of the universe, under each kernel order."""
        axis = np.arange(side)
        cells = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
        for order in KERNEL_ORDERS:
            curve = OnionCurve3D(side, face_order=order)
            keys = curve.index_many(cells)
            assert keys.dtype == np.int64
            assert keys.tolist() == [curve.index(tuple(c)) for c in cells.tolist()]

    @pytest.mark.parametrize("order", KERNEL_ORDERS)
    def test_index_many_matches_scalar_at_side_64(self, order):
        curve = OnionCurve3D(64, face_order=order)
        cells = np.random.default_rng(64).integers(0, 64, size=(5000, 3))
        keys = curve.index_many(cells)
        assert keys.tolist() == [curve.index(tuple(c)) for c in cells.tolist()]

    def test_index_many_of_no_cells(self):
        keys = OnionCurve3D(8).index_many(np.empty((0, 3), dtype=np.int64))
        assert keys.shape == (0,) and keys.dtype == np.int64

    @pytest.mark.parametrize("side", [2, 4, 8, 16])
    def test_point_many_matches_scalar(self, side):
        curve = OnionCurve3D(side)
        rng = np.random.default_rng(side)
        keys = rng.integers(0, curve.size, size=300)
        points = curve.point_many(keys)
        assert [tuple(p) for p in points.tolist()] == [
            curve.point(int(k)) for k in keys
        ]

    def test_permuted_vectorized_matches_scalar(self):
        curve = OnionCurve3D(8, face_order=TestFaceOrderAblation.REVERSED)
        keys = np.arange(curve.size, dtype=np.int64)
        points = curve.point_many(keys)
        assert [tuple(p) for p in points.tolist()] == [
            curve.point(int(k)) for k in keys
        ]
        assert (curve.index_many(points) == keys).all()

import numpy as np
import pytest

from morreykit.dyadic import DyadicCube, box_mask, cube_mask, dilate


def test_cube_geometry():
    Q = DyadicCube(2, (1, 3))
    assert Q.n == 2
    assert Q.side == 0.25
    assert Q.volume == 0.0625
    assert Q.center == (0.375, 0.875)


def test_index_wraps_mod_2j():
    assert DyadicCube(2, (5, -1)).m == (1, 3)
    assert DyadicCube(0, (7,)).m == (0,)


def test_homogeneous_cube_covers_torus():
    Q = DyadicCube(-2, (0,))
    assert Q.side == 4.0
    assert Q.contains_point((0.73,))


def test_contains_point_periodic():
    Q = DyadicCube(1, (1,))
    assert Q.contains_point((0.5,))
    assert Q.contains_point((1.5,))  # wraps
    assert not Q.contains_point((0.25,))


def test_dilate():
    Q = DyadicCube(0, (0,))
    center, half = dilate(Q, 1.0)
    assert center == (0.5,) and half == (0.5,)
    center, half = dilate(Q, 2.0)
    assert center == (0.5,) and half == (1.0,)
    with pytest.raises(ValueError):
        dilate(Q, 0.0)


def test_dilate_matches_3Q_support_window():
    # 3Q at level j spans [m 2^-j - 2^-j, m 2^-j + 2 * 2^-j)
    Q = DyadicCube(3, (5,))
    center, half = dilate(Q, 3.0)
    lo = center[0] - half[0]
    hi = center[0] + half[0]
    assert lo == pytest.approx(5 / 8 - 1 / 8)
    assert hi == pytest.approx(5 / 8 + 2 / 8)


def test_cube_mask_exact():
    G = 16
    Q = DyadicCube(2, (3, 1))
    mask = cube_mask(Q, G)
    assert mask.sum() == (G // 4) ** 2
    xs = np.arange(G) / G
    for i in range(G):
        for k in range(G):
            assert mask[i, k] == Q.contains_point((xs[i], xs[k]))


def test_cube_mask_finer_than_grid():
    with pytest.raises(ValueError):
        cube_mask(DyadicCube(5, (0,)), 16)


def test_box_mask_agrees_with_cube_mask_at_d1():
    G = 32
    for j, m in ((1, (0,)), (2, (3,)), (3, (5,))):
        Q = DyadicCube(j, m)
        center, half = dilate(Q, 1.0)
        assert np.array_equal(box_mask(center, half, G), cube_mask(Q, G))


def test_box_mask_full_torus():
    center, half = dilate(DyadicCube(0, (0,)), 3.0)
    assert box_mask(center, half, 8).all()


"""Dyadic cubes on the periodic unit box [0,1)^n.

A cube is the pair (j, m): side 2^-j, lower corner m * 2^-j, with the
index taken mod gridfn.level_side(j).  Homogeneous mode allows j < 0 down
to gridfn.HOM_FLOOR; such a level has one cube, m = 0, that covers the
torus (possibly many times over): it is the full torus with its scale
kept as metadata, since only the phi(ell) prefactor sees scales > 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gridfn import _outer, level_side


@dataclass(frozen=True)
class DyadicCube:
    j: int
    m: tuple  # integer index vector, length n

    def __post_init__(self):
        object.__setattr__(
            self, "m", tuple(int(k) % level_side(self.j) for k in self.m))

    @property
    def n(self) -> int:
        return len(self.m)

    @property
    def side(self) -> float:
        return 2.0 ** (-self.j)

    @property
    def volume(self) -> float:
        return self.side ** self.n

    @property
    def center(self) -> tuple:
        return tuple((k + 0.5) * self.side for k in self.m)

    def contains_point(self, x) -> bool:
        """Point membership with periodic wrap; a j < 0 cube holds every
        point, as x mod 1 lies in [0, 1) and so below one side."""
        for xi, mi in zip(x, self.m):
            t = (xi % 1.0) / self.side
            if not (mi <= t < mi + 1):
                return False
        return True


def dilate(Q: DyadicCube, d: float) -> tuple[tuple, tuple]:
    """Concentric box: (center, half-widths), side d * ell(Q)."""
    if d <= 0:
        raise ValueError("dilation factor must be positive")
    half = 0.5 * d * Q.side
    return Q.center, tuple(half for _ in Q.m)


def box_mask(center, half, G: int) -> np.ndarray:
    """Grid-cell indicator of a box on the periodic G^n grid, with one
    axis per entry of center.

    A cell belongs to the box iff its lower-left corner lies in the box
    (consistent with half-open dyadic cells)."""
    axes = []
    for c, hw in zip(center, half):
        idx = np.arange(G) / G
        # periodic distance of the cell corner from the box center
        delta = (idx - c + 0.5) % 1.0 - 0.5
        if 2 * hw >= 1.0:
            axes.append(np.ones(G, dtype=bool))
        else:
            axes.append((delta >= -hw - 1e-12) & (delta < hw - 1e-12))
    return _outer(np.multiply, axes)


def cube_mask(Q: DyadicCube, G: int) -> np.ndarray:
    """Exact grid indicator of the cube itself (requires G >= 2^j)."""
    if level_side(Q.j) > G:
        raise ValueError("cube finer than the grid")
    w = G // level_side(Q.j)
    axes = []
    for mi in Q.m:
        a = np.zeros(G, dtype=bool)
        a[mi * w:(mi + 1) * w] = True
        axes.append(a)
    return _outer(np.multiply, axes)

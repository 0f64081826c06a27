"""Metric/geodesic space abstraction; ships the finite-dimensional Hilbert
instance (also a Hadamard space, with geodesics given by affine interpolation).

Points are plain numpy arrays of fixed dimension; all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import Config

__all__ = [
    "SpaceError",
    "DimensionMismatch",
    "UnsupportedOperation",
    "SpaceDescriptor",
    "euclidean",
    "row_norm",
]


class SpaceError(ValueError):
    pass


class DimensionMismatch(SpaceError):
    pass


class UnsupportedOperation(SpaceError):
    pass


@dataclass(frozen=True)
class SpaceDescriptor:
    """A metric space instance.  Only the euclidean kind is shipped; the
    operations are written against this descriptor so other Hadamard models
    can slot in later."""

    kind: str = "euclidean"
    dimension: int = 1

    def __post_init__(self):
        if self.kind != "euclidean":
            raise UnsupportedOperation(f"unsupported space kind {self.kind!r}")
        if not isinstance(self.dimension, int) or self.dimension < 1:
            raise SpaceError(f"dimension must be an integer >= 1, got {self.dimension!r}")

    # -- points -------------------------------------------------------------

    def point(self, coords) -> np.ndarray:
        x = np.asarray(coords, dtype=float)
        if x.shape != (self.dimension,):
            raise DimensionMismatch(
                f"expected dimension {self.dimension}, got shape {x.shape}"
            )
        if not np.all(np.isfinite(x)):
            raise SpaceError("point coordinates must be finite")
        return x

    def _check(self, *points) -> list[np.ndarray]:
        return [self.point(p) for p in points]

    # -- operations ----------------------------------------------------------

    def distance(self, p, q) -> float:
        p, q = self._check(p, q)
        return float(np.linalg.norm(p - q))

    def geodesic_point(self, p, q, lam: float) -> np.ndarray:
        """The point (1-lam) p (+) lam q on the unique geodesic from p to q."""
        if not 0.0 <= lam <= 1.0:
            raise SpaceError(f"geodesic parameter {lam} outside [0, 1]")
        p, q = self._check(p, q)
        return (1.0 - lam) * p + lam * q

    def zero(self) -> np.ndarray:
        return np.zeros(self.dimension)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {"kind": self.kind, "dimension": self.dimension}

    @classmethod
    def from_json(cls, data: dict) -> "SpaceDescriptor":
        spec = Config.of(data)
        return cls(kind=spec.text("kind"), dimension=spec.integer("dimension"))


def euclidean(dimension: int) -> SpaceDescriptor:
    return SpaceDescriptor(kind="euclidean", dimension=dimension)


def row_norm(x: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis.  Each row has the bits of
    ``np.linalg.norm`` on that row alone (``axis=-1`` there differs)."""
    return np.sqrt(np.vecdot(x, x))


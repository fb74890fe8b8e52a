"""Flat parameter vectors with named, shaped views.

Distributed training needs three things from the parameter
representation: cheap snapshots (ASP workers hold stale copies), easy
sharding across parameter-server nodes (contiguous slices), and named
access for the model's forward/backward pass.  A single flat ``float64``
vector plus a layout of named slices provides all three.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["ParameterLayout"]


class ParameterLayout:
    """Maps named tensors onto contiguous slices of a flat vector.

    Parameters
    ----------
    shapes:
        Ordered ``name -> shape`` mapping.  Order determines the slice
        positions, so two layouts built from the same ordered mapping
        are interchangeable.
    """

    def __init__(self, shapes: Mapping[str, tuple[int, ...]]):
        if not shapes:
            raise ConfigurationError("a ParameterLayout needs at least one tensor")
        self._shapes: dict[str, tuple[int, ...]] = {}
        self._slices: dict[str, slice] = {}
        offset = 0
        for name, shape in shapes.items():
            size = int(np.prod(shape, dtype=np.int64)) if shape else 1
            if size <= 0:
                raise ConfigurationError(f"tensor {name!r} has non-positive size")
            self._shapes[name] = tuple(int(dim) for dim in shape)
            self._slices[name] = slice(offset, offset + size)
            offset += size
        self._size = offset
        # Precomputed (name, slice, shape) rows: views() runs once per
        # gradient evaluation, so it must not re-derive these per call.
        self._view_specs = tuple(
            (name, self._slices[name], self._shapes[name])
            for name in self._shapes
        )

    @property
    def size(self) -> int:
        """Total number of scalar parameters."""
        return self._size

    @property
    def names(self) -> tuple[str, ...]:
        """Tensor names in slice order."""
        return tuple(self._shapes)

    @property
    def view_specs(self) -> tuple[tuple[str, slice, tuple[int, ...]], ...]:
        """Precomputed ``(name, slice, shape)`` rows in slice order."""
        return self._view_specs

    def shape(self, name: str) -> tuple[int, ...]:
        """Shape of tensor ``name``."""
        return self._shapes[name]

    def slice_of(self, name: str) -> slice:
        """Slice of the flat vector occupied by tensor ``name``."""
        return self._slices[name]

    def zeros(self, dtype: np.dtype | type = np.float64) -> np.ndarray:
        """A fresh all-zero flat vector matching this layout."""
        return np.zeros(self._size, dtype=dtype)

    def _check(self, vector: np.ndarray) -> None:
        if vector.ndim != 1 or vector.shape[0] != self._size:
            raise ConfigurationError(
                f"vector has shape {vector.shape}, expected ({self._size},)"
            )

    def view(self, vector: np.ndarray, name: str) -> np.ndarray:
        """A reshaped *view* (no copy) of tensor ``name`` in ``vector``."""
        self._check(vector)
        return vector[self._slices[name]].reshape(self._shapes[name])

    def views(self, vector: np.ndarray) -> dict[str, np.ndarray]:
        """Reshaped views of every tensor in ``vector``.

        Hot path (one call per gradient evaluation): a single shape
        check, then direct slice+reshape from the precomputed specs.
        """
        self._check(vector)
        return {
            name: vector[view_slice].reshape(shape)
            for name, view_slice, shape in self._view_specs
        }

    def pack(
        self,
        tensors: Mapping[str, np.ndarray],
        dtype: np.dtype | type = np.float64,
    ) -> np.ndarray:
        """Assemble named tensors into a fresh flat vector."""
        missing = set(self._shapes) - set(tensors)
        if missing:
            raise ConfigurationError(f"missing tensors: {sorted(missing)}")
        vector = self.zeros(dtype)
        for name, values in tensors.items():
            if name not in self._shapes:
                raise ConfigurationError(f"unknown tensor {name!r}")
            array = np.asarray(values, dtype=dtype)
            if array.shape != self._shapes[name]:
                raise ConfigurationError(
                    f"tensor {name!r} has shape {array.shape}, "
                    f"expected {self._shapes[name]}"
                )
            vector[self._slices[name]] = array.ravel()
        return vector

    def shard_bounds(self, n_shards: int) -> list[tuple[int, int]]:
        """Split the vector into ``n_shards`` near-equal contiguous ranges.

        Used by the sharded parameter server: shard ``i`` owns
        ``vector[lo:hi]``.  Every scalar belongs to exactly one shard.
        """
        if n_shards <= 0:
            raise ConfigurationError("n_shards must be positive")
        base, extra = divmod(self._size, n_shards)
        bounds = []
        offset = 0
        for shard in range(n_shards):
            length = base + (1 if shard < extra else 0)
            bounds.append((offset, offset + length))
            offset += length
        return bounds

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ParameterLayout):
            return NotImplemented
        return self._shapes == other._shapes

    def __repr__(self) -> str:
        return f"ParameterLayout(size={self._size}, tensors={len(self._shapes)})"

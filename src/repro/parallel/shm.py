"""Shared-memory numpy arrays for zero-copy worker processes.

The sweep's feature tensor is by far the largest object a worker needs
(hundreds of MB at network scale); pickling it into every worker would
dominate the run.  :class:`SharedNDArray` instead copies an array once
into a :mod:`multiprocessing.shared_memory` block, and every worker maps
the block by name — the OS shares the physical pages, so ``n`` workers
cost one tensor, not ``n``.

Workers receive only the tiny :class:`SharedArraySpec` (name, shape,
dtype) through the pool initializer, attach, and get a **read-only**
numpy view.  :class:`SharedArrayBundle` groups the blocks of one
parallel run and owns their cleanup; creation failures (``/dev/shm``
unavailable or full) surface as :class:`SharedMemoryUnavailable` so
callers can degrade to the serial path.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

__all__ = [
    "SharedArraySpec",
    "SharedNDArray",
    "SharedArrayBundle",
    "SharedMemoryUnavailable",
    "shared_memory_available",
]


class SharedMemoryUnavailable(RuntimeError):
    """Raised when a shared-memory block cannot be created on this host."""


@dataclass(frozen=True)
class SharedArraySpec:
    """Picklable handle of one shared array: everything attach() needs."""

    name: str
    shape: tuple[int, ...]
    dtype: str


class SharedNDArray:
    """A numpy array whose buffer lives in a named shared-memory block.

    Create with :meth:`create` in the parent (copies the source array
    in), attach with :meth:`attach` in workers (zero-copy, read-only
    view).  The parent is the owner and must call :meth:`destroy` once
    the pool is done; workers just :meth:`close`.
    """

    def __init__(
        self, shm: shared_memory.SharedMemory, array: np.ndarray, owner: bool
    ) -> None:
        self._shm = shm
        self.array = array
        self._owner = owner

    @classmethod
    def create(cls, source: np.ndarray) -> "SharedNDArray":
        source = np.ascontiguousarray(source)
        try:
            shm = shared_memory.SharedMemory(
                create=True, size=max(1, source.nbytes)
            )
        except (OSError, ValueError) as error:
            raise SharedMemoryUnavailable(
                f"cannot allocate {source.nbytes} shared bytes: {error}"
            ) from error
        array = np.ndarray(source.shape, dtype=source.dtype, buffer=shm.buf)
        array[...] = source
        array.flags.writeable = False
        return cls(shm, array, owner=True)

    @classmethod
    def attach(cls, spec: SharedArraySpec) -> "SharedNDArray":
        shm = shared_memory.SharedMemory(name=spec.name)
        # Under the fork start method the workers share the parent's
        # resource tracker, whose registry is a set: the attach-side
        # re-registration dedupes away and the owner's unlink is the one
        # unregistration.  (Workers must NOT unregister here — they
        # would strip the owner's entry and the tracker would complain
        # at unlink time.)
        array = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=shm.buf)
        array.flags.writeable = False
        return cls(shm, array, owner=False)

    @property
    def spec(self) -> SharedArraySpec:
        return SharedArraySpec(
            name=self._shm.name,
            shape=tuple(self.array.shape),
            dtype=self.array.dtype.str,
        )

    def close(self) -> None:
        """Drop this process's mapping (the block itself survives)."""
        self.array = None
        self._shm.close()

    def destroy(self) -> None:
        """Close and unlink the block; owner-side final cleanup."""
        self.close()
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass


class SharedArrayBundle:
    """The named shared arrays of one parallel run, as a unit.

    ``create({"X": arr, ...})`` copies every array into its own block;
    :meth:`specs` is the picklable payload for the pool initializer, and
    :meth:`attach` rebuilds the name → read-only-array mapping inside a
    worker.  Use as a context manager in the parent so the blocks are
    unlinked even when the pool errors out.
    """

    def __init__(self, blocks: dict[str, SharedNDArray], owner: bool) -> None:
        self._blocks = blocks
        self._owner = owner

    @classmethod
    def create(cls, arrays: dict[str, np.ndarray]) -> "SharedArrayBundle":
        blocks: dict[str, SharedNDArray] = {}
        try:
            for name, array in arrays.items():
                blocks[name] = SharedNDArray.create(array)
        except SharedMemoryUnavailable:
            for block in blocks.values():
                block.destroy()
            raise
        return cls(blocks, owner=True)

    @classmethod
    def attach(cls, specs: dict[str, SharedArraySpec]) -> "SharedArrayBundle":
        blocks = {name: SharedNDArray.attach(spec) for name, spec in specs.items()}
        return cls(blocks, owner=False)

    def specs(self) -> dict[str, SharedArraySpec]:
        return {name: block.spec for name, block in self._blocks.items()}

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: block.array for name, block in self._blocks.items()}

    def __getitem__(self, name: str) -> np.ndarray:
        return self._blocks[name].array

    def destroy(self) -> None:
        for block in self._blocks.values():
            if self._owner:
                block.destroy()
            else:
                block.close()
        self._blocks = {}

    def __enter__(self) -> "SharedArrayBundle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.destroy()


def shared_memory_available() -> bool:
    """True when this host can allocate shared-memory blocks at all."""
    try:
        probe = shared_memory.SharedMemory(create=True, size=8)
    except (OSError, ValueError):
        return False
    probe.close()
    probe.unlink()
    return True

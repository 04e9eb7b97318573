"""Deterministic, order-independent random streams.

Every random object in the library is drawn from a generator derived from a
:class:`SeedPath`: a master seed plus a tuple of stream labels (scenario id,
dimension, trial index, object tag, ...).  Two identical paths always yield
bit-identical streams, no matter in which order or on which worker they are
consumed, so experiments parallelize without losing reproducibility.

Label hashing goes through :class:`numpy.random.SeedSequence`, which mixes an
arbitrary-length entropy list into the generator state.  String labels are
digested with BLAKE2 (stable across processes and platforms, unlike the
builtin ``hash``), and integers are tagged separately so that ``5`` and
``"5"`` derive distinct streams.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
_INT_TAG = 0
_STR_TAG = 1

Label = int | str


# typed, so that a bool is never served from the entry of an equal int label
@functools.lru_cache(maxsize=4096, typed=True)
def _label_words(label: Label) -> tuple[int, int]:
    if isinstance(label, bool):
        raise TypeError("bool labels are ambiguous; use int or str")
    if isinstance(label, int):
        return (_INT_TAG, label & _MASK64)
    if isinstance(label, str):
        digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest()
        return (_STR_TAG, int.from_bytes(digest, "little"))
    raise TypeError(f"seed labels must be int or str, got {type(label).__name__}")


@dataclass(frozen=True)
class SeedPath:
    """Master seed plus a tuple of stream labels.

    Parameters
    ----------
    master : int
        64-bit master seed (wider ints are folded to 64 bits).
    labels : tuple of int or str
        Hierarchical stream labels, e.g. ``("conj1", 16, 3, "matrix")``.
    """

    master: int
    labels: tuple[Label, ...] = ()

    def __post_init__(self) -> None:
        for label in self.labels:
            _label_words(label)  # validate types eagerly

    def child(self, *labels: Label) -> "SeedPath":
        """Return a sub-path with `labels` appended."""
        for label in labels:
            _label_words(label)  # this path's own labels are already valid
        path = object.__new__(SeedPath)
        object.__setattr__(path, "master", self.master)
        object.__setattr__(path, "labels", self.labels + labels)
        return path

    def entropy(self) -> list[int]:
        words = [self.master & _MASK64]
        for label in self.labels:
            words.extend(_label_words(label))
        return words

    def generator(self) -> np.random.Generator:
        """PCG64 generator keyed by (master, labels); pure function of the path."""
        return np.random.default_rng(np.random.SeedSequence(self.entropy()))

"""Deterministic, order-independent random streams.

Every random object in the library is drawn from a generator derived from a
:class:`SeedPath`: a master seed plus a tuple of stream labels (scenario id,
dimension, trial index, object tag, ...).  Two identical paths always yield
bit-identical streams, no matter in which order or on which worker they are
consumed, so experiments parallelize without losing reproducibility.

A path's entropy is the list ``[master, tag, value, tag, value, ...]``:
string labels are digested with BLAKE2 (stable across processes and
platforms, unlike the builtin ``hash``), and integers are tagged separately
so that ``5`` and ``"5"`` derive distinct streams.  The generator of a path
is the PCG64 generator of ``np.random.SeedSequence(path.entropy())``, bit for
bit, but the SeedSequence mix is computed here, for many paths at once:

* SeedSequence folds the entropy, as little-endian uint32 words, into a pool
  of four words.  Its hash constants do not depend on the data, and once the
  first four words have filled the pool, each later word updates the four
  pool words independently of each other.
* So the pool after a shared prefix of at least four words, such as
  (master, scenario, n), is memoised in a bounded cache, and
  :meth:`SeedPath.generators` finishes a batch of paths below that prefix in
  one numpy fold over (4, T) uint32 lanes, followed by one vectorised
  ``generate_state``.  Each generator is seeded from its four state words.
* :meth:`SeedPath.generator` is a batch of one, whose pool is memoised at
  the path's first four words.
* The words of each label are cached, keyed by its value and type, and a
  batch's tails reach the fold as one ``np.fromiter`` array.

numpy's SeedSequence itself is not used here; the tests use it as the
oracle that every stream must match.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

__all__ = ["SeedPath"]

_MASK32 = (1 << 32) - 1
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


def _uint32(value: int) -> tuple[int, ...]:
    """A non-negative int as SeedSequence reads it: its 32-bit words, low first, at least one."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return tuple(words)


@functools.lru_cache(maxsize=4096, typed=True)
def _label_uint32(label: Label) -> tuple[int, ...]:
    tag, value = _label_words(label)
    return _uint32(tag) + _uint32(value)


def _labels_uint32(labels: Iterable[Label]) -> tuple[int, ...]:
    words: tuple[int, ...] = ()
    for label in labels:
        words += _label_uint32(label)
    return words


# ---------------------------------------------------------------------------
# the SeedSequence mix (numpy/random/bit_generator.pyx), batched
# ---------------------------------------------------------------------------

_POOL = 4  # pool words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # hash constants of the entropy mix
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # hash constants of generate_state
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_LANE_L, _LANE_R, _SHIFT = np.uint32(_MIX_L), np.uint32(_MIX_R), np.uint32(16)


def _powers(first: int, mult: int, count: int) -> list[int]:
    out = [first]
    for _ in range(count - 1):
        out.append(out[-1] * mult & _MASK32)
    return out


# The k-th hash of the entropy mix xors with A[k] and multiplies by A[k + 1].
_HEAD_A = _powers(_INIT_A, _MULT_A, 4 * _POOL + 1)


def _hashmix(value: int, k: int) -> int:
    value = (value ^ _HEAD_A[k]) * _HEAD_A[k + 1] & _MASK32
    return value ^ value >> 16


def _mix(x: int, y: int) -> int:
    value = (_MIX_L * x - _MIX_R * y) & _MASK32
    return value ^ value >> 16


@functools.lru_cache(maxsize=64)
def _lane_constants(start: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Xor and multiplier constants of entropy words start..start+count-1, (count, 4, 1) each.

    From word 4 on, word j reaches pool lane d through hash 4j + d.
    """
    a = _powers(_INIT_A * pow(_MULT_A, 4 * start, 1 << 32) & _MASK32, _MULT_A, 4 * count + 1)
    xor, mult = (np.array(c, np.uint32).reshape(count, _POOL, 1) for c in (a[:-1], a[1:]))
    xor.flags.writeable = mult.flags.writeable = False
    return xor, mult


def _fold(pool: np.ndarray, words: np.ndarray, start: int) -> np.ndarray:
    """The (4, 1) `pool` after mixing in each row of the (T, J) uint32 `words`
    at entropy positions start.. (>= 4): a new (4, T) pool."""
    xor, mult = _lane_constants(start, words.shape[1])
    h = words.T[:, None, :] ^ xor  # (J, 4, T): every hash of every word at once
    h *= mult
    h ^= h >> _SHIFT
    h *= _LANE_R
    pool = pool.repeat(len(words), axis=1)
    for hj in h:
        pool *= _LANE_L
        pool -= hj
        pool ^= pool >> _SHIFT
    return pool


# An experiment mixes below one grid point's prefix at a time; a few entries
# suffice, and each costs about 1 KiB of peak RSS.
@functools.lru_cache(maxsize=16)
def _pool(words: tuple[int, ...]) -> np.ndarray:
    """SeedSequence's pool after mixing `words`, as a read-only (4, 1) uint32 array."""
    # an entropy shorter than the pool is run out with zero words
    pool = [_hashmix(w, k) for k, w in enumerate(words[:_POOL] + (0,) * (_POOL - len(words)))]
    k = _POOL
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], k))
                k += 1
    out = _fold(np.array(pool, np.uint32).reshape(_POOL, 1),
                np.array([words[_POOL:]], np.uint32), _POOL)
    out.flags.writeable = False
    return out


_STATE_CYCLE = np.arange(8) % _POOL  # generate_state reads the pool round robin
_B = _powers(_INIT_B, _MULT_B, 9)
_STATE_XOR = np.array(_B[:-1], np.uint32).reshape(8, 1)
_STATE_MULT = np.array(_B[1:], np.uint32).reshape(8, 1)


def _state(pool: np.ndarray) -> np.ndarray:
    """``generate_state(4, np.uint64)`` of every pool column: a (T, 4) uint64 array."""
    s = pool[_STATE_CYCLE] ^ _STATE_XOR
    s *= _STATE_MULT
    s ^= s >> _SHIFT
    # consecutive uint32 words pair up little-endian, as in SeedSequence
    return np.ascontiguousarray(s.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


class _State:
    """A mixed SeedSequence, reduced to the four uint64 words PCG64 asks it for
    (an ``ISeedSequence`` once :func:`_register` has run)."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("this seed holds only PCG64's state: 4 words of uint64")
        return self.words


@functools.cache
def _register() -> None:
    # numpy 2 imports np.random on first use; subclassing ISeedSequence would
    # import it with ctrllab, which costs the float-sweep benchmark about
    # 0.5 MiB of peak RSS
    np.random.bit_generator.ISeedSequence.register(_State)


def _states(prefix: tuple[int, ...], tails: list[tuple[int, ...]]) -> list[np.ndarray]:
    """The PCG64 seed words of each entropy ``prefix + tail``.  Every tail folds
    from position len(prefix), which must be at least 4 unless every tail is empty."""
    by_length: dict[int, list[int]] = {}
    for i, tail in enumerate(tails):
        by_length.setdefault(len(tail), []).append(i)
    out: list = [None] * len(tails)
    for length, rows in by_length.items():
        words = np.fromiter(chain.from_iterable(tails[i] for i in rows), np.uint32,
                            len(rows) * length).reshape(len(rows), length)
        for i, state in zip(rows, _state(_fold(_pool(prefix), words, len(prefix)))):
            out[i] = state
    return out


def _generators(prefix: tuple[int, ...],
                tails: list[tuple[int, ...]]) -> Iterator[np.random.Generator]:
    if len(prefix) >= _POOL:
        states = _states(prefix, tails)
    else:  # the pool is not lane-separable yet: key each path by its own first four words
        states = [_states(w[:_POOL], [w[_POOL:]])[0] for w in (prefix + tail for tail in tails)]
    _register()
    # built one at a time, so that a batch's generators need not all be alive at once
    return (np.random.Generator(np.random.PCG64(_State(state))) for state in states)


@dataclass(frozen=True)
class SeedPath:
    """Master seed plus a tuple of stream labels.

    Parameters
    ----------
    master : int
        64-bit master seed (wider and negative ints are folded to 64 bits;
        numpy integers are taken by value; bool is rejected as ambiguous).
    labels : tuple of int or str
        Hierarchical stream labels, e.g. ``("conj1", 16, 3, "matrix")``.
    """

    master: int
    labels: tuple[Label, ...] = ()

    def __post_init__(self) -> None:
        master = self.master
        if isinstance(master, (bool, np.bool_)) or not isinstance(master, (int, np.integer)):
            raise TypeError(f"master seed must be an int, got {type(master).__name__}")
        object.__setattr__(self, "master", int(master))
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
        """PCG64 generator keyed by (master, labels); pure function of the path,
        equal to ``np.random.default_rng(np.random.SeedSequence(self.entropy()))``."""
        return next(_generators(_uint32(self.master & _MASK64), [_labels_uint32(self.labels)]))

    def generators(self, tails: Iterable[tuple[Label, ...]]) -> Iterator[np.random.Generator]:
        """``self.child(*tail).generator()`` for each tail in order, mixed in one
        batch below this path's memoised pool; each generator is built when the
        iterator reaches it."""
        prefix = _uint32(self.master & _MASK64) + _labels_uint32(self.labels)
        return _generators(prefix, [_labels_uint32(tail) for tail in tails])

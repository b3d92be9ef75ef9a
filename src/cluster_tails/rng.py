"""Keyed random number streams.

Every sampler in the package takes an explicit :class:`RngStream`, so callers
own all mutable state.  Streams are PCG64DXSM generators seeded by
``np.random.SeedSequence(seed, spawn_key=key)``: a root stream ``(seed,
stream_id)`` has the key ``(stream_id,)``, its chunk ``i`` the key
``(stream_id, i)``, and a branch ``w`` of that chunk the key
``(stream_id, i, w)``.  Distinct keys under one seed give statistically
independent streams, and a stream is a pure function of its seed and key, so
it reproduces its draws bit for bit whatever other streams were consumed in
between.

Batch operations partition work into fixed-size chunks and draw each chunk
from ``stream.child(chunk_index)``, which is what makes results independent
of the worker count.  A chunk that draws several kinds of variates can take
each kind from a branch of its own (:meth:`RngStream.branch`): a kind that
is not needed is then skipped without shifting the draws of the others.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# SeedSequence splits a key word of 2**32 or more into 32-bit words, so
# (2**32,) would be the key (0, 1); ids below 2**32 keep every key distinct
_ID_LIMIT = 1 << 32


@dataclass
class RngStream:
    """One reproducible substream of the global experiment seed.

    A root stream (``index`` None) has the spawn key ``(stream_id,)``;
    :meth:`child` gives chunk ``index`` the key ``(stream_id, index)``, and
    :meth:`branch` gives a chunk's branch ``word`` the key
    ``(stream_id, index, word)``.  The three levels have keys of different
    lengths, so they never collide; a child has no children and a branch no
    branches.
    """

    seed: int
    stream_id: int = 0
    index: int | None = None
    word: int | None = None
    _gen: np.random.Generator | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if not 0 <= self.stream_id < _ID_LIMIT:
            raise ValueError("stream_id must be a 32-bit unsigned integer")
        if self.index is not None and not 0 <= self.index < _ID_LIMIT:
            raise ValueError("child index must be a 32-bit unsigned integer")
        if self.word is not None and (self.index is None or not 0 <= self.word < _ID_LIMIT):
            raise ValueError("a branch word must be a 32-bit unsigned integer of a child stream")

    @property
    def spawn_key(self) -> tuple[int, ...]:
        key = (self.stream_id, self.index, self.word)
        return tuple(k for k in key if k is not None)

    @property
    def generator(self) -> np.random.Generator:
        """The live numpy generator for this stream (created on first use)."""
        if self._gen is None:
            seq = np.random.SeedSequence(self.seed, spawn_key=self.spawn_key)
            self._gen = np.random.Generator(np.random.PCG64DXSM(seq))
        return self._gen

    def child(self, index: int) -> "RngStream":
        """Fresh stream for chunk ``index`` of a batch run on this root stream."""
        if self.index is not None:
            raise ValueError("child streams have no children")
        return RngStream(self.seed, self.stream_id, index)

    def branch(self, word: int) -> "RngStream":
        """Fresh stream for one kind of draw of this chunk: key ``(stream_id, index, word)``.

        The chunk's own generator keeps the other kinds, so whether a branch
        is drawn from never changes what the chunk or its other branches draw.
        """
        if self.index is None or self.word is not None:
            raise ValueError("only child streams have branches")
        return RngStream(self.seed, self.stream_id, self.index, word)

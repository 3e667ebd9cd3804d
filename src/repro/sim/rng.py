"""Deterministic random-stream management for the Monte Carlo engines.

Every experiment takes one integer seed; independent streams for pages,
trials, and schemes are spawned from it with numpy's ``SeedSequence`` so
results are reproducible regardless of execution order, and so the same
page population can be replayed under different schemes (a variance
reduction the paper's paired comparisons implicitly rely on).

The scalar fault walks draw their random bits (stuck values and sampled
data patterns) through a :class:`BitSource`, which reads the generator's
raw PCG64 output in chunks and hands out exactly what
``Generator.integers`` would, without numpy's per-call overhead.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


def rng_for(seed: int, *keys: int) -> np.random.Generator:
    """A generator keyed by ``(seed, *keys)`` — stable across runs and
    independent across distinct key tuples."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=keys))


#: raw 64-bit outputs a source fetches first; each later fetch doubles,
#: up to :data:`_MAX_CHUNK`
_FIRST_CHUNK = 256
_MAX_CHUNK = 8192


class BitSource:
    """Random bits of a PCG64 generator, bit-identical to its
    ``integers`` calls, for the span of one fault walk.

    The draws and the calls they reproduce (numpy's Lemire bounded draws
    with a range of 2, which take the top bit of each word):

    * :meth:`bit` — ``int(rng.integers(0, 2))``: bit 31 of one
      ``next_uint32``;
    * :meth:`bits` — ``rng.integers(0, 2, size=k).tolist()``: bit 31 of
      each of ``k`` ``next_uint32``;
    * :meth:`patterns` — ``rng.integers(0, 2, size=(samples, n),
      dtype=np.uint8)``: bit 7 of each byte, low byte first, of
      ``ceil(samples * n / 4)`` ``next_uint32``.

    PCG64's ``next_uint32`` hands out the low half of a 64-bit output and
    caches the high half for the next call, so the ``uint32`` stream is
    the cached half (if any) followed by the raw outputs' little-endian
    halves.  The source prefetches raw outputs in chunks;
    :meth:`close` rewinds the ones it did not use and restores the cached
    half, leaving the generator exactly where the numpy calls would have.
    Draw nothing from the generator itself while a source is open.
    ``tests/test_page_sim.py::TestBitSource`` pins the equivalence, so a
    numpy release that changes these draws fails there.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        bitgen = rng.bit_generator
        if not isinstance(bitgen, np.random.PCG64):
            raise ConfigurationError(
                f"the fault walks draw from PCG64 only, not {type(bitgen).__name__}"
            )
        state = bitgen.state
        self._bitgen: np.random.PCG64 | None = bitgen
        self._lead = state["has_uint32"]  # a cached half opens the stream
        self._uinteger = state["uinteger"]
        self._words = np.array([self._uinteger] * self._lead, dtype="<u4")
        self._pos = 0  # next unread word of ``_words``
        self._base = 0  # words read before ``_words[0]``
        self._raw = np.empty(0, dtype=np.uint64)  # the last fetched chunk
        self._fetched = 0  # raw outputs fetched, ``_raw`` included
        self._chunk = _FIRST_CHUNK

    def __enter__(self) -> BitSource:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _take(self, n: int) -> np.ndarray:
        """The next ``n`` words of the ``uint32`` stream."""
        end = self._pos + n
        if end > self._words.shape[0]:
            short = end - self._words.shape[0]
            count = max(self._chunk, -(-short // 2))
            self._chunk = min(2 * self._chunk, _MAX_CHUNK)
            self._raw = self._bitgen.random_raw(count)
            self._fetched += count
            fresh = self._raw.astype("<u8", copy=False).view("<u4")
            self._words = np.concatenate((self._words[self._pos :], fresh))
            self._base += self._pos
            self._pos, end = 0, n
        words = self._words[self._pos : end]
        self._pos = end
        return words

    def bit(self) -> int:
        """One random bit: ``int(rng.integers(0, 2))``."""
        return int(self._take(1)[0]) >> 31

    def bits(self, k: int) -> list[int]:
        """``k`` random bits: ``rng.integers(0, 2, size=k).tolist()``."""
        return (self._take(k) >> 31).tolist()

    def patterns(self, samples: int, n: int) -> np.ndarray:
        """A ``(samples, n)`` ``uint8`` array of random bits:
        ``rng.integers(0, 2, size=(samples, n), dtype=np.uint8)``."""
        count = samples * n
        data = self._take(-(-count // 4)).view(np.uint8)[:count]
        return (data >> 7).reshape(samples, n)

    def close(self) -> None:
        """Hand the generator back at the position the numpy calls would
        have left it: rewind the unused raw outputs and restore the cached
        ``uint32`` half.  Idempotent."""
        bitgen, self._bitgen = self._bitgen, None
        if bitgen is None or self._base + self._pos == 0:
            return  # closed already, or nothing read: nothing moved
        words = self._base + self._pos - self._lead  # read from raw outputs
        used = -(-words // 2)
        unused = self._fetched - used
        if unused:
            bitgen.advance(2**128 - unused)  # also clears the cached half
        state = bitgen.state
        state["has_uint32"] = words % 2
        # numpy caches the high half of every output it splits; the last
        # one it used lies in the last chunk, which a read always reaches
        last = used - 1 - (self._fetched - self._raw.shape[0])
        state["uinteger"] = int(self._raw[last]) >> 32 if used else self._uinteger
        bitgen.state = state

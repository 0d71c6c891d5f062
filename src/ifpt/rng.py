"""Deterministic, keyed random number streams.

Step noise is counter-based, in the style of Salmon et al., "Random
numbers: as easy as 1, 2, 3" (SC'11).  The uniform of particle ``id`` for
the key ``(seed, step, slot, row)`` is the splitmix64 output at position
``id + 1`` of the Weyl sequence that starts at a hash of that key.  Any
set of ids is drawn directly, at the cost of that set alone, so a step
draws only for the particles it advances.  A particle's noise depends only
on the seed, the step, the slot, the row and its id -- never on execution
order, thread count, or which other particles are alive.  This is what
makes common-random-number coupling across runs exact.

Initial positions, drawn as a whole sample at once, come from a Philox
generator keyed by a hash of ``(seed, label)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_ONE_BITS = 0x3FF0000000000000  # IEEE-754 bits of 1.0
# ids hashed per pass, so the temporaries stay in cache; on a 2-vCPU x86-64
# VM this halved the hash time for 2 * 10^5 ids against a single pass
_CHUNK = 1 << 15

# fixed labels for the top-level stream families
INIT_LABEL = 0x11
STEP_LABEL = 0x22


def _mix64(z: int) -> int:
    """splitmix64 finalizer; avalanches a 64-bit word."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def derive_seed(seed: int, *path: int) -> int:
    """64-bit hash of a seed and an integer path.

    It hands independent seeds to sub-runs and keys every step draw.
    """
    h = _mix64(seed & _MASK)
    for p in path:
        h = _mix64((h + _GOLDEN) ^ _mix64(int(p) & _MASK))
    return h


def stream_key(seed: int, *path: int) -> np.ndarray:
    """Two-word Philox key derived from a seed and an integer path."""
    h = derive_seed(seed, *path)
    return np.array([h, _mix64(h ^ _GOLDEN)], dtype=np.uint64)


def generator(seed: int, *path: int) -> np.random.Generator:
    """Independent generator keyed by (seed, path)."""
    return np.random.Generator(np.random.Philox(key=stream_key(seed, *path)))


def keyed_uniforms(key: int, ids: np.ndarray) -> np.ndarray:
    """Uniforms in (0, 1), one per id, from the Weyl sequence started at key.

    The top 52 bits z of each splitmix64 output map to (z + 0.5) * 2**-52.
    Every such value is exact in float64, so the range is
    [2**-53, 1 - 2**-53] and symmetric about 1/2; with 53 bits the largest
    output would round to 1.0.
    """
    u = np.empty(len(ids))
    bits = u.view(np.uint64)
    tmp = np.empty(min(len(ids), _CHUNK), dtype=np.uint64)
    for a in range(0, len(ids), _CHUNK):
        z = bits[a : a + _CHUNK]
        t = tmp[: len(z)]
        np.add(ids[a : a + _CHUNK], 1, out=z.view(np.int64))
        z *= _GOLDEN
        z += key
        for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
            np.right_shift(z, shift, out=t)
            z ^= t
            z *= mult
        np.right_shift(z, 31, out=t)
        z ^= t
        # z >> 12 as the mantissa of a double in [1, 2) gives 1 + z * 2**-52
        z >>= 12
        z |= _ONE_BITS
    # exact by Sterbenz's lemma, and cheaper than an int-to-float cast
    u -= 1.0 - 2.0**-53
    return u


@dataclass(frozen=True)
class StreamKeys:
    """Per-particle RNG keys for one calibration or verification step.

    ``ids`` are the particles being advanced; every draw has one entry per
    id.  ``n_total`` is the ensemble size; draws never depend on it.
    """

    seed: int
    step_index: int
    ids: np.ndarray
    n_total: int

    def _key(self, slot: int, row: int) -> int:
        return derive_seed(self.seed, STEP_LABEL, self.step_index, slot, row)

    def uniforms(self, slot: int = 0, row: int = 0) -> np.ndarray:
        return keyed_uniforms(self._key(slot, row), self.ids)

    def normals(self, slot: int = 0, row: int = 0) -> np.ndarray:
        u = keyed_uniforms(self._key(slot, row), self.ids)
        return ndtri(u, out=u)

    def normal_block(self, rows: int, slot: int = 0) -> np.ndarray:
        """(rows, len(ids)) block of standard normals; row j is keyed (slot, j)."""
        block = np.empty((rows, len(self.ids)))
        for j in range(rows):
            block[j] = keyed_uniforms(self._key(slot, j), self.ids)
        return ndtri(block, out=block)

    # perfbench/tracer.py binds the two names below at install; they go
    # when the benchmark is next revised
    def poisson_full(self, lam: float, slot: int = 0) -> np.ndarray:
        raise NotImplementedError("counts are drawn per id: see processes.poisson_jumps")

    def uniform_rows(self, slot: int = 0):
        raise NotImplementedError("jump sizes are drawn per id: see StreamKeys.uniforms")

"""Deterministic, keyed random number streams.

Step noise is counter-based, in the style of Salmon et al., "Random
numbers: as easy as 1, 2, 3" (SC'11).  The word of particle ``id`` for
the key ``(seed, step, slot, row)`` is the splitmix64 output at position
``id + 1`` of the Weyl sequence that starts at a hash of that key.  Any
set of ids is drawn directly, at the cost of that set alone, so a step
draws only for the particles it advances.  A particle's noise depends only
on the seed, the step, the slot, the row and its id -- never on execution
order, chunking, thread count, or which other particles are alive.  This
is what makes common-random-number coupling across runs exact.

Uniforms take the top 52 bits of the word.  Normals come from the
256-layer ziggurat of Marsaglia & Tsang (J. Stat. Softw. 5(8), 2000),
which has the exact Gaussian law: the low 8 bits of the word pick the
layer and the top 52 bits give the signed uniform, so the two do not
overlap (Doornik, 2005).  About 98.5 % of draws end there.  The rest take
the wedge test, Marsaglia's tail method or a fresh draw, with words read
from further blocks of the same key's stream, one block per (attempt,
part); so they too depend only on the key and the id.

Initial positions take the uniform of each particle id from the stream
keyed by ``(seed, INIT_LABEL)``, through the law's inverse CDF, so runs
that share a seed start ordered laws pathwise ordered; a point law draws
none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# the Weyl increment as a uint64 scalar: an id array of a narrower unsigned
# type times it is uint64, where numpy refuses the Python int
_GOLDEN64 = np.uint64(_GOLDEN)
_ONE_BITS = 0x3FF0000000000000  # IEEE-754 bits of 1.0
_TWO_BITS = 0x4000000000000000  # IEEE-754 bits of 2.0
# ids hashed per pass, so the temporaries stay in cache; on a 2-vCPU x86-64
# VM this halved the hash time for 2 * 10^5 ids against a single pass
_CHUNK = 1 << 15
# a key's stream is split into blocks of 2^48 positions: block 0 holds the
# first word of every id, block 2a + p the word of part p at attempt a >= 1
# of the ziggurat's slow path (ids stay below 2^48)
_BLOCK_SHIFT = 48
# the most particles, samples or grid steps a run may take, so ids fit a block
MAX_SIZE = 1 << _BLOCK_SHIFT

# fixed labels for the top-level stream families
INIT_LABEL = 0x11
STEP_LABEL = 0x22

# 256-layer ziggurat: the base strip's right edge and the common area of
# every layer, for the unnormalized density exp(-x^2 / 2)
ZIGGURAT_R = 3.6541528853610088
ZIGGURAT_V = 0.00492867323399


def _ziggurat_tables():
    """Layer edges X[0..255] (X[0] = V / f(R), X[1] = R, X[256] = 0), the
    fast-accept ratios X[i+1] / X[i], and f(X[i]) and f(X[i+1]) - f(X[i])
    for the wedge test."""
    f = lambda x: math.exp(-0.5 * x * x)  # noqa: E731
    x = [ZIGGURAT_V / f(ZIGGURAT_R), ZIGGURAT_R]
    for _ in range(254):
        x.append(math.sqrt(-2.0 * math.log(ZIGGURAT_V / x[-1] + f(x[-1]))))
    x.append(0.0)
    edges = np.array(x)
    fx = np.array([f(v) for v in x])
    # the base layer has no wedge: -inf makes the wedge comparison keep its
    # rejects, which the tail method then decides
    fx_low = fx[:-1].copy()
    fx_low[0] = -math.inf
    return edges[:-1], edges[1:] / edges[:-1], fx_low, np.diff(fx)


_X, _RATIO, _F_LOW, _F_RISE = _ziggurat_tables()


def _mix64(z: int) -> int:
    """splitmix64 finalizer; avalanches a 64-bit word."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def derive_seed(seed: int, *path: int) -> int:
    """64-bit hash of a seed and an integer path.

    It hands independent seeds to sub-runs and keys every draw, the initial
    positions' and each step's.
    """
    h = _mix64(seed & _MASK)
    for p in path:
        h = _mix64((h + _GOLDEN) ^ _mix64(int(p) & _MASK))
    return h


def _start(key: int, offset: int) -> int:
    """(offset * G + key) mod 2^64: added to id * G, it gives the Weyl
    position id + offset of the stream started at key, in two passes."""
    return (offset * _GOLDEN + key) & _MASK


def _id_words(ids) -> np.ndarray:
    """ids as unsigned words, without a copy for an unsigned or int64 array:
    ids * _GOLDEN64 is then the uint64 id * G mod 2^64 of every id."""
    ids = np.asarray(ids)
    if ids.dtype.kind == "u":
        return ids
    return np.asarray(ids, dtype=np.int64).view(np.uint64)


def _mix(z: np.ndarray, t: np.ndarray) -> None:
    """splitmix64 finalizer on the Weyl positions z, in place; t is scratch
    of z's shape."""
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        np.right_shift(z, shift, out=t)
        z ^= t
        z *= mult
    np.right_shift(z, 31, out=t)
    z ^= t


def _to_uniforms(z: np.ndarray) -> np.ndarray:
    """Words z to uniforms (m + 0.5) * 2**-52 of their top 52 bits m, in place.

    Every such value is exact in float64, so the range is
    [2**-53, 1 - 2**-53] and symmetric about 1/2; with 53 bits the largest
    output would round to 1.0.
    """
    # z >> 12 as the mantissa of a double in [1, 2) gives 1 + m * 2**-52
    z >>= 12
    z |= _ONE_BITS
    u = z.view(np.float64)
    # exact by Sterbenz's lemma, and cheaper than an int-to-float cast
    u -= 1.0 - 2.0**-53
    return u


def keyed_uniforms(key: int, ids: np.ndarray) -> np.ndarray:
    """Uniforms in (0, 1), one per id, from the Weyl sequence started at key."""
    w = _id_words(ids)
    u = np.empty(len(w))
    bits = u.view(np.uint64)
    tmp = np.empty(min(len(w), _CHUNK), dtype=np.uint64)
    start = _start(key, 1)
    for a in range(0, len(w), _CHUNK):
        z = bits[a : a + _CHUNK]
        np.multiply(w[a : a + _CHUNK], _GOLDEN64, out=z)
        z += start
        _mix(z, tmp[: len(z)])
        _to_uniforms(z)
    return u


def _ziggurat(z, layer, gather, scratch, reject) -> np.ndarray:
    """One ziggurat draw per word z, in place: returns x = u * X[layer] as a
    float view of z, with the layer (low 8 bits) in ``layer`` and, in
    ``reject``, whether x fails the rectangle test |u| < X[layer+1]/X[layer].

    u = (2m + 1) * 2**-52 - 1 for the top 52 bits m is exact, symmetric and
    never 0.  All arrays have z's length; gather and scratch are float
    scratch.
    """
    np.bitwise_and(z, 0xFF, out=layer.view(np.uint64))
    # z >> 12 as the mantissa of a double in [2, 4) gives 2 + 2m * 2**-52
    z >>= 12
    z |= _TWO_BITS
    u = z.view(np.float64)
    # both steps are exact: the first by Sterbenz's lemma, the second
    # because its result is a multiple of 2**-52 below 1 in magnitude
    u -= 3.0
    u += 2.0**-52
    np.abs(u, out=scratch)
    # layer < 256 by construction, and "wrap" skips the bounds check
    _RATIO.take(layer, out=gather, mode="wrap")
    np.greater_equal(scratch, gather, out=reject)
    _X.take(layer, out=gather, mode="wrap")
    u *= gather
    return u


def keyed_normals(key: int, ids: np.ndarray) -> np.ndarray:
    """Standard normals, one per id, from the Weyl sequence started at key."""
    out = np.empty(len(ids))
    _normal_rows((key,), ids, out.reshape(1, -1))
    return out


def _normal_rows(keys, ids: np.ndarray, out: np.ndarray) -> None:
    """Row j of the C-contiguous (len(keys), len(ids)) array out receives
    keyed_normals(keys[j], ids).

    The ziggurat's fast pass runs row by row.  The draws that fail it, from
    every row, are then resolved together, one slow-path round per attempt,
    each entry with its own row's key.
    """
    n = len(ids)
    if n == 0 or not len(keys):
        return
    w = _id_words(ids)
    m = min(n, _CHUNK)
    t = np.empty(m, dtype=np.uint64)
    layer = np.empty(m, dtype=np.intp)
    gather = np.empty(m)
    reject = np.empty(m, dtype=bool)
    flat = out.reshape(-1)
    bits = flat.view(np.uint64)
    pos, lay, counts = [], [], []
    for j, key in enumerate(keys):
        start = _start(key, 1)
        count = 0
        for a in range(0, n, _CHUNK):
            c = min(_CHUNK, n - a)
            z = bits[j * n + a : j * n + a + c]
            np.multiply(w[a : a + c], _GOLDEN64, out=z)
            z += start
            _mix(z, t[:c])
            _ziggurat(z, layer[:c], gather[:c], t[:c].view(np.float64), reject[:c])
            p = reject[:c].nonzero()[0]
            lay.append(layer[p])
            pos.append(p + (j * n + a))
            count += len(p)
        counts.append(count)
    pos = np.concatenate(pos)
    lay = np.concatenate(lay)
    # each open draw's Weyl position minus its offset, id * G + key; the
    # offset of (attempt, part) is added in the round
    base = w[pos % n].astype(np.uint64, copy=False)
    base *= _GOLDEN64
    base += np.repeat(np.array(keys, dtype=np.uint64), counts)
    attempt = 1
    while len(pos):
        still, lay = _slow_path(base, flat, pos, lay, attempt)
        pos, base = pos[still], base[still]
        attempt += 1


def _slow_path(base, out, pos, lay, attempt):
    """One attempt for the draws at positions pos of out, whose value
    x = u * X[lay] failed the rectangle test.  base holds each draw's
    id * G + key.  Returns the indices into pos of the draws still open,
    and their layers.

    Each draw reads two words, of parts 0 and 1 of this attempt.  A layer
    above 0 keeps x when a uniform from part 0 falls under the density in
    the wedge, and otherwise takes part 1 as a fresh ziggurat draw.  Layer 0
    is the tail beyond R, drawn from the uniforms of both parts.  np.exp
    only decides the wedge comparison.
    """
    m = len(pos)
    offsets = [1 + ((2 * attempt + part) << _BLOCK_SHIFT) for part in (0, 1)]
    block = np.add.outer(np.array([_start(0, o) for o in offsets], dtype=np.uint64), base)
    t = np.empty_like(block)
    _mix(block, t)
    zu, zc = block
    tail = (lay == 0).nonzero()[0]
    if len(tail):
        # zc[tail] is a copy, so the words stay for the fresh draws below
        tail_b = _to_uniforms(zc[tail])
    u = _to_uniforms(zu)

    c_layer = np.empty(m, dtype=np.intp)
    c_reject = np.empty(m, dtype=bool)
    xc = _ziggurat(zc, c_layer, t[0].view(np.float64), t[1].view(np.float64), c_reject)
    x = out[pos]
    kept = _F_LOW[lay] + u * _F_RISE[lay] < np.exp(-0.5 * x * x)
    fresh = (~kept).nonzero()[0]
    out[pos[fresh]] = xc[fresh]
    still = fresh[c_reject[fresh]]
    if len(tail):
        # the wedge keeps every tail draw (_F_LOW[0] is -inf), so none is in fresh
        again = tail[_tail(out, pos[tail], u[tail], tail_b)]
        c_layer[again] = 0
        still = np.concatenate([still, again])
    return still, c_layer[still]


def _tail(out, pos, a, b) -> np.ndarray:
    """Marsaglia's (1964) tail method: from uniforms a and b, R + s with
    s = -log(a) / R is kept when -2 log(b) > s^2, with the sign of out[pos].
    Writes the kept values and returns the indices into pos of the rest,
    left for the next attempt.

    It runs per element with math.log, whose bits do not depend on the SIMD
    kernels numpy picks for the CPU; about 0.03 % of draws get here.
    """
    again = []
    for i, (p, ua, ub) in enumerate(zip(pos.tolist(), a.tolist(), b.tolist())):
        s = -math.log(ua) / ZIGGURAT_R
        if -2.0 * math.log(ub) > s * s:
            out[p] = math.copysign(ZIGGURAT_R + s, out[p])
        else:
            again.append(i)
    return np.array(again, dtype=np.intp)


@dataclass(frozen=True)
class StreamKeys:
    """Per-particle RNG keys for one calibration or verification step.

    ``ids`` are the particles being advanced, an array of any unsigned
    integer type or int64; every draw has one entry per id.  ``n_total``
    is the ensemble size; draws never depend on it.
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
        return keyed_normals(self._key(slot, row), self.ids)

    def normal_block(self, rows: int, slot: int = 0) -> np.ndarray:
        """(rows, len(ids)) block of standard normals; row j is keyed (slot, j)
        and equals ``normals(slot, j)``."""
        block = np.empty((rows, len(self.ids)))
        _normal_rows([self._key(slot, j) for j in range(rows)], self.ids, block)
        return block

    # perfbench/tracer.py binds the two names below at install; they go
    # when the benchmark is next revised
    def poisson_full(self, lam: float, slot: int = 0) -> np.ndarray:
        raise NotImplementedError("counts are drawn per id: see processes.poisson_jumps")

    def uniform_rows(self, slot: int = 0):
        raise NotImplementedError("jump sizes are drawn per id: see StreamKeys.uniforms")

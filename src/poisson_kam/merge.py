"""Packed key codes and the merges built on them.

A key row (k, alpha, e, p) of one ring packs into one int64 code, (row - lo)
@ strides, each column in its own bits (_pack_codec); packing is linear, so
the code of a product key is the sum of its factors' codes.  Codes sort as
their rows do, so a merge sorts codes: _merge_order finds the stable order
of the codes by a tagged in-place sort, _run_sums and _run_products sum the
coefficients of each run of equal codes, _merge_sorted places one canonical
series' terms among another's by binary search, and _merge_codes merges
unsorted codes.  Every ring packs: _pack_codec refuses one whose key rows
need more than 62 bits.

The passes over a product's pairs (see series) work on blocks of
_BLOCK_PAIRS pairs, so no temporary they gather is longer than one block.
"""

import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import StructureMismatchError

# pairs per block of the product's |k|_1 filter, code sums, tagging and
# coefficient sums: no gathered temporary is longer than this
_BLOCK_PAIRS = 1 << 14


def _blocks(size):
    """Slices that cover range(size) in order, _BLOCK_PAIRS long but the last."""
    return [slice(a, min(a + _BLOCK_PAIRS, size)) for a in range(0, size, _BLOCK_PAIRS)]


class _Codec(NamedTuple):
    """Packing of a key row into one int64 code: (row - lo) @ strides, where
    column i occupies the bits masks[i] << shifts[i]."""

    lo: np.ndarray
    strides: np.ndarray
    shifts: np.ndarray
    masks: np.ndarray


@functools.lru_cache(maxsize=None)
def _pack_codec(n, m, trunc):
    """The _Codec for a (possibly product-summed) key row of one ring, built
    once per (n, m, trunc) with read-only arrays.  Packing is linear, so the
    code of a product key is the code of one factor plus the other factor's
    row @ strides.  Raises StructureMismatchError for a ring whose rows need
    more than 62 bits."""
    K, L, P = trunc
    lo = [-2 * K] * n + [0] * (m + 2)
    sizes = [4 * K + 1] * n + [2 * L + 1] * m + [3] + [2 * P + 1]
    bits = [max(1, int(math.ceil(math.log2(s + 1)))) for s in sizes]
    if sum(bits) > 62:
        raise StructureMismatchError(
            "the ring n=%d, m=%d, (K_max, L_max, P_max) = (%d, %d, %d) needs %d bits "
            "per key, over the 62 that pack into one int64 code" % (n, m, K, L, P, sum(bits))
        )
    shifts = np.empty(n + m + 2, dtype=np.int64)
    shift = 0
    for i in range(n + m + 2 - 1, -1, -1):
        shifts[i] = shift
        shift += bits[i]
    codec = _Codec(
        np.asarray(lo, dtype=np.int64),
        np.left_shift(1, shifts),
        shifts,
        np.left_shift(1, np.asarray(bits, dtype=np.int64)) - 1,
    )
    for arr in codec:
        arr.setflags(write=False)
    return codec


def _pack(keys, codec):
    """Packed int64 codes of key rows: (keys - lo) @ strides, taken as
    keys @ strides less the constant lo @ strides, the same integers
    without an int64 copy of the rows."""
    return keys @ codec.strides - codec.lo @ codec.strides


def _unpack(codes, codec):
    """Key rows (int32) of packed codes."""
    rows = codes[:, None] >> codec.shifts
    rows &= codec.masks
    rows += codec.lo
    return rows.astype(np.int32)


def _merge_order(codes):
    """Sort a non-empty int64 code array in place, stably: returns the order
    that sorts it and where each run of equal codes starts in the sorted
    codes.

    Each code is shifted left by s = len(codes).bit_length() bits and tagged
    with its row index in the freed bits, block by block, so the tagged keys
    are unique and numpy's in-place sort, stable or not, puts them in the
    stable order of the codes; the row order (int32 below 2^31 rows) is read
    back by mask and the codes by shift, in place.  Codes that overflow
    int64 once shifted take the stable argsort."""
    s = len(codes).bit_length()
    bound = 1 << (63 - s)
    if -bound <= codes.min() and codes.max() < bound:
        codes <<= s
        for block in _blocks(len(codes)):
            codes[block] |= np.arange(block.start, block.stop)
        codes.sort()
        order = np.empty(len(codes), dtype=np.int32 if s < 32 else np.int64)
        np.bitwise_and(codes, (1 << s) - 1, out=order, casting="unsafe")
        codes >>= s
    else:
        order = np.argsort(codes, kind="stable")
        codes[...] = codes[order]
    boundary = np.empty(len(codes), dtype=bool)
    boundary[0] = True
    np.not_equal(codes[1:], codes[:-1], out=boundary[1:])
    return order, np.flatnonzero(boundary)


def _run_sums(coeffs, starts):
    """The sum of each run of coeffs that begins at starts, real and
    imaginary parts separately."""
    return np.add.reduceat(coeffs.real, starts) + 1j * np.add.reduceat(coeffs.imag, starts)


def _run_products(f_coeffs, g_coeffs, i, j, order, starts):
    """The sum of f_coeffs[i] * g_coeffs[j] over each run of the pairs in
    merged order (order, then runs beginning at starts), formed one block of
    whole runs at a time.  Each product is f's times g's, out of place, as
    in pair order: a complex product can round differently with its
    operands swapped, or in place at length 1.  A run's reduceat sum does
    not depend on the runs beside it, so the sums are those of the whole
    array."""
    coeffs = np.empty(len(starts), dtype=np.complex128)
    bounds = np.append(starts, len(order))
    r = 0
    while r < len(starts):
        a = bounds[r]
        s = max(r + 1, int(np.searchsorted(bounds, a + _BLOCK_PAIRS, "right")) - 1)
        sel = order[a : bounds[s]].astype(np.intp)
        c = np.multiply(f_coeffs.take(i.take(sel)), g_coeffs.take(j.take(sel)))
        coeffs[r:s] = _run_sums(c, starts[r:s] - a)
        r = s
    return coeffs


def _merge_codes(codes, coeffs):
    """Stable-sort a copy of a non-empty int64 code array and sum the
    coefficients of equal codes (see _merge_order).  Returns the unique
    codes, the index of the first row of each, and the sums."""
    codes = codes.copy()
    order, starts = _merge_order(codes)
    return codes[starts], order[starts], _run_sums(coeffs[order], starts)


def _merge_sorted(f, g, codec):
    """The keys and coefficients of f + g for canonical f and g: g's terms
    are placed among f's by a binary search of their codes, and a key both
    have is summed as f's coefficient plus g's, which is what reduceat gives
    for a run of two rows; so the result is the constructor's merge of the
    concatenated rows bit for bit."""
    # the codes less the constant lo @ strides, which keeps their order
    a, b = f.keys @ codec.strides, g.keys @ codec.strides
    pos = np.searchsorted(a, b, "right")
    shared = pos > 0
    shared[shared] = a[pos[shared] - 1] == b[shared]
    new = np.flatnonzero(~shared)
    # dest: the rows of f + g that g's new terms land on; src: each row of
    # f + g as a row of the concatenation [f, g]
    dest = pos[new] + np.arange(len(new))
    from_f = np.ones(len(a) + len(new), dtype=bool)
    from_f[dest] = False
    src = np.empty(len(from_f), dtype=np.int64)
    src[from_f] = np.arange(len(a))
    src[dest] = len(a) + new
    keys = np.concatenate([f.keys, g.keys]).take(src, axis=0)
    coeffs = np.concatenate([f.coeffs, g.coeffs])[src]
    coeffs[np.flatnonzero(from_f)[pos[shared] - 1]] += g.coeffs[shared]
    # recombined from its parts as _run_sums does, which can change the
    # sign of a zero part
    return keys, coeffs.real + 1j * coeffs.imag

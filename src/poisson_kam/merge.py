"""Packed key codes and the merges built on them.

A key row (k, alpha, e, p) of one ring packs into one int64 code, (row - lo)
@ strides, each column in its own bits (_pack_codec); packing is linear, so
the code of a product key is the sum of its factors' codes.  Codes sort as
their rows do, so a merge sorts codes and sums the coefficients of each run
of equal codes (_run_sums, _run_products).  Rows are merged one of two ways:
_merge_codes, the stable argsort, merges a series' rows at construction and
the rows of a sum, and _merge_order, a tagged in-place sort, merges the
pairs of a product alone.  Every ring packs: _pack_codec counts a key row's
bits and refuses a ring over 62 before it allocates anything for it.

The passes over a product's pairs (see series) work on blocks of
_BLOCK_PAIRS pairs, so no temporary they gather is longer than one block.
"""

import functools
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
    row @ strides.  A row's bits are counted by arithmetic first: n angle
    columns of one width, m action columns of another, then e and p; a ring
    whose rows need more than 62 bits raises StructureMismatchError before
    any per-column array is built."""
    K, L, P = trunc
    widths = [(4 * K + 1).bit_length(), (2 * L + 1).bit_length(), 2, (2 * P + 1).bit_length()]
    total = n * widths[0] + m * widths[1] + widths[2] + widths[3]
    if total > 62:
        raise StructureMismatchError(
            "the ring n=%d, m=%d, (K_max, L_max, P_max) = (%d, %d, %d) needs %d bits "
            "per key, over the 62 that pack into one int64 code" % (n, m, K, L, P, total)
        )
    bits = np.repeat(np.array(widths, dtype=np.int64), [n, m, 1, 1])
    # column i sits above the bits of every column after it
    shifts = np.cumsum(bits[::-1])[::-1] - bits
    codec = _Codec(
        np.repeat(np.array([-2 * K, 0], dtype=np.int64), [n, m + 2]),
        np.left_shift(1, shifts),
        shifts,
        np.left_shift(1, bits) - 1,
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


def _run_starts(codes):
    """Where each run of equal codes starts in sorted codes."""
    boundary = np.empty(len(codes), dtype=bool)
    boundary[:1] = True
    np.not_equal(codes[1:], codes[:-1], out=boundary[1:])
    return np.flatnonzero(boundary)


def _merge_order(codes):
    """Sort a non-empty int64 code array of a product's pairs in place,
    stably: returns the order that sorts it and where each run of equal
    codes starts in the sorted codes.

    Each code is shifted left by s = len(codes).bit_length() bits and tagged
    with its row index in the freed bits, block by block, so the tagged keys
    are unique and numpy's in-place sort, stable or not, puts them in the
    stable order of the codes; the row order is read back by mask, as int32
    since a product forms fewer than 2^31 pairs, and the codes by shift, in
    place.  Codes that overflow int64 once shifted take the stable argsort."""
    s = len(codes).bit_length()
    bound = 1 << (63 - s)
    if -bound <= codes.min() and codes.max() < bound:
        codes <<= s
        for block in _blocks(len(codes)):
            codes[block] |= np.arange(block.start, block.stop)
        codes.sort()
        order = np.empty(len(codes), dtype=np.int32)
        np.bitwise_and(codes, (1 << s) - 1, out=order, casting="unsafe")
        codes >>= s
    else:
        order = np.argsort(codes, kind="stable")
        codes[...] = codes[order]
    return order, _run_starts(codes)


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
    """The stable merge of an int64 code array, which is left as it is:
    the unique codes, the index of the first row of each, and the sum of
    the coefficients of each run of equal codes in row order.  numpy's
    stable sort of int64 is a timsort, which merges codes that arrive as a
    few sorted runs, such as a sum's two operands, in linear passes."""
    order = np.argsort(codes, kind="stable")
    codes = codes[order]
    starts = _run_starts(codes)
    return codes[starts], order[starts], _run_sums(coeffs[order], starts)

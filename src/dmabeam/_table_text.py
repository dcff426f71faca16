"""The data lines of the CLI's tables: ``%d`` of each integer cell and
``%.11e`` of each other cell, byte for byte, with the float cells of a
whole table converted by NumPy at once.

A float cell x with 1e-280 <= |x| <= 1e280 takes the decade
e = floor(log10|x|), moved by one step where the scaled value falls
outside [1e11, 1e12), and the scaled value s = |x| 10^(11-e), whose
nearest integer r is the 12-digit mantissa that % prints.  The table
entry 10^(11-e) and the product are each rounded once, so s lies within
2^-52 s < 2.3e-4 of the exact |x| 10^(11-e).  Where s lies at least 1e-3
from a half-integer, the exact value therefore has the same nearest
integer r and is no tie, and where r lies strictly inside (1e11, 1e12)
the exact value has the decade e too: the cell reads as % writes it.

Left to % one at a time are the cells within 1e-3 of a tie, those whose
r is 1e11 or 1e12 (next to a decade edge), those with |x| outside
[1e-280, 1e280] (subnormals included) and every cell of an integer
column.  NaN of either sign (% prints "nan") and +-inf are set by masks;
+-0 takes r = 0 and e = 0, which print as % prints them.
"""

import numpy as np


def _word(text: str) -> int:
    """``text``, at most 8 ASCII bytes, as a little-endian word."""
    return int.from_bytes(text.encode("ascii"), "little")


_INF = _word("\0inf")       # its sign byte left free
_NAN = _word("nan")


def _tables():
    """The double nearest 10^k for k in [-300, 300], and as little-endian
    words of ASCII bytes: "ddd" for 0 to 999; a free sign byte, the lead
    digit, the point and two digits for 0 and 100 to 999; "e+dd" or
    "e-ddd" for the exponents -300 to 300."""
    pow10 = np.array([float(f"1e{k}") for k in range(-300, 301)])
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint64)
    three = (digit[:, None, None] | digit[:, None] << 8
             | digit << 16).ravel()
    head = (three & 0xFF) << 8 | _word("\0\0.") | (three >> 8) << 24
    e = np.arange(-300, 301)
    e_digits = np.where(np.abs(e) >= 100, three[np.abs(e)],
                        three[np.abs(e)] >> 8)
    exponent = np.where(e < 0, _word("e-"), _word("e+")).astype(np.uint64) \
        | e_digits << 16
    return pow10, three, head, exponent


_POW10, _THREE, _HEAD, _EXPONENT = _tables()


def data_lines(data) -> str:
    """The data lines of a table given as one 1-d array per column, each
    line ending in a newline.

    A cell fills three little-endian words: "sl.dd" and the next three
    digits, six digits, and the exponent with the separator in the last
    byte.  The NUL bytes of unused places are dropped from the whole
    buffer at once.
    """
    n_rows, n_cols = len(data[0]), len(data)
    x = np.column_stack(data).astype(float, copy=False)
    a = np.abs(x)
    fast = (a >= 1e-280) & (a <= 1e280)
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    s = a * _POW10[311 - e]
    e += (s >= 1e12).astype(np.int64) - (s < 1e11)
    s = a * _POW10[311 - e]
    r = np.rint(s)
    fast &= (np.abs(s - r) <= 0.499) & (r > 1e11) & (r < 1e12)
    r[~fast] = 0.0
    # r = ((g0 1000 + g1) 1000 + g2) 1000 + g3, in groups of three digits.
    g = np.empty((4,) + r.shape, dtype=np.int64)
    g[3] = r
    for k in (2, 1, 0):
        g[k] = g[k + 1] // 1000
        g[k + 1] -= g[k] * 1000
    words = np.empty((n_rows, n_cols, 3), dtype="<u8")
    words[..., 0] = _HEAD[g[0]] | _THREE[g[1]] << np.uint64(40)
    words[..., 1] = _THREE[g[2]] | _THREE[g[3]] << np.uint64(24)
    words[..., 2] = _EXPONENT[e + 300]
    inf = np.isinf(x)
    words[inf] = (_INF, 0, 0)
    words[..., 0] |= np.signbit(x) * np.uint64(ord("-"))
    nan = np.isnan(x)
    words[nan] = (_NAN, 0, 0)
    separators = np.full(n_cols, ord(","), dtype=np.uint64)
    separators[-1] = ord("\n")
    words[..., 2] |= separators << np.uint64(56)
    ints = [col.dtype.kind in "iu" for col in data]
    slow = ~(fast | inf | nan | (x == 0))
    slow[:, ints] = True
    rows, cols = np.nonzero(slow)
    if rows.size:
        # At most 20 bytes ("%d" of int64's minimum), NUL-padded to 23.
        text = [("%d" if ints[j] else "%.11e") % data[j][i]
                for i, j in zip(rows.tolist(), cols.tolist())]
        cells = words.view(np.uint8).reshape(n_rows, n_cols, 24)
        cells[rows, cols, :23] = np.array(text, dtype="S23").view(
            np.uint8).reshape(-1, 23)
    return words.tobytes().translate(None, b"\0").decode("ascii")

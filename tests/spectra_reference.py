"""Per-spectrum string code for periods, bounded indices and the standard
decomposition: the independent reference for ``slicedeg.spectra``, which
computes them by shift and XOR on spectrum numbers.

Periods come from the KMP border table, the bounded index from a loop over
shrinking segments, g from its own extension loop and the window check from
a pairwise comparison.  A spectrum is a tuple of 0/1 values, entry i being
Spec f(i).
"""

from slicedeg.spectra import decomposition_window


def border_table(s):
    """KMP failure function: border[i] = longest proper border of s[:i+1]."""
    border = [0] * len(s)
    k = 0
    for i in range(1, len(s)):
        while k and s[i] != s[k]:
            k = border[k - 1]
        if s[i] == s[k]:
            k += 1
        border[i] = k
    return border


def string_period(s):
    """Smallest b >= 1 with s[i] == s[i+b] for all valid i (may equal len(s))."""
    if len(s) == 0:
        raise ValueError("empty string has no period")
    return len(s) - border_table(s)[-1]


def primitive_root(w):
    """Shortest z with w = z^k, k maximal (k = 1 iff w is primitive)."""
    if not w:
        raise ValueError("word must be non-empty")
    b = string_period(w)
    if len(w) % b == 0 and len(w) // b >= 2:
        return w[:b], len(w) // b
    return w, 1


def window_distinct_check(bits):
    """Length-b windows at offsets differing mod b are distinct, b the
    period (> 1), offsets in [0, n-b+1]: every pair compared."""
    b = string_period(bits)
    if b <= 1:
        raise ValueError("spectrum has period 1; windows are all identical")
    last = len(bits) - b
    windows = [tuple(bits[i:i + b]) for i in range(last + 1)]
    for i in range(last + 1):
        for j in range(i + 1, last + 1):
            if (i - j) % b != 0 and windows[i] == windows[j]:
                return False
    return True


def bounded_index(bits):
    """Smallest k such that the spectrum is constant on [k, n-k]."""
    n = len(bits) - 1
    for k in range(n + 2):
        seg = bits[k:n - k + 1]
        if len(seg) <= 1 or all(v == seg[0] for v in seg):
            return k
    raise AssertionError("unreachable")


def standard_decomposition(bits):
    """(g, per(g), B(h), fallback) for n >= 3, g as a 0/1 tuple: the least
    period b of the agreement window, extended b-periodically to [0, n], or
    g = 0 when the window is empty."""
    n = len(bits) - 1
    if n < 3:
        raise ValueError("standard decomposition needs n >= 3")
    lo, hi = decomposition_window(n)
    if lo > hi:
        g = (0,) * (n + 1)
        per_g = 1
    else:
        w = bits[lo:hi + 1]
        b = string_period(w)
        g = tuple(w[(i - lo) % b] for i in range(n + 1))
        per_g = string_period(g)
        if per_g != b:
            raise AssertionError("periodic extension must realize the window "
                                 "period")
    h = tuple(a ^ c for a, c in zip(bits, g))
    return g, per_g, bounded_index(h), lo > hi

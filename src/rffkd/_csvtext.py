"""CSV text of a float64 matrix, byte for byte what '%.17g' % value gives.

csv_text works on numpy arrays, whose loops run without the interpreter
lock, so chunks can be formatted on threads at once.  A value x with
1e-4 <= |x| < 1e16 gets %g's fixed notation and is converted here:

- k = floor(log10|x|) is guessed from np.log10, then |x| is scaled by 10^q,
  q = 16 - k <= 20, which is an exact double.  Dekker's two-product (Veltkamp
  split at 2^27 + 1) gives |x| * 10^q = p + e exactly, where p >= 10^16 > 2^53
  is an integer, so floor and fraction of the product are exact.  Where the
  guess of k was one off, the product's floor lies outside [10^16, 10^17),
  and the value is scaled again with k moved by one.
- The 17 significant digits are that product rounded half to even, as
  Python's correctly rounded conversion does; rounding up to 10^17 carries
  into k.
- Each value's text is laid out in three little-endian 64-bit words, that
  is 24 bytes.  A table gives the sign and the "0." and zeros ahead of the
  digits, or the "." after digit k; the digits before the point and those
  after it up to the last nonzero one are shifted into place around it, and
  the separator follows.  The bytes past the separator are zero, and
  dropping every zero byte joins the values.

Every other value (zeros, subnormals, |x| < 1e-4 in scientific notation,
|x| >= 1e16, inf and nan) gets the text "%.17g" and goes through one
'%' formatting of the joined text, batched over the chunk.
"""

import numpy as np

_SPLIT = 134217729.0  # 2^27 + 1
_POW10 = np.array([float(10**q) for q in range(21)])  # each an exact double


def _split(a):
    """Veltkamp: hi + lo == a, each half with at most 26 significant bits."""
    c = a * _SPLIT
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)
_GROUPS4 = np.arange(10000)
# 4-digit groups as ASCII bytes, most significant digit in the lowest byte
_DIGITS4 = sum(
    (_GROUPS4 // 10**place % 10 + ord("0")).astype(np.uint64) << np.uint64(8 * (3 - place))
    for place in range(4)
)
_TRAILING_ZEROS4 = sum(_GROUPS4 % 10**place == 0 for place in range(1, 5))


def _texts(strings):
    """Byte strings of up to 24 bytes as the columns of a 3 x len array of
    little-endian words, zero-padded."""
    buf = b"".join(text.ljust(24, b"\0") for text in strings)
    return np.frombuffer(buf, dtype="<u8").reshape(-1, 3).T.copy()


# column j: j bytes of ones, then zeros
_FIRST = _texts([b"\xff" * j for j in range(25)])
# column j: one 1 at byte j
_UNIT = _texts([b"\0" * j + b"\1" for j in range(24)])
# column ((k + 4) * 2 + neg) * 2 + frac: what goes around the digits of a
# value with leading digit at 10^k, -4 <= k <= 16, negative or not, with
# digits after the point or not; zero bytes are where digits go
_AROUND = _texts([
    (b"-" if neg else b"") + (b"0." + b"0" * (-k - 1) if k < 0 else b"\0" * (k + 1) + b"." * frac)
    for k in range(-4, 17)
    for neg in (0, 1)
    for frac in (0, 1)
])
_FALLBACK = int.from_bytes(b"%.17g", "little")


def _scaled(a, k):
    """floor(a * 10^(16 - k)) as int64 and the exact fraction left over."""
    q = 16 - k
    p = a * _POW10.take(q)
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _POW10_HI.take(q), _POW10_LO.take(q)
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    floor_e = np.floor(e)
    e -= floor_e
    return p.astype(np.int64) + floor_e.astype(np.int64), e


def _shift_up(words, n):
    """Each text moved n < 8 bytes up in place, zeros coming in at the start."""
    bits = np.asarray(8 * n, dtype=np.uint64)
    carry = words[:-1] >> (np.uint64(64) - bits)  # numpy shifts by 64 to 0
    words <<= bits
    words[1:] |= carry
    return words


def _digits(a):
    """The 17 significant digits of each a in [1e-4, 1e16), as an int64 in
    [10^16, 10^17), and the decimal exponent of its leading digit."""
    k = np.clip(np.floor(np.log10(a)), -4, 15).astype(np.int64)
    n, frac = _scaled(a, k)
    off = np.flatnonzero((n < 10**16) | (n >= 10**17))
    if off.size:
        k[off] += np.where(n[off] < 10**16, -1, 1)
        n[off], frac[off] = _scaled(a[off], k[off])
    n += (frac > 0.5) | ((frac == 0.5) & (n % 2 == 1))
    carry = n == 10**17
    n[carry] = 10**16
    k += carry
    return n, k


def _digit_text(n):
    """Texts of the 17 digits of each n, and how many are left once trailing
    zeros go."""
    g0, rest = np.divmod(n, 10**13)
    g1, rest = np.divmod(rest, 10**9)
    g2, rest = np.divmod(rest, 10**5)
    g3, g4 = np.divmod(rest, 10)
    kept = 4 - _TRAILING_ZEROS4.take(g0)
    for end, group in ((8, g1), (12, g2), (16, g3)):
        kept = np.where(group != 0, end - _TRAILING_ZEROS4.take(group), kept)
    kept[g4 != 0] = 17
    words = np.empty((3, n.size), dtype=np.uint64)
    words[0] = _DIGITS4.take(g1) << np.uint64(32) | _DIGITS4.take(g0)
    words[1] = _DIGITS4.take(g3) << np.uint64(32) | _DIGITS4.take(g2)
    words[2] = g4 + ord("0")
    return words, kept


def _fixed_text(a, neg):
    """Texts of the values a in [1e-4, 1e16), negated where neg, in %g's fixed
    notation with 17 significant digits, and their lengths."""
    n, k = _digits(a)
    digits, kept = _digit_text(n)
    del n
    head = np.maximum(k + 1, 0)  # digits before the point
    np.maximum(kept, head, out=kept)
    frac = kept > head
    lead = neg + 1 + np.maximum(-k, 0)  # bytes before the first digit after the point
    words = _AROUND.take(((k + 4) * 2 + neg) * 2 + frac, axis=1)
    tail = _FIRST.take(kept, axis=1)
    tail &= digits
    digits &= _FIRST.take(head, axis=1)
    tail ^= digits  # the kept digits after the point
    words |= _shift_up(digits, neg)
    words |= _shift_up(tail, lead)
    return words, np.where(frac, lead + kept, neg + head)


def csv_text(chunk: np.ndarray) -> str:
    """The rows of a 2-d float64 array as CSV lines, each value '%.17g'."""
    rows, d = chunk.shape
    x = chunk.ravel()
    a = np.abs(x)
    fixed = (a >= 1e-4) & (a < 1e16)
    other = np.flatnonzero(~fixed)
    a[other] = 1.0
    words, length = _fixed_text(a, np.signbit(x))
    del a
    words[0, other] = _FALLBACK
    words[1:, other] = 0
    length[other] = len(b"%.17g")
    sep = np.full((rows, d), ord(","), dtype=np.uint64)
    sep[:, -1] = ord("\n")
    words |= _UNIT.take(length, axis=1) * sep.ravel()
    text = np.ascontiguousarray(words.T, dtype="<u8").view(np.uint8)
    del words
    text = text[text != 0].tobytes()
    if other.size:
        # bytes' % copies the text between placeholders whole, where str's
        # goes through it character by character
        text %= tuple(x[other].tolist())
    return text.decode("ascii")

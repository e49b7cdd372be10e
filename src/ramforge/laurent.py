"""Exact truncated Laurent series arithmetic over a prime field.

Elements of K = F_p((pi)), p an odd prime, are stored as a window of known
coefficients: everything at exponents >= ``prec`` is unknown, and a series
whose known window is entirely zero is a "zero up to precision", never an
exact zero.  Arithmetic propagates precision by the usual rules (min for
addition, min over cross terms for multiplication), so results are always
sound: a coefficient is stored only if it is exactly determined.

Storage is dense: ``coeffs`` is the tuple of coefficients, reduced into
[0, p), from exponent ``val`` (the valuation, whose coefficient is nonzero)
up to the last nonzero one below ``prec``, interior zeros included.  The
zero-up-to-precision series has ``val`` None and empty ``coeffs``.
Arithmetic works on these tuples directly: addition, subtraction and
negation are slice arithmetic over the union of the two windows, clipped at
the smaller precision.  Multiplication first truncates both operands to the
product window.  A one-term factor c*pi^v then shifts the other operand by v
and scales it by c mod p (reusing its tuple when c = 1).  Every other product
is a Kronecker substitution: both operands are packed into one integer each
with fixed-width byte slots wide enough that no slot of the product can
overflow; one big-integer multiply (Karatsuba in CPython) gives the product,
whose slots below the product's precision are unpacked and reduced mod p.
See D. Harvey, "Faster polynomial multiplication via multipoint Kronecker
substitution", J. Symbolic Comput. 44 (2009).

All values are immutable and operations are pure functions, so series can
be shared freely between threads.

Textual form (used by the CLI and by certificates):

    p=3 prec=20 : -1:1 0:2 3:1

meaning pi^-1 + 2 + pi^3, exponent:coefficient pairs in ascending order.
Text is written in one format call over the nonzero terms and read in one
pass: the tokens are split and converted at C speed, then scattered into a
dense window, with the constructor's rules for any pair list (repeated
exponents summed, coefficients reduced mod p, exponents at or above prec
dropped).
"""

from __future__ import annotations

import sys
from array import array
from itertools import chain, compress, count, repeat
from typing import Iterable, Sequence

from .errors import InsufficientPrecisionError, ParameterError, ParseError

INF = float("inf")


# Miller-Rabin with the first 13 primes as bases decides every n below
# this bound (Sorenson and Webster, "Strong pseudoprimes to twelve prime
# bases", Math. Comp. 86 (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; n at or above the bound is refused."""
    if n >= _MR_BOUND:
        raise ParameterError(f"{n} is too large: primality is decided only below {_MR_BOUND}")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_odd_prime(p: int) -> None:
    if not isinstance(p, int) or not is_prime(p):
        raise ParameterError(f"p must be prime, got {p!r}")
    if p == 2:
        raise ParameterError("p > 2 required")


# array typecode for each native unsigned item width in bytes, narrowest first
_SLOT_CODES = {array(code).itemsize: code for code in "BHIQ"}


def _kronecker_mul(a: Sequence[int], b: Sequence[int], n: int, p: int) -> list[int]:
    """Coefficients 0..n-1 (fewer if the product is shorter) of the product
    of the coefficient sequences ``a`` and ``b``, entries in [0, p), mod p.

    Every slot of the product is a sum of at most min(len) terms below p^2,
    so slots of ``width`` bytes with 8*width >= bitlen(min(len)*(p-1)^2)
    never carry into each other.
    """
    bits = (min(len(a), len(b)) * (p - 1) ** 2).bit_length()
    width = next((w for w in _SLOT_CODES if 8 * w >= bits), None)
    if width is None:  # slots wider than any array item (p around 2^31 and up)
        width = (bits + 7) // 8
        x = int.from_bytes(b"".join(c.to_bytes(width, "little") for c in a), "little")
        y = int.from_bytes(b"".join(c.to_bytes(width, "little") for c in b), "little")
        out = (x * y).to_bytes((len(a) + len(b)) * width, "little")
        return [int.from_bytes(out[i : i + width], "little") % p
                for i in range(0, min(n, len(a) + len(b)) * width, width)]
    code = _SLOT_CODES[width]
    x = int.from_bytes(array(code, a).tobytes(), sys.byteorder)
    y = int.from_bytes(array(code, b).tobytes(), sys.byteorder)
    out = (x * y).to_bytes((len(a) + len(b)) * width, sys.byteorder)
    return [c % p for c in memoryview(out).cast(code)[:n]]


def _from_terms(p: int, exps: list[int], coeffs: list[int], prec: int) -> "LaurentSeries":
    """The sum of c*pi^e over the terms ``zip(exps, coeffs)``, in any order:
    a repeated exponent sums its coefficients, coefficients are reduced mod
    p and terms at or above ``prec`` dropped.  ``p`` is taken as checked."""
    lo, hi = min(exps, default=prec), min(max(exps, default=prec), prec - 1)
    out = [0] * max(hi - lo + 1, 0)
    for e, c in zip(exps, coeffs):
        if e <= hi:
            out[e - lo] += c
    return _from_dense(p, lo, [c % p for c in out], prec)


def _from_dense(p: int, val: int, coeffs: Sequence[int], prec: int) -> "LaurentSeries":
    """The series with coefficients ``coeffs`` (already in [0, p)) from
    exponent ``val`` on: entries at or above ``prec`` are dropped and zeros
    at both ends trimmed.  ``p`` is taken as already checked."""
    coeffs = coeffs[: max(prec - val, 0)]
    # first nonzero from each end, found at C speed: cancellation in a
    # sum can leave long runs of zeros
    lo = next(compress(count(), coeffs), None)
    s = object.__new__(LaurentSeries)
    s.p = p
    s.prec = prec
    if lo is None:
        s.val = None
        s.coeffs = ()
    else:
        s.val = val + lo
        s.coeffs = tuple(coeffs[lo : len(coeffs) - next(compress(count(), reversed(coeffs)))])
    return s


class LaurentSeries:
    """A Laurent series over F_p known on the exponent window [val, prec).

    The constructor accepts (exponent, coefficient) pairs, reduces
    coefficients mod p, and drops anything at or above ``prec``; use
    :func:`series_make` for the strict checked entry point.
    """

    __slots__ = ("p", "val", "coeffs", "prec")

    def __init__(self, p: int, pairs: Iterable[tuple[int, int]], prec: int):
        require_odd_prime(p)
        prec = int(prec)
        exps, coeffs = [], []
        for e, c in pairs:
            e = int(e)
            if e < prec:
                exps.append(e)
                coeffs.append(int(c))
        s = _from_terms(p, exps, coeffs, prec)
        self.p, self.val, self.coeffs, self.prec = p, s.val, s.coeffs, prec

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        """True if the series is zero as far as its precision can tell."""
        return not self.coeffs

    def valuation(self):
        """Exact valuation, or INF for a zero-up-to-precision series."""
        return INF if self.val is None else self.val

    def leading_coefficient(self) -> int:
        if self.is_zero():
            raise ValueError("zero to precision has no leading coefficient")
        return self.coeffs[0]

    def coefficient(self, e: int) -> int:
        """The coefficient of pi^e; exponents at or above prec are unknown."""
        if e >= self.prec:
            raise InsufficientPrecisionError(
                f"coefficient at exponent {e} is beyond precision {self.prec}"
            )
        if self.val is None or not (self.val <= e < self.val + len(self.coeffs)):
            return 0
        return self.coeffs[e - self.val]

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other: "LaurentSeries") -> None:
        if not isinstance(other, LaurentSeries):
            raise TypeError(f"expected LaurentSeries, got {type(other).__name__}")
        if other.p != self.p:
            raise ParameterError(f"modulus mismatch: {self.p} vs {other.p}")

    def _val_floor(self) -> int:
        # Lower bound for the valuation: exact for nonzero, prec for zero.
        return self.prec if self.val is None else self.val

    def _addsub(self, other, sign: int) -> "LaurentSeries":
        """self + sign*other, over the union of the two coefficient windows
        clipped at the smaller precision."""
        p = self.p
        if isinstance(other, int):
            other = _from_dense(p, 0, (other % p,), self.prec)
        self._check_compatible(other)
        prec = min(self.prec, other.prec)
        va, vb = self._val_floor(), other._val_floor()
        a = self.coeffs[: max(prec - va, 0)]
        b = other.coeffs[: max(prec - vb, 0)]
        # an empty side must not widen the window
        if not a:
            va = vb
        if not b:
            vb = va
        lo = min(va, vb)
        out = [0] * (max(va + len(a), vb + len(b)) - lo)
        out[va - lo : va - lo + len(a)] = a
        i, j = vb - lo, vb - lo + len(b)
        out[i:j] = [(x + sign * y) % p for x, y in zip(out[i:j], b)]
        return _from_dense(p, lo, out, prec)

    def __add__(self, other):
        return self._addsub(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._addsub(other, self.p - 1)

    def __neg__(self):
        p = self.p
        return _from_dense(p, self._val_floor(), [(-c) % p for c in self.coeffs], self.prec)

    def __mul__(self, other):
        p = self.p
        if isinstance(other, int):
            c = other % p
            return _from_dense(p, self._val_floor(), [x * c % p for x in self.coeffs], self.prec)
        self._check_compatible(other)
        va, vb = self._val_floor(), other._val_floor()
        prec = min(va + other.prec, vb + self.prec)
        n = prec - va - vb
        a, b = self.coeffs[:n], other.coeffs[:n]
        if not a or not b:
            return _from_dense(p, 0, (), prec)
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:  # c*pi^vb shifts a to va + vb and scales it by c
            c = b[0]
            return _from_dense(p, va + vb, a if c == 1 else [x * c % p for x in a], prec)
        return _from_dense(p, va + vb, _kronecker_mul(a, b, n, p), prec)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        """self^k by repeated squaring.  Every product of powers keeps the
        base's relative precision, so the result is that of k multiplies
        by the base: known to k*val + (prec - val)."""
        if k < 0:
            raise ParameterError(f"exponent must be nonnegative, got {k}")
        out = _from_dense(self.p, 0, (1,), self.prec - self._val_floor())
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def truncate(self, prec: int) -> "LaurentSeries":
        """The series known only below ``prec``, or below its own precision
        if that is smaller."""
        if prec >= self.prec:
            return self
        return _from_dense(self.p, self._val_floor(), self.coeffs, prec)

    def inverse(self) -> "LaurentSeries":
        """Multiplicative inverse, to the same relative precision.

        No certificate path divides; this stays for demo 01, which shows
        (1 - pi)^-1 as a geometric series."""
        if self.is_zero():
            raise ParameterError("cannot invert a series that is zero to precision")
        n = self.prec - self.val
        lead_inv = pow(self.coeffs[0], -1, self.p)
        # Long division against the unit part u with u[0] = leading coeff.
        u = [self.coefficient(self.val + i) for i in range(n)]
        inv = [0] * n
        inv[0] = lead_inv
        for k in range(1, n):
            s = sum(u[j] * inv[k - j] for j in range(1, k + 1)) % self.p
            inv[k] = (-lead_inv * s) % self.p
        return _from_dense(self.p, -self.val, inv, self.prec - 2 * self.val)

    def frobenius(self) -> "LaurentSeries":
        """The p-power map: exponents multiply by p, coefficients are fixed."""
        p = self.p
        out = [0] * (p * (len(self.coeffs) - 1) + 1)
        out[::p] = self.coeffs
        return _from_dense(p, p * self._val_floor(), out, p * self.prec)

    def wp(self) -> "LaurentSeries":
        """Artin-Schreier image x^p - x (additive in characteristic p)."""
        return self.frobenius() - self

    # -- comparison / io ----------------------------------------------------

    def __eq__(self, other):
        """Equality of the known coefficients on the common window."""
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        if self.p != other.p:
            return False
        w = min(self.prec, other.prec)
        a = _from_dense(self.p, self._val_floor(), self.coeffs, w)
        b = _from_dense(other.p, other._val_floor(), other.coeffs, w)
        return a.val == b.val and a.coeffs == b.coeffs

    __hash__ = None

    def to_text(self) -> str:
        c = self.coeffs
        # exponent:coefficient of every nonzero term, in one format call
        flat = tuple(chain.from_iterable(zip(compress(count(self._val_floor()), c), compress(c, c))))
        return f"p={self.p} prec={self.prec} :" + " %d:%d" * (len(flat) // 2) % flat

    def __repr__(self):
        return f"LaurentSeries({self.to_text()!r})"

    def __str__(self):
        return self.to_text()


def series_make(p: int, val: int, coeffs: Sequence, prec: int) -> LaurentSeries:
    """Build a series from coefficients anchored at exponent ``val``.

    The first coefficient must be nonzero (or the sequence empty, which
    yields the zero-up-to-precision element).
    """
    require_odd_prime(p)
    if prec <= val and coeffs:
        raise ParameterError(f"prec must exceed val, got val={val} prec={prec}")
    reduced = [int(c) % p for c in coeffs]
    if reduced and reduced[0] == 0:
        raise ParameterError("leading coefficient reduces to 0 mod p")
    return _from_dense(p, val, reduced, prec)


def monomial(p: int, coeff, exp: int, prec: int) -> LaurentSeries:
    return series_make(p, exp, [coeff], prec)


def zero(p: int, prec: int) -> LaurentSeries:
    return LaurentSeries(p, [], prec)


def wp(a: LaurentSeries) -> LaurentSeries:
    """Artin-Schreier operator on K: a -> a^p - a."""
    return a.wp()


def parse_series(text: str) -> LaurentSeries:
    """Parse the textual series form, e.g. ``p=3 prec=20 : -1:1 0:2``."""
    head, sep, body = text.partition(" : ")
    if not sep:
        head, sep, body = text.partition(" :")
        if not sep or body.strip():
            raise ParseError(f"malformed series text: {text!r}")
        body = ""
    fields = head.split()
    if len(fields) != 2 or not fields[0].startswith("p=") or not fields[1].startswith("prec="):
        raise ParseError(f"malformed series header: {head!r}")
    toks = body.split()
    if set(map(str.count, toks, repeat(":"))) - {1}:
        raise ParseError(f"malformed series text: {text!r}")
    try:
        p = int(fields[0][2:])
        prec = int(fields[1][5:])
        nums = list(map(int, ":".join(toks).split(":"))) if toks else []
    except ValueError as exc:
        raise ParseError(f"malformed series text: {text!r}") from exc
    require_odd_prime(p)
    return _from_terms(p, nums[::2], nums[1::2], prec)

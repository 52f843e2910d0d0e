"""Finite field arithmetic GF(p^k) in polynomial basis.

Elements are stored as integer codes: the little-endian base-p value of
the coefficient vector, so code(c0 + c1*x + ... + c_{k-1}*x^{k-1}) =
sum(c_i * p**i).  Arithmetic is done modulo a monic irreducible polynomial
of degree k over GF(p).  The modulus is chosen deterministically (the
lexicographically smallest monic irreducible, constant coefficient most
significant), so element enumeration order is stable across runs.

Every field is small enough for lookup tables: exp/log tables and the full
size-by-size add/mul tables (numpy arrays, for vectorized bulk work) are
always built, which caps the order at ``_MAX_ORDER``.  The largest field the
pipeline uses is GF(256), for q = 16.

Quadratic extensions GF(q^2) used for Hermitian unitals are built as a
single degree-2k extension of the prime field; the subfield GF(q) is the
fixed field of x -> x^q, and the norm map x -> x^{q+1} lands in it.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

import numpy as np

_MAX_ORDER = 4096


class FieldError(ValueError):
    """Invalid field construction or arithmetic request."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_power(q: int) -> tuple[int, int] | None:
    """Return (p, k) with q = p^k and p prime, or None."""
    if q < 2:
        return None
    for p in range(2, q + 1):
        if q % p == 0:
            if not is_prime(p):
                return None
            k = 0
            m = q
            while m % p == 0:
                m //= p
                k += 1
            return (p, k) if m == 1 else None
    return None


# ----------------------------------------------------------------------
# Polynomial helpers over GF(p).  Polynomials are little-endian int tuples.
# ----------------------------------------------------------------------

def _poly_trim(a: Sequence[int]) -> tuple[int, ...]:
    d = len(a)
    while d > 0 and a[d - 1] == 0:
        d -= 1
    return tuple(a[:d])


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a: Sequence[int], m: Sequence[int], p: int) -> tuple[int, ...]:
    """Remainder of a modulo the monic polynomial m."""
    a = list(a)
    dm = len(m) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] % p
        if c:
            a[i] = 0
            for j in range(dm):
                a[i - dm + j] = (a[i - dm + j] - c * m[j]) % p
    return _poly_trim(a)


def _poly_divides(d: Sequence[int], a: Sequence[int], p: int) -> bool:
    """Whether the monic polynomial d divides a."""
    return not _poly_mod(a, d, p)


def _monic_polys(degree: int, p: int) -> Iterable[tuple[int, ...]]:
    """Monic polynomials of the given degree in lexicographic order
    (constant coefficient most significant)."""
    for lower in itertools.product(range(p), repeat=degree):
        yield tuple(lower) + (1,)


def _is_irreducible(poly: Sequence[int], p: int) -> bool:
    degree = len(poly) - 1
    if degree == 1:
        return True
    for d in range(1, degree // 2 + 1):
        for cand in _monic_polys(d, p):
            if _poly_divides(cand, poly, p):
                return False
    return True


def _smallest_irreducible(p: int, degree: int) -> tuple[int, ...]:
    for cand in _monic_polys(degree, p):
        if _is_irreducible(cand, p):
            return cand
    raise FieldError(f"no monic irreducible of degree {degree} over GF({p})")


class FiniteField:
    """GF(p^k) with integer-coded elements and precomputed tables.

    Parameters
    ----------
    p : prime characteristic.
    k : extension degree over the prime field.
    """

    def __init__(self, p: int, k: int):
        if not is_prime(p):
            raise FieldError(f"characteristic {p} is not prime")
        if k < 1:
            raise FieldError(f"extension degree must be >= 1, got {k}")
        order = p**k
        if order > _MAX_ORDER:
            raise FieldError(f"field order {order} exceeds supported maximum {_MAX_ORDER}")
        self.p = p
        self.k = k
        self.order = order
        self.modulus = _smallest_irreducible(p, k)
        self._build_tables()

    # -- element codecs -------------------------------------------------

    def coeffs_of(self, code: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.k):
            code, r = divmod(code, self.p)
            out.append(r)
        return tuple(out)

    def code_of(self, coeffs: Sequence[int]) -> int:
        if len(coeffs) > self.k:
            raise FieldError("coefficient vector longer than field degree")
        code = 0
        for c in reversed(coeffs):
            if c < 0 or c >= self.p:
                raise FieldError("coefficients must lie in [0, p)")
            code = code * self.p + c
        return code

    # -- table construction ---------------------------------------------

    def _raw_mul(self, a: int, b: int) -> int:
        prod = _poly_mul(self.coeffs_of(a), self.coeffs_of(b), self.p)
        red = _poly_mod(prod, self.modulus, self.p)
        return self.code_of(tuple(red) + (0,) * (self.k - len(red)))

    def _build_tables(self) -> None:
        s, p = self.order, self.p
        # exp/log for a primitive element found by direct order computation
        exp = None
        for g in range(1, s):
            seen = [0] * s
            val, cnt = 1, 0
            table = []
            while not seen[val]:
                seen[val] = 1
                table.append(val)
                val = self._raw_mul(val, g)
                cnt += 1
            if cnt == s - 1:
                exp = table
                break
        if exp is None:
            raise FieldError("no primitive element found (modulus not irreducible?)")
        self._exp = np.array(exp + exp, dtype=np.int64)  # doubled for index math
        log = np.zeros(s, dtype=np.int64)
        for i, v in enumerate(exp):
            log[v] = i
        self._log = log

        # digit-wise addition, vectorized over all codes
        rem = np.arange(s, dtype=np.int64)
        digits = np.empty((s, self.k), dtype=np.int64)
        for i in range(self.k):
            digits[:, i] = rem % p
            rem //= p
        pow_p = p ** np.arange(self.k, dtype=np.int64)

        dsum = (digits[:, None, :] + digits[None, :, :]) % p
        self.add_table = (dsum * pow_p).sum(axis=2).astype(np.int32)
        logs = log[1:]
        mul = np.zeros((s, s), dtype=np.int32)
        mul[1:, 1:] = self._exp[(logs[:, None] + logs[None, :]) % (s - 1)]
        self.mul_table = mul


class QuadraticExtension(FiniteField):
    """GF(q^2) for q = p^k, built directly as GF(p^{2k}).

    The subfield GF(q) is the fixed field of x -> x^q.  ``norm_table``
    gives x -> x^{q+1} (valued in the subfield), vectorized over codes.
    """

    def __init__(self, q: int):
        pk = prime_power(q)
        if pk is None:
            raise FieldError(f"q must be a prime power, got {q}")
        p, k = pk
        super().__init__(p, 2 * k)
        self.base_order = q
        s = self.order
        norm = np.zeros(s, dtype=np.int64)
        nz = np.arange(1, s)
        norm[1:] = self._exp[(self._log[nz] * (q + 1)) % (s - 1)]
        self.norm_table = norm
        frob = np.zeros(s, dtype=np.int64)
        frob[1:] = self._exp[(self._log[nz] * q) % (s - 1)]
        self.frobenius_table = frob
        # subfield membership: log divisible by q+1 (plus zero)
        in_base = np.zeros(s, dtype=bool)
        in_base[0] = True
        in_base[1:] = (self._log[nz] % (q + 1)) == 0
        self.base_subfield_mask = in_base

"""Finite field arithmetic GF(p^k) in polynomial basis.

Elements are stored as integer codes: the little-endian base-p value of
the coefficient vector, so code(c0 + c1*x + ... + c_{k-1}*x^{k-1}) =
sum(c_i * p**i).  Arithmetic is done digit by digit modulo a monic
irreducible polynomial of degree k over GF(p).  The modulus is chosen
deterministically (the lexicographically smallest monic irreducible,
constant coefficient most significant), so element enumeration order is
stable across runs: candidates are tried in that order, and the first
under which no nonzero code of degree <= k/2 is a zero divisor is
irreducible.

Every field is small enough for lookup tables: the full size-by-size
add/mul tables (numpy arrays, for vectorized bulk work) are always built,
which caps the order at ``_MAX_ORDER``.  The largest field the pipeline
uses is GF(1369), for q = 37.

Quadratic extensions GF(q^2) used for Hermitian unitals are built as a
single degree-2k extension of the prime field; the subfield GF(q) is the
fixed field of x -> x^q, and the norm map x -> x^{q+1} lands in it.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

_MAX_ORDER = 4096


class FieldError(ValueError):
    """Invalid field construction or arithmetic request."""


def prime_power(q: int) -> tuple[int, int] | None:
    """Return (p, k) with q = p^k and p prime, or None."""
    if q < 2:
        return None
    # the least divisor p >= 2 of q is prime, so q is a prime power
    # exactly when it is a power of p
    p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
    k = 0
    while q % p == 0:
        q //= p
        k += 1
    return (p, k) if q == 1 else None


def _mul_table(digits: np.ndarray, modulus: tuple[int, ...], p: int, rows: slice = slice(None)) -> np.ndarray:
    """Codes of the products a*b in GF(p)[x]/(modulus), for the codes a in
    the slice `rows` (all by default) and every code b, from the (code, i)
    digit array: a*b is the sum of b_i * (a*x^i), digit by digit mod p.
    The search for the modulus reads its low rows; the field's whole table
    comes from _log_mul_table."""
    k = digits.shape[1]
    low = np.array(modulus[:k])
    shifted = [digits[rows]]  # digits of a*x^i for every code a
    for _ in range(k - 1):
        # times x: every digit moves up one place, and x^k = -(low terms)
        d = shifted[-1]
        shifted.append((np.hstack([np.zeros_like(d[:, :1]), d[:, :-1]]) - d[:, -1:] * low) % p)
    shifted = np.stack(shifted, axis=1)  # (a, i, digit)
    return sum(shifted[:, :, j] @ digits.T % p * p**j for j in range(k)).astype(np.int32)


def _log_mul_table(digits: np.ndarray, modulus: tuple[int, ...], p: int) -> np.ndarray:
    """The whole _mul_table by logarithms: the powers of the least primitive
    element g, each the last one's entry in g's row of products, give
    exp[i] = g^i and log[exp[i]] = i, and a*b = exp[log a + log b] for
    nonzero a, b.  Exact ints and one order^2 gather, where _mul_table
    multiplies digit matrices; g is primitive when its order - 1 powers are
    distinct."""
    order = len(digits)
    for g in range(1, order):
        row = _mul_table(digits, modulus, p, slice(g, g + 1))[0].tolist()
        exp = [1]
        while len(exp) < order - 1:
            exp.append(row[exp[-1]])
        if len(set(exp)) == order - 1:
            break
    exp = np.array(exp, dtype=np.int32)
    log = np.empty(order, dtype=np.int32)
    log[exp] = np.arange(order - 1, dtype=np.int32)
    table = np.zeros((order, order), dtype=np.int32)
    table[1:, 1:] = np.concatenate([exp, exp])[log[1:, None] + log[1:]]
    return table


class FiniteField:
    """GF(p^k) with integer-coded elements and precomputed tables.

    Parameters
    ----------
    p : prime characteristic.
    k : extension degree over the prime field.
    """

    def __init__(self, p: int, k: int):
        if prime_power(p) != (p, 1):
            raise FieldError(f"characteristic {p} is not prime")
        if k < 1:
            raise FieldError(f"extension degree must be >= 1, got {k}")
        order = p**k
        if order > _MAX_ORDER:
            raise FieldError(f"field order {order} exceeds supported maximum {_MAX_ORDER}")
        self.p = p
        self.k = k
        self.order = order
        digits = np.arange(order)[:, None] // p ** np.arange(k) % p
        self.add_table = sum((digits[:, None, j] + digits[:, j]) % p * p**j for j in range(k)).astype(np.int32)
        # a reducible modulus has a factor of degree <= k/2, a nonzero code
        # below p^(k//2+1) that some nonzero code multiplies to 0
        for lower in itertools.product(range(p), repeat=k):
            if k > 1 and lower[0] == 0:
                continue  # divisible by x
            if _mul_table(digits, lower + (1,), p, slice(p ** (k // 2 + 1)))[1:, 1:].all():
                break
        self.modulus = lower + (1,)
        self.mul_table = _log_mul_table(digits, self.modulus, p)


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
        codes = np.arange(self.order)
        power = codes
        for _ in range(q - 1):
            power = self.mul_table[power, codes]
        self.frobenius_table = power.astype(np.int64)
        self.norm_table = self.mul_table[power, codes].astype(np.int64)
        self.base_subfield_mask = self.frobenius_table == codes

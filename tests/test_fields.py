import numpy as np
import pytest

from oracles import field_mul
from quasifolkman.fields import (
    FieldError,
    FiniteField,
    QuadraticExtension,
    prime_power,
)
from quasifolkman.graphs import SUPPORTED_Q

SMALL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]  # orders 2..9
# plus every field the pipeline builds: GF(q^2) for each supported q, up to GF(121)
FIELDS = [pytest.param(lambda p=p, k=k: FiniteField(p, k), id=f"{p}-{k}") for p, k in SMALL_FIELDS] + [
    pytest.param(lambda q=q: QuadraticExtension(q), id=f"q{q}") for q in SUPPORTED_Q
]


def test_default_moduli():
    assert FiniteField(2, 1).modulus == (0, 1)  # x
    assert FiniteField(2, 2).modulus == (1, 1, 1)  # x^2 + x + 1, the only option
    assert FiniteField(3, 1).modulus == (0, 1)
    assert FiniteField(3, 2).modulus == (1, 0, 1)  # x^2 + 1


def test_nonprime_characteristic_rejected():
    with pytest.raises(FieldError):
        FiniteField(4, 1)
    with pytest.raises(FieldError):
        FiniteField(6, 2)


def test_gf4_x_times_x():
    f = FiniteField(2, 2)
    x = f.code_of((0, 1))
    assert x == 2
    assert f.mul_table[x, x] == 3 and f.coeffs_of(3) == (1, 1)  # x^2 = x + 1 mod x^2+x+1


@pytest.mark.parametrize("make", FIELDS)
def test_field_axioms_exhaustive(make):
    f = make()
    s = f.order
    add, mul = f.add_table, f.mul_table
    elems = np.arange(s)
    # identities 0 and 1, commutativity, and the exp/log products
    assert np.array_equal(add[:, 0], elems) and np.array_equal(mul[:, 1], elems)
    assert np.array_equal(add, add.T) and np.array_equal(mul, mul.T)
    assert np.array_equal(mul, field_mul(f, elems[:, None], elems[None, :]))
    # negation: one zero in each row of sums; inverse: one 1 in each row of
    # products of a nonzero element, none for zero
    assert ((add == 0).sum(axis=1) == 1).all()
    assert ((mul[1:] == 1).sum(axis=1) == 1).all() and not (mul[0] == 1).any()
    # associativity and distributivity
    ab_c = add[add[:, :, None], np.arange(s)[None, None, :]]
    a_bc = add[np.arange(s)[:, None, None], add[None, :, :]]
    assert np.array_equal(ab_c, a_bc)
    mab_c = mul[mul[:, :, None], np.arange(s)[None, None, :]]
    ma_bc = mul[np.arange(s)[:, None, None], mul[None, :, :]]
    assert np.array_equal(mab_c, ma_bc)
    dist_l = mul[np.arange(s)[:, None, None], add[None, :, :]]
    dist_r = add[mul[:, :, None], mul[:, None, :]]
    assert np.array_equal(dist_l, dist_r)


@pytest.mark.parametrize("make", [lambda: FiniteField(2, 13), lambda: QuadraticExtension(67)])
def test_orders_above_the_table_limit_are_rejected(make):
    # 2^13 = 8192 and 67^2 = 4489 exceed the 4096 elements the tables allow
    with pytest.raises(FieldError, match="exceeds"):
        make()


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8])
def test_norm_multiplicative_and_fibers(q):
    ext = QuadraticExtension(q)
    s = ext.order
    assert s == q * q
    nrm = ext.norm_table
    mul = ext.mul_table
    # multiplicativity, exhaustive over all pairs
    assert np.array_equal(nrm[mul], mul[nrm[:, None], nrm[None, :]])
    # all norm values in the base subfield
    assert ext.base_subfield_mask[nrm].all()
    # fibers: every nonzero base value hit by exactly q+1 elements
    base_vals = np.flatnonzero(ext.base_subfield_mask)
    counts = {int(v): 0 for v in base_vals}
    for c in range(s):
        counts[int(nrm[c])] += 1
    assert counts[0] == 1
    nonzero_counts = {v: c for v, c in counts.items() if v != 0}
    assert len(nonzero_counts) == q - 1
    assert all(c == q + 1 for c in nonzero_counts.values())


def test_norm_q2_cube_is_one():
    # every nonzero element of GF(4) has order dividing 3 = q+1
    ext = QuadraticExtension(2)
    assert ext.norm_table[0] == 0
    assert (ext.norm_table[1:] == 1).all()


def test_subfield_size():
    for q in (2, 3, 4, 5, 7, 8, 9):
        ext = QuadraticExtension(q)
        assert int(ext.base_subfield_mask.sum()) == q
        # fixed field of x -> x^q
        fixed = ext.frobenius_table == np.arange(ext.order)
        assert np.array_equal(fixed, ext.base_subfield_mask)


def test_prime_power():
    assert prime_power(8) == (2, 3)
    assert prime_power(9) == (3, 2)
    assert prime_power(6) is None
    assert prime_power(1) is None
    assert prime_power(49) == (7, 2)


def test_coeff_roundtrip():
    f = FiniteField(3, 2)
    assert f.code_of((2, 1)) == 5
    assert f.coeffs_of(5) == (2, 1)
    assert all(f.code_of(f.coeffs_of(c)) == c for c in range(f.order))
    with pytest.raises(FieldError):
        f.code_of((3, 0))

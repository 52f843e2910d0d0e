import functools
import hashlib

import numpy as np
import pytest

from oracles import field_mul, least_irreducible
from quasifolkman.fields import (
    FieldError,
    FiniteField,
    QuadraticExtension,
    _mul_table,
    prime_power,
)
from quasifolkman.graphs import SUPPORTED_Q

SMALL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]  # orders 2..9
# plus every field the pipeline builds: GF(q^2) for each supported q, up to
# GF(2401); each is built once for the digests and the axioms
quadratic = functools.cache(QuadraticExtension)
FIELDS = [pytest.param(lambda p=p, k=k: FiniteField(p, k), id=f"{p}-{k}") for p, k in SMALL_FIELDS] + [
    pytest.param(lambda q=q: quadratic(q), id=f"q{q}") for q in SUPPORTED_Q
]
#: the largest order whose products are compared with the oracle's on every
#: pair, GF(1369) for q = 37; the larger fields, q = 41 to 49, on a seeded
#: sample of pairs next to their golden digests
EXHAUSTIVE_ORDER = 37**2


#: SHA-256 of the add_table, mul_table and norm_table bytes of GF(q^2)
GOLDEN_TABLES = {
    2: (
        "ae6755f9e0f25932512eebd6b9c03ace2bfaf6ddcfab511694411edcb84a6a1c",
        "77faef1595527724305e1cb4256a19af80ec4977d149229a03877dbf9a149d0d",
        "97e2b8b640d13af1681608bb897c3ada8d220e80e2e023623f1021f958c6345b",
    ),
    3: (
        "accd39f38b03265952825b6e6e5a9b23174089d41c56c1a0d38dc58a89399b83",
        "d35cdb5a1e712197a17ed8208d49ae3b028d361f5e75bca3d765b8c56aec562a",
        "ba1fa80d891f7f89f64d54ecb0d4e9685050945c30c2db12a370db6d00c48ebc",
    ),
    4: (
        "c45c2dbd455c14d5d7de876caf7ad4d5e9e4fca9ccafe92d339dcc4b3dfdd82a",
        "c20b1a6dcd6904038378a1d38e33ed69567a236f498df2fc97bf4087a45fcdde",
        "f859dead66f7746fae271d90c93a002c335515d9abd9d09037635f88e01b3847",
    ),
    5: (
        "a140d6b905e60e11ac7f2ea1ca916c585e1b5fc9ac9cf5de329e3b63167e589e",
        "bf0f62a91663c242ac3fcfdd484951bc84813b6a4abb12696249753451c9a172",
        "63efb3145bd2b20519023477cf72df0cf16afa56d668e4b3bf7599aa8ee2c501",
    ),
    7: (
        "4f0d04d50509230b6eb3d3c262f46a96ed44dee1b041f41c4a9ee93c11ebb4c9",
        "1483af675b0fcd27cbef0b900eebab24650e90dd6d8db1b82c0857f0eb0e47e2",
        "49970074beec6256f70d6444ea004e96f634c8ac47a3bfd18af7ebe02edb01c0",
    ),
    8: (
        "d7836c4c6256f80acddf8e3128ac9a1ba51f2b856dde954b4d1c61fbfda9e1b4",
        "c89bb0c6a72640461cd59f3ff2df6962fda6cf6315dd5edfa51d27eae9cfad6d",
        "191dee832d2d623ddeedd7ae8eb16efc1621007b39b5716cd98d085fda3eb38d",
    ),
    9: (
        "5631d6550599ad4e13e9950f339b22b31bf402bb87f614216707509c38483e7a",
        "7d91980f8329e4c0a9fcff4219abc5f2674119baa2ab85a6651455b5b181c33e",
        "effc41b4d5818875ce3e25b416decc279414bf0910dddab804795d474500db02",
    ),
    11: (
        "2ae445417d60d4e55b76d45a80331d37a1c37be75392eae2546ab4b54ecb0e06",
        "03efc4c6533fd11672f8be0794d36e0cfbe3e714ffda185a99888df33bdf5acd",
        "b5b99cde6d8a2fda6bd920a5f1723954ce4a782049fd25d6fb243798412fe5ae",
    ),
    13: (
        "9a642b7bdac271d81274d80a0091ec5a5d0738e66368f677891099815af2e8d4",
        "1112e83c46a32fed21e59e0486678c30062fd5a9e5ca494629bcc36998d7e153",
        "e2dd32bfac9e489dbde3706e6d7f3cf72688988c7b3240d6d3745d02ecc8930d",
    ),
    16: (
        "98ea9204da3a2e3b25a92f5277a94102cf961b88bd016669f8b1a7793dd597e0",
        "1e68d74358ba6268aa44dc257924e1ffdf8d6a7bfde55ad6b8ba827d99e09829",
        "f003bf5b5f0129689a427a36a0a65475e43c2a2b913536dfdde026d478e49414",
    ),
    17: (
        "fc4890a7d03e6df0832faddad6b62a6929ec2e04d0280286e8ea98dd5296ba67",
        "ed07bcc13f85c630a3285ccabccf57c218dbea2c0e3f4f2df386bbf0cf556d96",
        "4962bed430a14fcae960e1c3868dadd94178a4b540495c72804ae2d1e2caa315",
    ),
    19: (
        "fe30ba91f40a81c800c624bce39f8d30518827a948dcde43bf42fe19b8b70bdc",
        "1c2d99a32d3c959a77c18fad7bf5f80d2a551257a5ad083378264f8e1e355533",
        "1e859e344d1f40fa815b914d7c0ad1a68ddd98b6583e8420874a42f5bcf87c3d",
    ),
    23: (
        "53859876bf606879be194d6701d8b30e7fb214b0642fc531ac9bffb71f255404",
        "d1e6928588efb28f39a9406b7ae830bbc978fe73c874acfdb7f59684068549b2",
        "b23cad80e7a1745c4698db55780f26a2e241abaeebf2ba4bf4c7d232ac9431c6",
    ),    25: (
        "156c024478a0218138d1ca2b91f4ec900f81658d954dbcb6b9fda21d523401a9",
        "75a06255f9e8e5f9314c5556007135f0020712b933e709a964af23c1bed46a37",
        "cbeeafb30bdc622a762ea1643b23492d9054082ac3496028503a9b9ddd86740e",
    ),
    27: (
        "31e15af675efac89174d3ed26ae139f6598b5ddbba7fabd85f4ee33599baf533",
        "a5a372c4039e8d25891e570665184ff94e234a3bcf0dfe3e568f037818865f8a",
        "213dde5d6d876e1775c6dc919b84e1a6b93bd12ec5da8bbb785a1c6690b08c9a",
    ),
    29: (
        "a46844d199397ca052125a36a1986f33f595b6686a7722c427c203b63f92580b",
        "163683004b6cee999681a79cace8533adda0924ffe73d95d454a925ab2a8dec1",
        "699494a3af0556d2861aaaae8cac57254de5e07fb3a2f3ecfed85f1b31a3b942",
    ),
    31: (
        "5a45334d27bd367028daca8c74ba9887a6817c4d3c121e9e50eddaaf4523f8aa",
        "afc6e19e1b494c2f99c1c02699ab4a5a903669a78e73d5c18edd3651c682c811",
        "832bae64564931ac70ff0f0463a37593eaf74aa77b5ad33187f161d8548109af",
    ),
    32: (
        "bd86f027b7a9889e4202237de3c9adf38183a7a922250e5b6c89ea13e22184fb",
        "02d1ce2a51cc15861e7dffbd4bd84adf1be7e4f701530b2add5f6c26c87d5007",
        "c2dd91d86306693bcb900c3ac60819aa10bfc59f2270e7f0b0fd4f90f0a4e430",
    ),
    37: (
        "1ef8203d58bde9ff747bbb2216742c74e8fc5757e45fc821ace853ac858217dc",
        "f240c22750e836e8834506362a6acf434ea239a6ba4d6cbf98ee40dd8ae96e99",
        "37b5f4b5f4c9acd7f496eb8643d151a9265407893fff6359b4511861464a3297",
    ),
    41: (
        "870ff7555a014d84cddedaa797b03deb89ac2617453096f030ab2feef31b8824",
        "90fd9103b99f7d16d5cfa07b01c2e7436ab90fc036d2e083a383df5405ff85fa",
        "a30e389fbadcf758f262634361d826119a6c8e7da3a4d2f4ce26f2252cafec5e",
    ),
    43: (
        "ac568afd23bfd2001f9e39c9da92da75b705a4ff91f40d75ac60fb2e8e84f06b",
        "6daa39f704d18939fd248d2f434be39e7ebc25db3f7f9fb592dcc72e4dd46eb6",
        "4bca222b697000d5439e41a6cdae4d5ca6c04cafd6b87193cc193d317b4c8a3d",
    ),
    47: (
        "b01b4264f24f76720eb9bc1c3fa10bbddf00b94d0f39da7edfcf6560bd26eba7",
        "47efe5ff6a7224315442b5ad1675db13dd634a6311a1cea3b3f21f17cc0b28c0",
        "bd078ea57f589e8a584f41397ed066e72a8c71505877dc8c549c73364a9eca25",
    ),
    49: (
        "fad1dd91120c6c758772a438ec8880ba404e6c3e8706e724b69313feb74bfcf6",
        "ae416ed860d015b4c27dd67d4b46d985b0ea5c35288b5ab10ece1f879ce6f9ac",
        "929ef56f5f7199e29413a305d753789bab6186baf9185f92db36fe91fdc03bdf",
    ),
}


def test_default_moduli():
    assert FiniteField(2, 1).modulus == (0, 1)  # x
    assert FiniteField(2, 2).modulus == (1, 1, 1)  # x^2 + x + 1, the only option
    assert FiniteField(3, 1).modulus == (0, 1)
    assert FiniteField(3, 2).modulus == (1, 0, 1)  # x^2 + 1


#: every proper extension of order at most 1024 (GF(p) always takes x); the
#: fourteen orders 1331..4096 take about 45 s more, so they are left to one-off checks
EXTENSIONS = [(p, k) for p in range(2, 33) if all(p % d for d in range(2, p)) for k in range(2, 11) if p**k <= 1024]


@pytest.mark.parametrize("p, k", EXTENSIONS)
def test_modulus_is_least_irreducible(p, k):
    assert FiniteField(p, k).modulus == least_irreducible(p, k)


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_tables_match_golden_digests(q):
    ext = quadratic(q)
    tables = (ext.add_table, ext.mul_table, ext.norm_table)
    assert [t.dtype for t in tables] == [np.int32, np.int32, np.int64]
    assert tuple(hashlib.sha256(t.tobytes()).hexdigest() for t in tables) == GOLDEN_TABLES[q]


@pytest.mark.parametrize("p, k", [*SMALL_FIELDS, (2, 8), (3, 6), (2, 10), (37, 2)])
def test_mul_table_by_logarithms_matches_digit_products(p, k):
    # the field's table comes from a primitive element's powers; the digit
    # products that find the modulus are its oracle, up to GF(1024), q = 32,
    # and GF(1369), q = 37
    f = FiniteField(p, k)
    digits = np.arange(f.order)[:, None] // p ** np.arange(k) % p
    assert np.array_equal(f.mul_table, _mul_table(digits, f.modulus, p))


def test_nonprime_characteristic_rejected():
    with pytest.raises(FieldError):
        FiniteField(4, 1)
    with pytest.raises(FieldError):
        FiniteField(6, 2)


def test_gf4_x_times_x():
    # codes are little-endian digit vectors: 2 is x and 3 is x + 1
    assert FiniteField(2, 2).mul_table[2, 2] == 3  # x^2 = x + 1 mod x^2+x+1


@pytest.mark.parametrize("make", FIELDS)
def test_field_axioms_exhaustive(make):
    f = make()
    s = f.order
    add, mul = f.add_table, f.mul_table
    elems = np.arange(s)
    # identities 0 and 1, commutativity, and the polynomial products
    assert np.array_equal(add[:, 0], elems) and np.array_equal(mul[:, 1], elems)
    assert np.array_equal(add, add.T) and np.array_equal(mul, mul.T)
    # the sampled fields draw 2^18 pairs and triples: their tables are too
    # large for the cache, so each draw is a random read
    sample = 1 << (22 if s <= EXHAUSTIVE_ORDER else 18)
    if s <= EXHAUSTIVE_ORDER:
        assert np.array_equal(mul, field_mul(f, elems[:, None], elems[None, :]))
    else:
        a, b = np.random.default_rng(s).integers(0, s, size=(2, sample))
        assert np.array_equal(mul[a, b], field_mul(f, a, b))
    # negation: one zero in each row of sums; inverse: one 1 in each row of
    # products of a nonzero element, none for zero
    assert ((add == 0).sum(axis=1) == 1).all()
    assert ((mul[1:] == 1).sum(axis=1) == 1).all() and not (mul[0] == 1).any()
    # associativity and distributivity over every triple (a, b, c), about
    # 2^22 at a time, up to order 256; above it over seeded random triples
    if s <= 256:
        triples = [(a[:, None, None], elems[:, None], elems) for a in np.array_split(elems, -(-s**3 // (1 << 22)))]
    else:
        triples = [np.random.default_rng(s).integers(0, s, size=(3, sample))]
    for a, b, c in triples:
        assert np.array_equal(add[add[a, b], c], add[a, add[b, c]])
        assert np.array_equal(mul[mul[a, b], c], mul[a, mul[b, c]])
        assert np.array_equal(mul[a, add[b, c]], add[mul[a, b], mul[a, c]])


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

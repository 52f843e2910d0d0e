import json
from fractions import Fraction

import pytest

from quasifolkman.certificates import Certificate
from quasifolkman.certify import quasi_folkman_certificate


def strip_timestamp(d):
    return {k: v for k, v in d.items() if k != "timestamp"}


def test_rerun_reproduces_quantities():
    a = quasi_folkman_certificate(4).to_dict()
    b = quasi_folkman_certificate(4).to_dict()
    assert strip_timestamp(a) == strip_timestamp(b)


def test_fractions_and_big_ints_serialize():
    cert = Certificate(
        claim="demo",
        params={"q": 4},
        quantities={"ratio": Fraction(1, 3), "big": 2**280},
        outcome="pass",
    )
    d = json.loads(json.dumps(cert.to_dict()))
    assert d["quantities"]["ratio"] == "1/3"
    assert d["quantities"]["big"] == 2**280
    text = cert.to_text()
    assert "quantities.ratio: 1/3" in text
    assert text.startswith("claim: demo")


def test_outcome_validation():
    with pytest.raises(ValueError):
        Certificate(claim="x", params={}, quantities={}, outcome="maybe")

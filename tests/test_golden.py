"""Golden digests of the demo scenario's outputs, and of the complex path.

The demo outputs are the behavioural contract for refactors: a change that
leaves the code's meaning alone must leave every byte of them alone.  The
demo holds only a rational axioms task, so a small complex scenario and the
``str``, ``repr`` and ``hash`` of a few ``ComplexFraction`` values are
pinned as well.  The digests and hashes below were recorded on x86-64 Linux
(Python 3.11, numpy 2.4).  Regenerate them only for a change that is meant
to alter the outputs, and say why in CHANGES.md.
"""

import hashlib
import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from scalefield import ComplexFraction as C
from scalefield import scaled_ops, structure
from scalefield.runner import run_scenario

DEMO = Path(__file__).resolve().parent.parent / "scenarios" / "demo.json"

GOLDEN = {
    "00_axioms.csv":
        "baf726e01df77f245bb90c5b6c8828dbbefc95e2ae385d43cf06b3899326623c",
    "01_pathlen.csv":
        "30db3cd5ebad7488986e7383d4f56cbb0a23ad9f7941ee44ee19da81c4627e3f",
    "02_geodesic.csv":
        "def19e177f261764a4b17fdc5ab08b96ff985d1773a1e3c7cc6f8c7d6aab6721",
    "03_wavepacket.csv":
        "ce0cb853a38a57f4961845a9739e78ca87f79c4a1f5c8eafa561477e63f1acd8",
    "04_gauge-check.csv":
        "e46f2a0b5738e41f7894bd0a74bc61514edb3d37e49080a988bcbc4375245a86",
    "05_compare.csv":
        "7705e88a8e4e40b33f47cd2cf842b4cd84506ebd227928269b204d30df3e241f",
    "summary.json":
        "870c9c2d6dae17976fe5324de63801c7117c006d95d09edf6e5af62e3634c7a7",
}


def test_demo_outputs_match_golden_digests(tmp_path):
    assert run_scenario(str(DEMO), out=str(tmp_path)) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir()}
    assert digests == GOLDEN


COMPLEX_SCENARIO = {
    "manifold": {"dimension": 3, "bounds": [[-2.0, 2.0]] * 3, "nodes": 5},
    "fields": {"theta": {"family": "linear",
                         "coefficients": [0.3, 0.0, 0.1]},
               "phi": {"family": "linear",
                       "coefficients": [0.0, 0.7, 0.0]}},
    "tasks": [
        {"type": "axioms", "kind": "complex", "t": "3/2", "s": "-5/7",
         "samples": 45},
        {"type": "compare", "mode": "parallel-transform",
         "reference": {"location": [0.0, 0.0, 0.0], "kind": "complex",
                       "payload": [1, "1/2"]},
         "target": {"location": [1.0, 1.0, 0.0], "kind": "complex",
                    "payload": ["2/3", "-0.25"]}},
        {"type": "compare", "mode": "physical-transmission",
         "reference": {"location": [0.0, 0.0, 0.0], "kind": "complex",
                       "payload": ["0.75", "-1/5"]},
         "target": {"location": [1.0, -1.0, 1.0], "kind": "complex",
                    "payload": ["3/4", "-0.2"]}},
    ],
    "seed": 13,
}

COMPLEX_GOLDEN = {
    "00_axioms.csv":
        "3aa29649463140da70dd558f7416049ed2be128cc8a3f2a9432623b043f9f54f",
    "01_compare.csv":
        "a2c82316ae4ed6b0360b3e785eb8e816deb5956cb7209b2b89c148836a5e04e2",
    "02_compare.csv":
        "f56a0d69c05da2de30ce3846adc6757f9405aa07b2f01709a4d745f26254ecd5",
    "summary.json":
        "6bc89a70e045f8b9618ed206fd4e8e0ff5fb89474e49a0bc08ba95179ddd87a8",
}


def test_complex_scenario_outputs_match_golden_digests(tmp_path):
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(COMPLEX_SCENARIO), encoding="utf-8")
    out = tmp_path / "out"
    assert run_scenario(str(path), out=str(out)) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out.iterdir()}
    assert digests == COMPLEX_GOLDEN


_ST = structure("complex", C(2, 3), C(1, -1))  # as in tests/test_axioms.py
_OPS = scaled_ops(_ST)

# (value, str, repr, hash); the hashes are those of 64-bit CPython
COMPLEX_PINS = [
    (C(2, 3), "2+3i",
     "ComplexFraction(re=Fraction(2, 1), im=Fraction(3, 1))",
     8409376899596376432),
    (C(1, -1), "1-1i",
     "ComplexFraction(re=Fraction(1, 1), im=Fraction(-1, 1))",
     -6779188579744246035),
    (C(F(3, 4)), "3/4",
     "ComplexFraction(re=Fraction(3, 4), im=Fraction(0, 1))",
     1729382256910270464),
    (C(0, F(-5, 6)), "0-5/6i",
     "ComplexFraction(re=Fraction(0, 1), im=Fraction(-5, 6))",
     7551190639972608897),
    (C(F(6, 4), F(-10, 6)), "3/2-5/3i",
     "ComplexFraction(re=Fraction(3, 2), im=Fraction(-5, 3))",
     6183690664151584294),
    (_ST.ratio, "-1/2+5/2i",
     "ComplexFraction(re=Fraction(-1, 2), im=Fraction(5, 2))",
     3725378488965412792),
    (_OPS.zero, "0",
     "ComplexFraction(re=Fraction(0, 1), im=Fraction(0, 1))", 0),
    (_OPS.inv(C(2, 3)), "-3/2+1i",
     "ComplexFraction(re=Fraction(-3, 2), im=Fraction(1, 1))",
     2710162495993903011),
    (_OPS.conj(C(1, -1)), "-7/13-17/13i",
     "ComplexFraction(re=Fraction(-7, 13), im=Fraction(-17, 13))",
     -6849912622867168149),
    (_OPS.mul(C(F(1, 2), 7), C(-3, F(2, 9))), "-1825/234+217/78i",
     "ComplexFraction(re=Fraction(-1825, 234), im=Fraction(217, 78))",
     755164440938739700),
]


@pytest.mark.parametrize("value, text, rep, digest", COMPLEX_PINS,
                         ids=[pin[1] for pin in COMPLEX_PINS])
def test_complex_fraction_str_repr_and_hash_are_pinned(value, text, rep,
                                                       digest):
    assert (str(value), repr(value), hash(value)) == (text, rep, digest)

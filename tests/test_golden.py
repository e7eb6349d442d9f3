"""Golden digests of the demo scenario's outputs.

The demo outputs are the behavioural contract for refactors: a change that
leaves the code's meaning alone must leave every byte of them alone.  The
digests below were recorded on x86-64 Linux (Python 3.11, numpy 2.4).
Regenerate them only for a change that is meant to alter the outputs, and
say why in CHANGES.md.
"""

import hashlib
from pathlib import Path

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
        "db86e0347089792d9a0e58743d905fc4b06d22a3d5f7838f80e07430b995b420",
}


def test_demo_outputs_match_golden_digests(tmp_path):
    assert run_scenario(str(DEMO), out=str(tmp_path)) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir()}
    assert digests == GOLDEN

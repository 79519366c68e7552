"""Pinned report payloads: the sha256 of every deterministic report payload of
the benchmark workloads and the acceptance batch, at two seeds.

A change that keeps certificates the same keeps every digest below.  A change
that alters a payload on purpose updates the table and says which digests
changed and why.  The workload configs are copies of the benchmark's, so the
benchmark can change without touching this file.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from tamecert.cli import report_payload, run_config
from tests.test_acceptance import ACCEPTANCE_BATCH

STAIRCASE = "(1/5; 0,1/16,1/8) (2/5; 1/8,3/16,1/4) (3/5; 1/4,5/16,3/8) (4/5; 3/8,7/16,1/2)"
WINDOWS = [8, 12, 16, 20]
EPSILONS = [0.1, 0.01]


def _exp(exp_id, kind, **params):
    return {"id": exp_id, "kind": kind, "params": params}


CONFIGS = {
    "exact-walk": [
        _exp("limit-sturmian-d40", "limit", system="sturmian",
             target={"a": 0, "b": "1/3"}, side="below", depth=40),
        _exp("limit-sturmian-d60", "limit", system="sturmian",
             target={"a": 1, "b": "1/5"}, side="above", depth=60),
        _exp("limit-rotation-d25", "limit", system="rotation",
             target={"a": 3, "b": 0}, side="above", depth=25),
        _exp("isolation-200", "isolation", count=200),
        _exp("determine-staircase", "determine", family="staircase",
             map=STAIRCASE, sample_level=6, adversaries=1000),
        _exp("counterexample-100x50", "counterexample",
             scenario="circle_parabolic", count=100, size=50),
        _exp("rigidity-sturmian", "rigidity", system="sturmian", max_time=10_000),
        _exp("fibers-semicocycle", "fibers", system="semicocycle"),
        _exp("catalog", "catalog"),
    ],
    "independence-growth": [
        _exp("independence-cantor6", "independence",
             coding={"system": "cantor6"}, horizon=100_000, windows=WINDOWS),
        _exp("independence-sturmian", "independence",
             coding={"system": "sturmian"}, horizon=10_000, windows=WINDOWS),
        _exp("independence-full-shift", "independence",
             coding={"kind": "full_shift", "window": 18}, windows=[18]),
    ],
    "rank-sweep": [
        _exp("rank-sturmian", "rank", system="sturmian", plain_count=10_000, epsilons=EPSILONS),
        _exp("rank-rotation", "rank", system="rotation", plain_count=2000, epsilons=EPSILONS),
        _exp("rank-boundary-f2", "rank", system="boundary-f2", depth=16, epsilons=EPSILONS),
    ],
    "acceptance-batch": ACCEPTANCE_BATCH["experiments"],
    "circle-witnesses": [
        _exp("counterexample-circular", "counterexample",
             scenario="circular_order", count=60, size=40),
        _exp("counterexample-projective", "counterexample",
             scenario="projective_p_infty", count=30, size=20),
        _exp("limit-rotation-below", "limit", system="rotation",
             target={"a": -2, "b": "2/7"}, side="below", depth=20),
    ],
}

DIGESTS = {
    ("exact-walk", 3): "3abe7fb086b764389f52fd01825a91fe851d6eec96ccd88ce00aee6adc4fa102",
    ("exact-walk", 5): "27035696505ac2623440187ad2488b1a5988b3aaf66df7cf1f674548cc40155d",
    ("independence-growth", 3): "2f5d64c3738f31a62720be078635111d112bf55deae7cf0ab7eb8cdd98e81ae9",
    ("independence-growth", 5): "a897d343c7da664a7f39439f81d5b281aab2950fb7d721818c4a5e358be5e2d1",
    ("rank-sweep", 3): "0b74d491c24f8db1cdceaf70799745b8993cfea55f50a0ce3a85b65f237b57ad",
    ("rank-sweep", 5): "2e571f3810203de86349541e926cf6e681e34433c906358d6351aacbd00bf436",
    ("acceptance-batch", 3): "40c927f19aa721a93cf2f20d0c3915785751e6791fe77cf5dd8c057356798fc9",
    ("acceptance-batch", 5): "3e50a9ab99c24813e17231490641feec5b34c7433cb84d5f597a1cd056b9e7a0",
    ("circle-witnesses", 3): "9767b5f8c7079f6df437b162d7c5b330d7e04ce7c27452bedca77b9546600385",
    ("circle-witnesses", 5): "6101e589795c45653ca69ca2bc404f790073692484d56b34e69b661b9732b6f3",
}


def payload_digest(name: str, seed: int) -> str:
    report, code = run_config({"seed": seed, "experiments": CONFIGS[name]})
    assert code == 0
    return hashlib.sha256(json.dumps(report_payload(report), sort_keys=True).encode()).hexdigest()


def test_table_covers_every_config_and_seed():
    assert set(DIGESTS) == {(name, seed) for name in CONFIGS for seed in (3, 5)}


@pytest.mark.parametrize("name, seed", sorted(DIGESTS))
def test_payload_digest_is_pinned(name, seed):
    assert payload_digest(name, seed) == DIGESTS[name, seed]

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
    ("exact-walk", 3): "db2ac1705159aaa193d0464db91af90469897d7fd37c50e236c795dd41648141",
    ("exact-walk", 5): "aca4325322caa1ddd2ad52cfd08797b8dbc4c903542be16c35126642df795c2f",
    ("independence-growth", 3): "20a459586446287433125b6907d3d0e35baf938ff5ca6215b1101ed3d3bc5882",
    ("independence-growth", 5): "c34b6d0b2fa6ac3ee104a550454b66cbc7d8c6ed31951dd62925996797c6e49a",
    ("rank-sweep", 3): "0b74d491c24f8db1cdceaf70799745b8993cfea55f50a0ce3a85b65f237b57ad",
    ("rank-sweep", 5): "2e571f3810203de86349541e926cf6e681e34433c906358d6351aacbd00bf436",
    ("acceptance-batch", 3): "4bf661f97e02a85ae521b458298ea3b6d3d6fb4187d3eb68e680c0e4be39bee8",
    ("acceptance-batch", 5): "d4a6ace76a98ce6869cce673256ce06d8a29f0b7c127bddd02a7f8508bfcad6d",
    ("circle-witnesses", 3): "78179be4eaea54a0fbd476745c668fa6522fb0c64de91a6408ca971ec71e2a2d",
    ("circle-witnesses", 5): "b63f8bbc9d29055a7fd8c329a85b76f44811a19dc46eadd4ae07124a0d3471c7",
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

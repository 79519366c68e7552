"""Self-test of the traced run.

For each workload, the per-layer metrics that must be nonzero because the
workload exercises the layer, and those that must be zero because it
bypasses it.  Metric names, units and bounds are in ``BENCHMARK.json``.

Which end-to-end metric each per-layer metric should move, on which workload:
  exactarith  -> report_s on rank-sweep and exact-walk, verify_s on exact-walk;
                 no change expected on independence-growth
  order       -> report_s on exact-walk
  systems     -> report_s on rank-sweep and independence-growth
  envelope    -> report_s on rank-sweep and exact-walk
  tameness    -> report_s, verify_s and peak_rss_mb on independence-growth only
  rank        -> report_s on rank-sweep only
  kernels     -> independence-growth (extract_factors, distinct_projection_count,
                 project_masks), rank-sweep (window_oscillation); the kernels.micro
                 rows time them alone on the inputs of benchmarks/bench_kernels.py
  boundary    -> report_s on rank-sweep
  cli         -> run_config.self_s moves report_s on exact-walk only (thread executor)
"""

from __future__ import annotations

from tracing import KERNELS
from workloads import WORKLOADS

MICRO = ("extract_factors", "distinct_projection_count", "window_oscillation")
EXPERIMENT_IDS = [e["id"] for w in WORKLOADS.values() for e in w["experiments"]]

_LEVEL_FOR = ["exactarith.level_for.calls", "exactarith.level_for.levels",
              "exactarith.level_for.s"]
_COMPARE = ["exactarith.compare.calls", "exactarith.compare.s"]
_CODING_WORD = ["systems.coding_word.calls", "systems.coding_word.symbols",
                "systems.coding_word.s"]
_ALWAYS = ["cli.run_config.self_s", "cli.report_json.s", "cli.report_json.bytes",
           "cli.verify_certificate.s", *[f"kernels.micro.{k}.s" for k in MICRO]]
SELF_TEST = {
    "exact-walk": {
        "nonzero": [
            *_LEVEL_FOR, *_COMPARE, *_CODING_WORD, "exactarith.one_sided_approach.s",
            "order.helly_determining_set.calls", "order.helly_determining_set.s",
            "envelope.split_sample.s", "envelope.limit_map.s",
            "envelope.sorgenfrey_isolation.s", "envelope.rigidity_probe.s",
        ],
        "zero": ["tameness.bnb_nodes", "tameness.max_independence.calls",
                 "rank.build_instance.calls", *[f"kernels.{k}.calls" for k in KERNELS]],
    },
    "independence-growth": {
        "nonzero": [
            *_CODING_WORD, "systems.cut_project_word.s",
            "tameness.max_independence.calls", "tameness.max_independence.s",
            "tameness.bnb_nodes", "tameness.bnb_cover_ratio", "tameness.witnesses",
            "tameness.growth_report.s", "tameness.certificate_verify.s",
            *[f"kernels.{k}.{m}" for k in KERNELS[:3] for m in ("calls", "s", "bytes")],
        ],
        "zero": ["kernels.window_oscillation.calls", "order.helly_determining_set.calls",
                 "rank.build_instance.calls"],
    },
    "rank-sweep": {
        "nonzero": [
            *_LEVEL_FOR, *_COMPARE, *_CODING_WORD,
            "rank.build_instance.calls", "rank.build_instance.s", "rank.beta_rank.s",
            "envelope.split_sample.s", "envelope.limit_map.s",
            "envelope.coding_metric.word_hit_ratio",
            *[f"kernels.window_oscillation.{m}" for m in ("calls", "s", "bytes")],
            "boundary.power_limit.s", "boundary.boundary_sample.s",
        ],
        "zero": ["kernels.extract_factors.calls", "tameness.max_independence.calls",
                 "order.helly_determining_set.calls"],
    },
}
for _w, _t in SELF_TEST.items():
    _t["nonzero"] += _ALWAYS + [f"cli.experiment.{e['id']}.s" for e in WORKLOADS[_w]["experiments"]]
    _t["zero"] += [f"cli.experiment.{i}.s" for i in EXPERIMENT_IDS
                   if i not in {e["id"] for e in WORKLOADS[_w]["experiments"]}]


def derived(name: str) -> bool:
    """Per-layer rows the run computes itself rather than reads from the tracer."""
    return name.startswith("trace.") or name == "fail_ratio"


def check(workload: str, layers: dict) -> list[str]:
    test = SELF_TEST[workload]
    bad = [f"{n} is 0 but {workload} exercises it" for n in test["nonzero"] if not layers[n]]
    bad += [f"{n} is {layers[n]} but {workload} bypasses it" for n in test["zero"] if layers[n]]
    return bad


def uncovered(per_layer: list[str]) -> list[str]:
    """Per-layer metrics that no workload is expected to make nonzero."""
    covered = {n for t in SELF_TEST.values() for n in t["nonzero"]}
    return [n for n in per_layer if n not in covered and not derived(n)]

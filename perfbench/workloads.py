"""Workload configs and the results each experiment must produce.

Every workload is a ``tamecert run`` config.  The seed reaches the program
only through the config's ``seed`` field, which drives the random draws of
the fibers, staircase and counterexample experiments; none of the expected
results below depends on it.  The expectations are written by hand from the
paper and the acceptance criteria, never read back from a run.
"""

from __future__ import annotations

import math

# One staircase with four jumps, breakpoints off the 1/64 sample grid, so the
# Helly set is the 65 grid points plus the 4 discontinuities.
STAIRCASE = "(1/5; 0,1/16,1/8) (2/5; 1/8,3/16,1/4) (3/5; 1/4,5/16,3/8) (4/5; 3/8,7/16,1/2)"
WINDOWS = [8, 12, 16, 20]
EPSILONS = [0.1, 0.01]


def _exp(exp_id, kind, **params):
    return {"id": exp_id, "kind": kind, "params": params}


WORKLOADS = {
    "exact-walk": {
        "why": "exactarith, order and exact envelope paths under the jobs=2 thread "
               "executor; no tameness, rank or kernel work",
        "jobs": 2,
        "experiments": [
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
    },
    "independence-growth": {
        "why": "tameness branch and bound and the factor kernels; a 2^18-witness "
               "certificate drives memory and verify time",
        "jobs": 1,
        "experiments": [
            _exp("independence-cantor6", "independence",
                 coding={"system": "cantor6"}, horizon=100_000, windows=WINDOWS),
            _exp("independence-sturmian", "independence",
                 coding={"system": "sturmian"}, horizon=10_000, windows=WINDOWS),
            _exp("independence-full-shift", "independence",
                 coding={"kind": "full_shift", "window": 18}, windows=[18]),
        ],
    },
    "rank-sweep": {
        "why": "rank derivatives, envelope sampling, coding words and window_oscillation; "
               "verify only checks stage-size shapes",
        "jobs": 1,
        "experiments": [
            _exp("rank-sturmian", "rank", system="sturmian", plain_count=10_000,
                 epsilons=EPSILONS),
            _exp("rank-rotation", "rank", system="rotation", plain_count=2000,
                 epsilons=EPSILONS),
            _exp("rank-boundary-f2", "rank", system="boundary-f2", depth=16,
                 epsilons=EPSILONS),
        ],
    },
}

# Failures the program is known to produce today.  They are counted as
# failed operations like any other; naming them lets a run say whether every
# failure it saw is one of these.  ``operation`` is ``verify:<experiment id>``
# or ``run:<experiment id>``; ``error`` must occur in the recorded message.
KNOWN_DEFECTS = {
    "exact-walk": [
        {
            "operation": "verify:limit-rotation-d25",
            "error": "'RotationSystem' object has no attribute 'splits'",
            "why": "cli.verify_certificate always builds a split_sample, which a "
                   "rotation system cannot provide",
        },
    ],
}


def config(workload: str, seed: int) -> dict:
    spec = WORKLOADS[workload]
    return {"seed": seed, "experiments": spec["experiments"]}


# ---------------------------------------------------------------------------
# expected results: each check returns a list of mismatch descriptions
# ---------------------------------------------------------------------------


def _want(problems, ok, text):
    if not ok:
        problems.append(text)


def _check_sturmian_limit(result, gamma, side, depth):
    p = []
    cls = result.get("classification", {})
    _want(p, result.get("backend") == "exact", "limit backend is not exact")
    _want(p, cls.get("tag") == "one_sided", f"limit tag {cls.get('tag')!r}, want one_sided")
    _want(p, cls.get("params", {}).get("gamma") == gamma,
          f"limit gamma {cls.get('params', {}).get('gamma')!r}, want {gamma!r}")
    _want(p, cls.get("params", {}).get("side") == side, f"limit side, want {side!r}")
    dec = result.get("decomposition") or {}
    _want(p, dec == {"epsilon": side, "gamma": gamma}, f"decomposition {dec!r}")
    times = result.get("times", [])
    _want(p, len(times) == depth and all(a < b for a, b in zip(times, times[1:])),
          "approach times are not a strictly increasing sequence of the stated depth")
    return p


def _check_independence(result, windows, bound):
    p = []
    table = result.get("table", [])
    _want(p, [row["window"] for row in table] == windows, "independence windows missing")
    for row in table:
        L = row["window"]
        _want(p, row["exhausted"], f"window {L} search not exhausted")
        _want(p, bound(L, row), f"window {L}: independence {row['independence']} "
                                f"breaks the expected bound")
    return p


def _check_rank(result, beta):
    rows = result.get("table", [])
    p = []
    _want(p, [r["epsilon"] for r in rows] == EPSILONS, "rank epsilons differ from the config")
    for r in rows:
        _want(p, r["beta"] == beta, f"beta {r['beta']} at eps {r['epsilon']}, want {beta}")
    return p


EXPECT = {
    "limit-sturmian-d40": lambda r: _check_sturmian_limit(r, "0*alpha+1/3", "minus", 40),
    "limit-sturmian-d60": lambda r: _check_sturmian_limit(r, "1*alpha+1/5", "plus", 60),
    # the limit of T^{n_i} with n_i*alpha -> 3*alpha is the translation T^3
    "limit-rotation-d25": lambda r: (
        [] if r.get("classification") == {"tag": "translation", "params": {"n": "3"}}
        else [f"rotation limit {r.get('classification')!r}, want translation n=3"]),
    "isolation-200": lambda r: (
        [] if r == {"diagonal_all_isolated": True, "single_circle_all_isolated": False,
                    "single_circle_conflicts": 200}
        else [f"isolation {r!r}: diagonal must be all isolated, single circle none"]),
    "determine-staircase": lambda r: (
        [] if r == {"family": "staircase", "c_size": 69, "sound": True}
        else [f"Helly set {r!r}, want sound with 65 grid points + 4 jumps"]),
    "counterexample-100x50": lambda r: (
        [] if r == {"scenario": "circle_parabolic", "sound": 100, "count": 100}
        else [f"counterexample {r!r}, want all 100 witnesses sound"]),
    # 0- and 0+ carry different symbols, and for n >= 1 T^n sends them to
    # points whose symbols agree (or to alpha-, inside the arc), so one of them
    # changes its coordinate-0 symbol: sup_x d(T^n x, x) >= 2^0 = 1 for every n
    "rigidity-sturmian": lambda r: (
        [] if r["minimum"]["distance"] >= 1.0 and r["series_length"] == 10_000
        else [f"Sturmian rigidity minimum {r['minimum']!r} below the split-gap floor 1"]),
    "fibers-semicocycle": lambda r: (
        [] if r["marked"] == {str(k): k for k in range(1, 7)} and r["unmarked_all_one"]
        else [f"semicocycle fibers {r!r}, want cardinality k over marked points"]),
    "catalog": lambda r: (
        [] if r["jump_elements_pinned_by_three"]
        else ["catalog jump elements not pinned by three values"]),
    # Cantor above Sturmian is checked across experiments in check_report
    "independence-cantor6": lambda r: _check_independence(r, WINDOWS, lambda L, row: True),
    "independence-sturmian": lambda r: _check_independence(
        r, WINDOWS, lambda L, row: row["independence"] <= math.ceil(math.log2(L + 1))
        and row["complexity"] == L + 1),
    "independence-full-shift": lambda r: _check_independence(
        r, [18], lambda L, row: row["independence"] == L),
    "rank-sturmian": lambda r: _check_rank(r, 2),
    "rank-rotation": lambda r: _check_rank(r, 1),
    "rank-boundary-f2": lambda r: _check_rank(r, 2),
}


def check_report(workload: str, report: dict) -> dict[str, list[str]]:
    """Mismatches against the expected results, keyed by experiment id."""
    entries = {e["id"]: e for e in report["results"]}
    out: dict[str, list[str]] = {}
    for exp in WORKLOADS[workload]["experiments"]:
        entry = entries.get(exp["id"])
        if entry is None:
            out[exp["id"]] = ["experiment missing from the report"]
        elif entry["status"] == "ok":
            try:
                out[exp["id"]] = EXPECT[exp["id"]](entry["result"])
            except (KeyError, TypeError) as exc:
                out[exp["id"]] = [f"result lacks an expected field: {exc!r}"]
        else:
            out[exp["id"]] = [f"status {entry['status']!r}"]
    if workload == "independence-growth" and not (
        out["independence-cantor6"] or out["independence-sturmian"]
    ):
        cantor = [r["independence"] for r in entries["independence-cantor6"]["result"]["table"]]
        sturm = [r["independence"] for r in entries["independence-sturmian"]["result"]["table"]]
        if not (all(c > s for c, s in zip(cantor, sturm))
                and all(a <= b for a, b in zip(cantor, cantor[1:]))):
            out["independence-cantor6"].append(
                f"Cantor |I| {cantor} must be nondecreasing and above Sturmian {sturm}")
    return out

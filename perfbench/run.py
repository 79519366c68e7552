"""End-to-end benchmark of tamecert: config to verified certificates.

Run from the root of a tamecert checkout:

    python3 perfbench/run.py --workload exact-walk --seed 1 --seconds 20 --trace 0

Each repetition runs in a fresh interpreter (perfbench/rep.py), the way each
``tamecert run`` / ``tamecert verify`` call does, one at a time, so the load
is one process with at most the config's ``jobs`` threads.  The metric
names, units and the default run length come from ``BENCHMARK.json``, and
the kernels must be the NumPy fallback.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs ``run_config`` once untraced
and then traced repetitions, and reports the per-layer metrics and the tracing
overhead.

The host is shared, and a busy neighbour on a core slows this process by up
to 1.8x in episodes of a few seconds, so every time is an interval scaled to
a steady core speed by ``rep.SpeedProbe``; each metric is the median of the
run's scaled intervals, and the medians as measured are in the full record
and in the human-readable lines.

Human-readable lines come first; the last line of stdout is the JSON result.
Full samples, spans and machine info go to .perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import selftest
import tracing
import workloads

HERE = Path(__file__).resolve().parent
INTERPRETERS_PER_REP = 4  # untraced: import-only interpreters fill a repetition up to this
VERIFY_PASSES_S = 1.2  # untraced: verify interpreters per repetition until their passes took this
VERIFY_KEEP = 200  # pass times kept from one verify interpreter, evenly spaced
MIN_REPS = 2
RUN_CAP_S = 160  # no repetition starts if it could push the run past this


class BenchError(Exception):
    pass


def _child(root: Path, deadline: float, mode: str, workload: str, seed: int,
           report: Path, trace: bool) -> dict:
    env = dict(os.environ, PYTHONPATH="src")
    timeout = max(5.0, deadline - time.perf_counter())
    proc = subprocess.run(
        [sys.executable, str(HERE / "rep.py"), mode, workload, str(seed), str(report),
         str(int(trace))],
        cwd=root, env=env, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchError(f"rep.py {mode} exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if Path(out["tamecert"]).resolve().parent != (root / "src" / "tamecert").resolve():
        raise BenchError(f"imported tamecert from {out['tamecert']}, not from ./src")
    if out["machine"]["backend"] != "fallback":
        raise BenchError(f"kernel backend is {out['machine']['backend']!r}, not 'fallback': "
                         f"remove the built _speedups extension from src/tamecert/_kernels")
    return out


def _merge(rep: dict, out: dict) -> None:
    """Add an interpreter's set-up and verify samples, scaled and raw, to the
    repetition: of many verify passes, VERIFY_KEEP evenly spaced ones."""
    keep = -(-len(out.get("verify_s", [])) // VERIFY_KEEP) or 1
    for key in ("setup_s", "verify_s"):
        rep[key] += out.get(key, [])[::keep]
        rep["raw"][key] += out["raw"].get(key, [])[::keep]


def _repetition(root, deadline, workload, seed, report, trace) -> dict:
    """``tamecert run`` then ``tamecert verify``, each in its own interpreter.

    Untraced, verify interpreters follow until their passes took
    VERIFY_PASSES_S, so that a verify of a fraction of a millisecond is
    sampled in several interpreters, and import-only interpreters fill the
    repetition up to INTERPRETERS_PER_REP, spreading the set-up samples over
    the run."""
    rep = _child(root, deadline, "run", workload, seed, report, trace)
    rep.update(report_s=rep["report_s"][0], spans=[rep.get("spans", [])], verify_passes=[],
               verify_s=[])
    rep["raw"].update(report_s=rep["raw"]["report_s"][0], verify_s=[])
    if rep["digest"] is None:  # the run crashed and wrote no report
        return rep
    spent = 0.0
    while not rep["verify_s"] or (not trace and spent < VERIFY_PASSES_S):
        ver = _child(root, deadline, "verify", workload, seed, report, trace)
        spent += sum(ver["raw"]["verify_s"])
        rep["verify_passes"].append(len(ver["verify_s"]))
        _merge(rep, ver)
        rep["ops"] += ver["ops"]
        rep["peak_rss_mb"] = max(rep["peak_rss_mb"], ver["peak_rss_mb"])
        if trace:
            for k, v in ver["layers"].items():
                rep["layers"][k] = rep["layers"].get(k, 0.0) + v
            rep["spans"].append(ver["spans"])
    while not trace and len(rep["setup_s"]) < INTERPRETERS_PER_REP:
        _merge(rep, _child(root, deadline, "setup", workload, seed, report, False))
    return rep


def _repeat(one, seconds, started, deadline, minimum):
    """Repetitions that fit in the first ``seconds`` of the run, at least ``minimum``."""
    reps, durations = [], []
    while len(reps) < minimum or (
        time.perf_counter() - started + statistics.mean(durations) <= seconds
    ):
        if durations and time.perf_counter() + 1.5 * max(durations) > deadline:
            break
        t0 = time.perf_counter()
        reps.append(one())
        durations.append(time.perf_counter() - t0)
    return reps


def _failures(workload: str, reps: list[dict]) -> tuple[int, int, list[dict]]:
    ops = [op for r in reps for op in r["ops"]]
    failed = [op for op in ops if not op["ok"]]
    for op in failed:
        op["known_defect"] = next(
            (d["why"] for d in workloads.KNOWN_DEFECTS.get(workload, [])
             if op["op"].split("[")[0] == d["operation"] and d["error"] in (op["error"] or "")),
            None,
        )
    return len(ops), len(failed), failed


def load_benchmark(root: Path) -> dict:
    path = root / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError("no BENCHMARK.json at the root of the checkout")
    bench = json.loads(path.read_text())
    missing = selftest.uncovered([m["name"] for m in bench["per_layer"]])
    if missing:
        raise BenchError(f"per-layer metrics no workload is expected to exercise: {missing}")
    return bench


def measure(root: Path, bench: dict, workload: str, seed: int, seconds: int,
            trace: bool) -> dict:
    started = time.perf_counter()
    deadline = started + RUN_CAP_S
    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    report = out_dir / f"{workload}.report.json"
    run = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace}

    if not trace:
        reps = _repeat(lambda: _repetition(root, deadline, workload, seed, report, False),
                       seconds, started, deadline, MIN_REPS)

        def medians(of):
            return {
                "setup_s": statistics.median(s for r in reps for s in of(r)["setup_s"]),
                "report_s": statistics.median(of(r)["report_s"] for r in reps),
                "verify_s": statistics.median([v for r in reps for v in of(r)["verify_s"]]
                                              or [0.0]),
            }

        metrics = medians(lambda r: r)
        metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in reps)
        run["raw_metrics"] = medians(lambda r: r["raw"])
        passes = [n for r in reps for n in r["verify_passes"]]
        run["notes"] = [
            f"samples: {len(reps)} repetitions, {sum(len(r['setup_s']) for r in reps)} "
            f"setups, {sum(passes)} verify passes in {len(passes)} interpreters; every "
            f"metric is a median; a percentile above the median with 10 samples beyond "
            f"it needs n >= 20, so no tail percentile is reported",
            "times are scaled to an uncontended core (rep.SpeedProbe); as measured: "
            + ", ".join(f"{k} {v:.6f}" for k, v in run["raw_metrics"].items())]
    else:
        untraced = _child(root, deadline, "run", workload, seed, report, False)
        traced = _repeat(lambda: _repetition(root, deadline, workload, seed, report, True),
                         seconds, started, deadline, 1)
        per_rep = [tracing.derive(r["layers"]) for r in traced]
        metrics = {m["name"]: statistics.median(lay.get(m["name"], 0.0) for lay in per_rep)
                   for m in bench["per_layer"] if not selftest.derived(m["name"])}
        base = untraced["report_s"][0]
        with_trace = statistics.median(r["report_s"] for r in traced)
        metrics.update({"trace.untraced_report_s": base, "trace.traced_report_s": with_trace,
                        "trace.overhead_s": with_trace - base})
        run["self_test_failures"] = selftest.check(workload, metrics)
        run["patched"] = traced[0]["patched"]
        run["notes"] = [f"samples: {len(traced)} traced repetitions, 1 untraced run"]
        reps = [untraced] + traced

    attempted, failed, failures = _failures(workload, reps)
    if trace:
        metrics["fail_ratio"] = failed / attempted
    else:
        metrics["ok_ratio"] = 1.0 - failed / attempted
    digests = {r["digest"] for r in reps}
    mismatches = {k: v for r in reps for k, v in r["mismatches"].items()}
    unknown = [f for f in failures if f["known_defect"] is None]
    run.update(
        machine=reps[0]["machine"], metrics=metrics, attempted=attempted, failed=failed,
        failures=failures, mismatches=mismatches, digests=sorted(map(str, digests)),
        repetitions=[{k: v for k, v in r.items() if k not in ("spans", "ops", "patched")}
                     for r in reps],
        spans=[r.get("spans", []) for r in reps],
        correct=(len(digests) == 1 and None not in digests and not mismatches and not unknown
                 and not run.get("self_test_failures")),
    )
    return run


def _print_run(run: dict, units: dict) -> None:
    m = run["machine"]
    print(f"perfbench workload={run['workload']} seed={run['seed']} "
          f"seconds={run['seconds']} trace={int(run['trace'])}")
    print(f"machine: nproc={m['nproc']} python={m['python']} numpy={m['numpy']} "
          f"kernel_backend={m['backend']} speedups_built={m['speedups_built']}")
    for note in run["notes"]:
        print(note)
    for name, value in run["metrics"].items():
        print(f"  {name:<44} {value:>16.6f} {units[name]}")
    print(f"operations: {run['attempted']} attempted, {run['failed']} failed "
          f"(fail_ratio {run['failed'] / run['attempted']:.4f})")
    for f in run["failures"]:
        tag = f"known defect: {f['known_defect']}" if f["known_defect"] else "UNEXPECTED"
        print(f"  failed {f['op']}: {f['error']} [{tag}]")
    for exp_id, problems in run["mismatches"].items():
        print(f"  wrong result {exp_id}: {'; '.join(problems)}")
    if len(run["digests"]) != 1:
        print(f"  report payload digests differ across repetitions: {run['digests']}")
    for line in run.get("self_test_failures", []):
        print(f"  self-test: {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        if not (root / "src" / "tamecert" / "cli.py").is_file():
            raise BenchError("no tamecert sources under ./src: run from the root of a checkout")
        bench = load_benchmark(root)
        seconds = args.seconds or bench["run_seconds"]
        run = measure(root, bench, args.workload, args.seed, seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    out_file = root / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(run, indent=1))
    _print_run(run, units)
    print(f"full record: {out_file.relative_to(root)}")
    print(json.dumps({
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in run["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

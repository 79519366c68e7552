"""One step of a repetition in a fresh interpreter, as one CLI call sees it.

    PYTHONPATH=src python3 perfbench/rep.py <mode> <workload> <seed> <report> <trace>

``setup`` times the import of ``tamecert.cli`` and stops.  ``run`` does what
``tamecert run --out <report>`` does: ``cli.run_config`` on the workload
config, then the report serialized as ``cli.main`` writes it; it also checks
the expected results.  ``verify`` does what ``tamecert verify <report>``
does, except that a certificate whose verification raises is recorded and
the next one is verified; one pass runs from reading the report to the end
of the last verification, and untraced, passes repeat until there are
VERIFY_MIN_PASSES and they took VERIFY_PASS_S, so that a verify of a
fraction of a millisecond is sampled by many passes rather than one cold
reading.  With trace 1 the step runs under the per-layer tracer.

Each timed interval (the import, the run, each verify pass) is reported
twice: as measured, under ``raw``, and scaled to a steady core speed by
``SpeedProbe``.  Prints one JSON object on stdout.
"""

import signal
import sys
import time
from fractions import Fraction  # for SpeedProbe, imported before the set-up timer starts

VERIFY_MIN_PASSES = 2
VERIFY_PASS_S = 0.15


class SpeedProbe:
    """How fast this core runs while the measured code runs.

    The host is shared: a busy neighbour on the same physical core slows
    every instruction of this process, by up to 1.8x, in episodes of a few
    seconds, so one interval can take half as long again as the next.  Every
    INTERVAL_S a timer signal runs a fixed piece of Fraction arithmetic that
    calls no tamecert code and records the thread CPU time it took.
    ``scaled`` multiplies an interval by REFERENCE_S over the mean probe time
    around it, so it reads in seconds of a core on which the probe takes
    REFERENCE_S, about the mean seen while tamecert runs on a 2-vCPU VM with
    Python 3.11.  The probes themselves add about 1% to every interval.
    """

    INTERVAL_S = 0.025
    REFERENCE_S = 200e-6
    NEAREST = 4  # an interval holding fewer probes uses this many nearest ones

    def __init__(self):
        self.samples = []  # (perf_counter when the probe ran, thread CPU seconds it took)

    def _probe(self, signum, frame):
        when = time.perf_counter()
        cpu = time.thread_time()
        acc = Fraction(0)
        for k in range(1, 40):
            acc += Fraction(k % 13 + 1, k * k + 1)
        self.samples.append((when, time.thread_time() - cpu))

    def start(self) -> None:
        self._probe(None, None)  # warm-up, not kept
        self.samples.clear()
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def scaled(self, start: float, end: float) -> float:
        inside = [d for t, d in self.samples if start <= t <= end]
        if len(inside) < self.NEAREST:
            mid = (start + end) / 2
            nearest = sorted(self.samples, key=lambda s: abs(s[0] - mid))[:self.NEAREST]
            inside = [d for _, d in nearest]
        return (end - start) * self.REFERENCE_S * len(inside) / sum(inside)


def main() -> int:
    mode, workload, seed, report_path, trace = sys.argv[1:6]
    probe = SpeedProbe()
    probe.start()
    start = time.perf_counter()
    import tamecert.cli as cli
    windows = {"setup_s": [(start, time.perf_counter())]}

    import json
    import os
    import platform

    import numpy

    import tamecert._kernels as K

    out = {
        "tamecert": os.path.abspath(cli.__file__),
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": numpy.__version__, "backend": K.BACKEND,
                    "speedups_built": K.speedups is not None},
    }
    if mode != "setup":
        import workloads

        config = workloads.config(workload, int(seed))
        tracer = None
        if trace == "1":
            from tracing import Tracer

            tracer = Tracer()
            tracer.install({id(e["params"]): e["id"] for e in config["experiments"]})
        step = run_step if mode == "run" else verify_step
        out.update(step(cli, workload, config, report_path, tracer))
        windows.update(out.pop("windows"))
        if tracer:
            tracer.uninstall()
            out.update(layers=tracer.counter_totals(), spans=tracer.spans,
                       patched=tracer.patched)
            if mode == "run":
                out["layers"].update(kernel_micro())
    probe.stop()
    out.setdefault("peak_rss_mb", _peak_rss_mb())
    out["raw"] = {k: [b - a for a, b in w] for k, w in windows.items()}
    out.update({k: [probe.scaled(a, b) for a, b in w] for k, w in windows.items()})
    print(json.dumps(out))
    return 0


def run_step(cli, workload, config, report_path, tracer) -> dict:
    import hashlib
    import json

    import workloads

    jobs = workloads.WORKLOADS[workload]["jobs"]
    start = time.perf_counter()
    try:
        report, _ = cli.run_config(config, jobs=jobs)
        if tracer:
            text = tracer.timed("cli.report_json", json.dumps, report, sort_keys=True, indent=1)
            tracer.counters()["cli.report_json.bytes"] += len(text.encode())
        else:
            text = json.dumps(report, sort_keys=True, indent=1)
    except Exception as exc:  # noqa: BLE001 - a crash loses every experiment of the run
        error = f"run_config raised {type(exc).__name__}: {exc}"
        return {"windows": {"report_s": [(start, time.perf_counter())]}, "digest": None,
                "mismatches": {},
                "ops": [{"op": f"run:{e['id']}", "ok": False, "error": error}
                        for e in config["experiments"]]}
    window = (start, time.perf_counter())
    with open(report_path, "w") as fh:
        fh.write(text + "\n")

    mismatches = workloads.check_report(workload, report)
    ops = []
    for entry in report["results"]:
        problems = mismatches.get(entry["id"], [])
        ok = entry["status"] == "ok" and not problems
        ops.append({"op": f"run:{entry['id']}", "ok": ok,
                    "error": None if ok else "; ".join(problems) or entry["status"]})
    payload = json.dumps(cli.report_payload(report), sort_keys=True).encode()
    return {
        "windows": {"report_s": [window]},
        "ops": ops,
        "mismatches": {k: v for k, v in mismatches.items() if v},
        "digest": hashlib.sha256(payload).hexdigest(),
    }


def verify_pass(cli, report_path) -> list[dict]:
    """Load the report and verify every certificate in it."""
    import json

    with open(report_path) as fh:
        report = json.load(fh)
    ops = []
    for entry in report["results"]:
        certs = entry.get("certificates", [])
        for k, cert in enumerate(certs):
            op = f"verify:{entry['id']}" + (f"[{k}]" if len(certs) > 1 else "")
            try:
                good = cli.verify_certificate(cert)
                ops.append({"op": op, "ok": bool(good),
                            "error": None if good else "verify returned False"})
            except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                ops.append({"op": op, "ok": False, "error": f"{type(exc).__name__}: {exc}"})
    return ops


def verify_step(cli, workload, config, report_path, tracer) -> dict:
    """Verify passes; the operations and the peak RSS are those of the first."""
    start = time.perf_counter()
    ops = verify_pass(cli, report_path)
    passes = [(start, time.perf_counter())]
    peak_rss_mb = _peak_rss_mb()
    while not tracer and (len(passes) < VERIFY_MIN_PASSES or passes[-1][1] - start < VERIFY_PASS_S):
        begin = time.perf_counter()
        verify_pass(cli, report_path)
        passes.append((begin, time.perf_counter()))
    return {"windows": {"verify_s": passes}, "ops": ops, "peak_rss_mb": peak_rss_mb}


def _peak_rss_mb() -> float:
    import resource

    # Linux reports ru_maxrss in KiB
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def kernel_micro() -> dict:
    """Times of the active kernels on the inputs of benchmarks/bench_kernels.py."""
    sys.path.insert(0, "benchmarks")
    import bench_kernels

    import tamecert._kernels as K

    return {f"kernels.micro.{name.split()[0]}.s": bench_kernels.timeit(lambda c=call: c(K))
            for name, call in bench_kernels.workloads()}


if __name__ == "__main__":
    sys.exit(main())

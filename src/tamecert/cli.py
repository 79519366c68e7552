"""Experiment harness: config-driven runs, JSON reports, CSV plot data.

Verbs: ``run <config>``, ``plot <report> <series>``, ``list-systems``,
``verify <certificate>``.  Exit codes: 0 success, 2 validation error,
3 honest non-stabilization (budget or stopping contract; the report is still
written with the partial result).  Reports are deterministic for a fixed
config and seed apart from the wall-time field.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import operator
import random
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .errors import BudgetExceeded, ConfigError, NotStabilized, NotStabilizedAcrossResolutions
from .exactarith import ARRAY_A_MAX, ARRAY_DEN_MAX, GOLDEN, CirclePoint, one_sided_approach
from . import envelope, order, rank, systems, tameness
from .boundary import ReducedWord, boundary_sample, loxodromic_rank_arrays, power_limit
from .linear import affine_catalog_limit, pinned_by_three

SCHEMA_VERSION = 2

NAMED_SYSTEMS = {
    "sturmian": {"kind": "split_circle", "alpha": "cf:[0;1,...]", "split_set": "orbit"},
    "sturmian-sqrt2": {"kind": "split_circle", "alpha": "cf:[0;2,...]", "split_set": "orbit"},
    "rationals-split": {"kind": "split_circle", "alpha": "cf:[0;1,...]", "split_set": "rationals"},
    "rotation": {"kind": "rotation", "alpha": "cf:[0;1,...]"},
    "rotation-sqrt2": {"kind": "rotation", "alpha": "cf:[0;2,...]"},
    "cantor6": {"kind": "cut_project", "alpha": "cf:[0;1,...]",
                "window": {"cantor_generation": 6, "scale": "1/2"}},
    "semicocycle": {"kind": "semicocycle", "n_max": 8, "depth": 24},
}


def resolve_system(spec):
    if isinstance(spec, str):
        if spec not in NAMED_SYSTEMS:
            raise ConfigError(f"unknown system name {spec!r}")
        spec = NAMED_SYSTEMS[spec]
    return systems.load_system(spec)


def _point(system_alpha, desc) -> CirclePoint:
    """Point literal {a: int, b: 'num/den'}; TypeError unless it is an object."""
    if not isinstance(desc, dict):
        raise TypeError(f"a point literal must be an object, not {desc!r}")
    return CirclePoint(system_alpha, int(desc.get("a", 0)), Fraction(desc.get("b", 0)))


def _point_str(p: CirclePoint) -> str:
    return f"{p.a}*alpha+{p.b}"


_POINT = re.compile(r"(-?\d+)\*alpha\+((-?\d+)(?:/([1-9]\d*))?)")


def _parse_point(alpha, text: str) -> CirclePoint:
    """Inverse of ``_point_str``; ValueError when ``text`` is not ``a*alpha+b``."""
    m = _POINT.fullmatch(text) if isinstance(text, str) else None
    if m is None:
        raise ValueError(f"not a point literal a*alpha+b: {text!r}")
    return CirclePoint(alpha, int(m.group(1)), Fraction(m.group(2)))


# ---------------------------------------------------------------------------
# experiment dispatchers: each takes (params, seed) and returns a result dict
# ---------------------------------------------------------------------------


def _circle_system(spec, verb: str):
    """The split-circle or rotation system of ``spec``; ConfigError otherwise."""
    sys_ = resolve_system(spec)
    if not isinstance(sys_, (systems.SplitCircleSystem, systems.RotationSystem)):
        raise ConfigError(f"{verb} experiment needs a split-circle or rotation system")
    return sys_


def _classification(cls) -> dict:
    """The JSON form of an ``envelope.classify`` result, points as ``a*alpha+b``."""
    return {"tag": cls.tag,
            "params": {k: (_point_str(v) if isinstance(v, CirclePoint) else str(v))
                       for k, v in cls.params.items()}}


def run_limit(params, seed):
    sys_ = _circle_system(params.get("system", "sturmian"), "limit")
    alpha = sys_.alpha
    target = _point(alpha, params.get("target", {"a": 0, "b": 0}))
    side = params.get("side", "below")
    depth = int(params.get("depth", 10))
    approach = one_sided_approach(target, side, depth)
    sample = envelope.limit_sample(
        sys_, target,
        plain_count=int(params.get("plain_count", 200)),
        split_range=int(params.get("split_range", 8)),
        horizon=int(params.get("horizon", 8)),
    )
    # a circle system has a closed-form rule for every approach: the element is exact
    element = envelope.limit_map(sys_, approach, sample)
    cls = envelope.classify(element)
    out = {
        "backend": element.backend,
        "classification": _classification(cls),
        "times": [int(t) for t in approach.times],
        "error_bounds": [str(b) for b in approach.error_bounds],
    }
    if cls.tag == "one_sided":
        # the minimal-ideal decomposition epsilon * gamma, read off the classification
        out["decomposition"] = {"epsilon": cls.params["side"],
                                "gamma": _point_str(cls.params["gamma"])}
    cert = {
        "kind": "limit",
        "system": sys_.describe(),
        "generator": {"target": _point_str(target), "side": side,
                      "times": [int(t) for t in approach.times]},
        "result": out["classification"],
        "witness": out.get("decomposition"),
    }
    return out, [cert]


def _windows(params) -> list[int]:
    """The window lengths of an independence experiment, in increasing order."""
    return sorted(int(L) for L in params.get("windows", [8, 12, 16, 20]))


def _coding_source(params) -> tuple[dict, int]:
    """The ``source`` descriptor of an independence experiment and its horizon.

    ValueError unless there are windows, each passes ``tameness.check_window`` and
    the horizon passes ``tameness.check_horizon`` for the longest; builds no word."""
    coding = params.get("coding", {"system": "sturmian"})
    if not isinstance(coding, dict):
        raise TypeError(f"coding must be an object, not {coding!r}")
    if coding.get("kind") == "full_shift":
        window = int(coding["window"])
        tameness.check_window(window)
        source, horizon = {"kind": "full_shift"}, (1 << window) + 2 * window - 1
    else:
        horizon = int(params.get("horizon", 10_000))
        if coding.get("kind") == "periodic":
            source = {"kind": "periodic", "pattern": [int(x) for x in coding["pattern"]]}
        else:
            source = resolve_system(coding.get("system", "sturmian")).describe()
    windows = _windows(params)
    if not windows:
        raise ValueError("independence windows must be a nonempty list")
    for window in windows:
        tameness.check_window(window)
    tameness.check_horizon(windows[-1], horizon)
    return source, horizon


def _source_word(source: dict, horizon: int) -> np.ndarray:
    """The read-only coding word of a certificate ``source`` over [0, horizon).

    ``run`` searches and ``verify`` re-checks the word built here.
    """
    return _word(_canonical(source), int(horizon))


# One entry: the certificates of an experiment share its source and sit together
# in a report, so a verify pass builds each word once and keeps none for the next.
@functools.lru_cache(maxsize=1)
def _word(source_json: str, horizon: int) -> np.ndarray:
    source = json.loads(source_json)
    kind = source["kind"]
    if kind == "full_shift":
        # the order-w word has 2^w + 2w - 1 symbols, so the horizon fixes w
        word = systems.full_shift_word(horizon.bit_length() - 1)
        if len(word) != horizon:
            raise ValueError(f"no full-shift word has {horizon} symbols")
    elif kind == "periodic":
        pattern = [int(x) for x in source["pattern"]]
        if not pattern or not set(pattern) <= {0, 1}:
            raise ConfigError("a periodic source needs a nonempty 0/1 pattern")
        word = np.tile(pattern, horizon // len(pattern) + 1)[:horizon]
    else:
        sys_ = systems.load_system(source)
        if isinstance(sys_, systems.SplitCircleSystem):
            word = sys_.word(sys_.orbit_pt(0, systems.PLUS), horizon)
        elif isinstance(sys_, systems.CutProjectCoding):
            word = sys_.word(horizon)
        else:
            raise ConfigError("coding source must be a split-circle or cut-project system")
    word.flags.writeable = False
    return word


def run_independence(params, seed):
    source, horizon = _coding_source(params)
    word = _source_word(source, horizon)
    budget = int(params.get("node_budget", 5_000_000))
    rows, certs = [], []
    flag = None
    for L in _windows(params):
        try:
            cert = tameness.max_independence(word, L, node_budget=budget)
        except BudgetExceeded as exc:
            cert = exc.best
            flag = f"budget exceeded at window {L}"
        rows.append(
            {"window": L, "complexity": cert.complexity, "independence": cert.size,
             "positions": list(cert.positions), "exhausted": cert.exhausted}
        )
        certs.append({"kind": "independence", "source": source, **cert.payload()})
        if flag:
            break
    growth = (tameness.growth_report({row["window"]: row for row in rows})
              if flag is None else None)
    result = {"table": rows, "source": source}
    if growth:
        result["growth"] = {"classification": growth.classification, "note": growth.note}
    if flag:
        result["flag"] = flag
        raise _Partial(result, certs)
    return result, certs


def run_rank(params, seed):
    sys_name = params.get("system", "sturmian")
    epsilons = [float(e) for e in params.get("epsilons", [0.1, 0.01])]
    rows, certs = [], []
    sys_ = None if sys_name == "boundary-f2" else resolve_system(sys_name)
    if isinstance(sys_, systems.SplitCircleSystem):
        if sys_.split != "orbit":
            # translations move a split point off any other split set
            raise ConfigError("rank experiment needs a split set that is the orbit of 0")
        horizon = int(params.get("horizon", 12))
        if horizon < 1:
            raise ConfigError("rank horizon must be at least 1")
        sample = envelope.split_sample(
            sys_, plain_count=int(params.get("plain_count", 4000)),
            split_range=int(params.get("split_range", 8)), horizon=horizon,
        )
        elements = {}
        for n in params.get("translations", [1, 3]):
            elements[f"T^{n}"] = envelope.limit_map(sys_, [int(n)], sample)
        for g in params.get("one_sided", [{"a": 0, "b": 0, "side": "below"}]):
            target = _point(sys_.alpha, g)
            ap = one_sided_approach(target, g.get("side", "below"), 10)
            elements[f"p({_point_str(target)})^{g.get('side', 'below')}"] = envelope.limit_map(
                sys_, ap, sample
            )
    elif isinstance(sys_, systems.RotationSystem):
        sample = envelope.rotation_sample(sys_, int(params.get("plain_count", 500)))
        elements = {}
        for g in params.get("rotations", [{"a": 0, "b": "1/3", "side": "above"}]):
            target = _point(sys_.alpha, g)
            ap = one_sided_approach(target, g.get("side", "above"), 8)
            elements[f"R({_point_str(target)})"] = envelope.limit_map(sys_, ap, sample)
        for n in params.get("translations", []):
            elements[f"T^{n}"] = envelope.limit_map(sys_, [int(n)], sample)
    elif sys_name == "boundary-f2":
        # word literals over a b A B (capitals are inverses)
        gamma = ReducedWord.parse(params.get("gamma", "ab"))
        depth = int(params.get("depth", 16))
        lox = power_limit(gamma, depth=depth)
        pts = boundary_sample(depth, base_length=int(params.get("base_length", 5)), lox=lox)
        pw, iw = loxodromic_rank_arrays(lox, pts)
        inst = rank.prefix_instance(pts, pw, iw)
        elements = {f"lox({gamma})": inst}
        sample = pts
    else:
        raise ConfigError(f"rank experiment does not support system {sys_name!r}")
    if not elements:
        raise ConfigError("rank experiment builds no element")
    # one set of arrays per element, shared by every epsilon
    elements = {
        name: el if isinstance(el, rank.RankInstance) else rank.build_instance(el)
        for name, el in elements.items()
    }
    for eps in epsilons:
        sr = rank.system_rank(elements, eps)
        rows.append(
            {"epsilon": eps, "beta": sr.beta, "witness": sr.witness,
             "stages": {name: t.stage_sizes() for name, t in sr.traces.items()}}
        )
        certs.append(
            {"kind": "rank", "system": sys_name, "epsilon": eps, "beta": sr.beta,
             "sample_size": len(sample),
             "generator": sr.witness,
             "schedule": list(sr.traces[sr.witness].schedule),
             "stage_sizes": sr.traces[sr.witness].stage_sizes()}
        )
    return {"table": rows, "sample_size": len(sample)}, certs


def run_fibers(params, seed):
    sys_ = resolve_system(params.get("system", "semicocycle"))
    if not isinstance(sys_, systems.SemicocycleCascade):
        raise ConfigError("fibers experiment needs a semicocycle system")
    rng = random.Random(seed)
    cards = sys_.fiber_cardinalities(int(params.get("k_max", 6)), int(params.get("depth", 20)))
    unmarked = [rng.randrange(-(10**6), 10**6) for _ in range(int(params.get("unmarked", 10)))]
    um = {j: sys_.unmarked_fiber_cardinality(j) for j in unmarked}
    return {"marked": {str(k): v for k, v in cards.items()},
            "unmarked_all_one": all(v == 1 for v in um.values()),
            "unmarked_count": len(um)}, []


def run_determine(params, seed):
    family_kind = params["family"]
    if family_kind == "discrete":
        m = int(params.get("size", 7))
        grid = [Fraction(k, m) for k in range(m)]
        fam = order.discrete_family(grid) + [order.zero_map]
        res = envelope.determining_set(fam, grid, order.zero_map)
        growth = envelope.determining_growth(
            order.discrete_family(grid), grid, order.zero_map,
            sizes=list(range(1, m + 1)),
        )
        return {"family": "discrete", "size": m, "c_size": len(res.points),
                "optimal": res.optimal, "growth": growth}, []
    if family_kind == "staircase":
        # map literal syntax: "(x; left,point,right) ..." plus a dyadic sample level
        f = order.parse_step_map(params["map"])
        res = order.helly_determining_set(f, int(params.get("sample_level", 5)))
        cert = {"kind": "helly_determining", "map": params["map"],
                "sample_size": len(res.points),
                "result": {"sound": res.sound},
                "witness": [[str(x), s] for x, s in res.points]}
        return {"family": "staircase", "c_size": len(res.points),
                "sound": res.sound}, [cert]
    raise ConfigError(f"unknown determining family {family_kind!r}")


def run_isolation(params, seed):
    count = int(params.get("count", 100))
    eps = Fraction(params.get("eps", "1/4"))
    alpha = GOLDEN
    gammas = [CirclePoint(alpha, k, Fraction(k % 29, 29)) for k in range(count)]
    diag = envelope.sorgenfrey_isolation(envelope.flipped_diagonal(gammas), eps=eps)
    dense = [((CirclePoint(alpha, 0, Fraction(k, count)), systems.PLUS),) for k in range(count)]
    single = envelope.sorgenfrey_isolation(dense, eps=eps)
    cert = {"kind": "isolation", "eps": str(eps), "count": count,
            "diagonal_isolated": diag.all_isolated,
            "single_circle_isolated": single.all_isolated,
            "gammas": [_point_str(g) for g in gammas]}
    return {"diagonal_all_isolated": diag.all_isolated,
            "single_circle_all_isolated": single.all_isolated,
            "single_circle_conflicts": sum(1 for c in single.conflicts if c is not None)}, [cert]


def run_counterexample(params, seed):
    scenario = params.get("scenario", "circle_parabolic")
    rng = random.Random(seed)
    count = int(params.get("count", 100))
    size = int(params.get("size", 50))
    sound = 0
    last = None
    for _ in range(count):
        if scenario in ("circle_parabolic", "circular_order"):
            drawn = [rng.randint(1, 997) for _ in range(size)]  # the points k/997
            w = order.circular_counterexample(drawn, 997, 0)
            last = {"differs_at" if scenario == "circle_parabolic" else "b": str(w.b)}
        elif scenario == "projective_p_infty":
            pts = [(rng.randint(-99, 99), rng.randint(-99, 99)) for _ in range(size)]
            pts = [p for p in pts if p != (0, 0)] or [(1, 0)]
            w = envelope.no_countable_basis_witness(pts, "projective_p_infty")
            last = {"line_direction": [str(x) for x in w.differs_at]}
        else:
            raise ConfigError(f"unknown scenario {scenario!r}")
        sound += 1 if w.sound else 0
    cert = {"kind": "counterexample", "scenario": scenario,
            "count": count, "size": size, "sound": sound, "example": last}
    return {"scenario": scenario, "sound": sound, "count": count}, [cert]


def run_rigidity(params, seed):
    sys_ = _circle_system(params.get("system", "rotation-sqrt2"), "rigidity")
    if isinstance(sys_, systems.RotationSystem):
        sample = envelope.rotation_sample(sys_, int(params.get("plain_count", 20)))
        ks = int(params.get("denominators", 25))
        times = [sys_.alpha.denominator(k) for k in range(1, ks + 1)]
    else:
        sample = envelope.split_sample(
            sys_, plain_count=int(params.get("plain_count", 24)),
            split_range=4, horizon=int(params.get("horizon", 6)))
        times = np.arange(1, int(params.get("max_time", 10_000)) + 1)
    rep = envelope.rigidity_probe(sys_, sample, times)
    series = [list(row) for row in zip(rep.times[:200].tolist(), rep.distances[:200].tolist())]
    return {"minimum": {"n": rep.minimum[0], "distance": rep.minimum[1]},
            "series_length": len(rep.times), "series": series}, []


def run_catalog(params, seed):
    if params:
        raise ConfigError(f"catalog takes no parameters, not {sorted(params)}")
    rows = []
    elements = []
    grid = [-1.0, 0.0, 1.0]
    for s in grid:
        for r in grid:
            m = affine_catalog_limit("jump", r=r, s=s)
            elements.append(m)
            rows.append({"kind": "jump", "r": r, "s": s, "class": m.kind})
        elements.append(affine_catalog_limit("const", s=s))
        rows.append({"kind": "const", "s": s, "class": "constant"})
    for sign in (1, -1):
        elements.append(affine_catalog_limit("const_inf", sign=sign))
        rows.append({"kind": "const_inf", "sign": sign, "class": "constant"})
    probes = [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]
    pinned = all(
        pinned_by_three(m, elements, probes) for m in elements if m.kind == "three_region"
    )
    return {"table": rows, "jump_elements_pinned_by_three": pinned}, []


DISPATCH = {
    "limit": run_limit,
    "independence": run_independence,
    "rank": run_rank,
    "fibers": run_fibers,
    "determine": run_determine,
    "isolation": run_isolation,
    "counterexample": run_counterexample,
    "rigidity": run_rigidity,
    "catalog": run_catalog,
}


class _Partial(Exception):
    """Carries a partial result for honest non-stabilization outcomes."""

    def __init__(self, result, certs):
        super().__init__("partial result")
        self.result = result
        self.certs = certs


# ---------------------------------------------------------------------------
# run / report plumbing
# ---------------------------------------------------------------------------


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _digest(obj) -> str:
    return hashlib.sha256(_canonical(obj).encode()).hexdigest()[:16]


# what reading a malformed parameter or payload field raises
_MALFORMED = (KeyError, TypeError, ValueError, ZeroDivisionError)


def _experiments(config) -> list[dict]:
    """The experiments of a config; ConfigError unless the config is an object
    with an integer seed whose experiments (or the config itself) are objects
    with a known kind, object ``params`` and positive, finite ``epsilons``."""
    if not isinstance(config, dict):
        raise ConfigError("a config must be an object")
    seed = config.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError(f"seed must be an integer, not {seed!r}")
    experiments = config["experiments"] if "experiments" in config else [config]
    if not isinstance(experiments, list) or not all(isinstance(e, dict) for e in experiments):
        raise ConfigError("experiments must be a list of objects")
    for i, exp in enumerate(experiments):
        kind, params = exp.get("kind"), exp.get("params", {})
        if not isinstance(kind, str) or kind not in DISPATCH:
            raise ConfigError(f"experiment {i}: unknown kind {kind!r}")
        with _param_errors(_exp_id(i, exp)):
            if not isinstance(params, dict):
                raise TypeError("params must be an object")
            if not all(0 < float(e) < float("inf") for e in params.get("epsilons") or ()):
                raise ValueError("epsilon must be positive and finite")
    return experiments


def _exp_id(i: int, exp: dict):
    return exp.get("id", f"{exp['kind']}-{i}")


@contextlib.contextmanager
def _param_errors(exp_id):
    """Turn a malformed parameter's error, or a ConfigError, into a ConfigError
    naming the experiment."""
    try:
        yield
    except _MALFORMED as exc:
        raise ConfigError(f"experiment {exp_id}: {type(exc).__name__}: {exc}") from exc
    except ConfigError as exc:
        raise ConfigError(f"experiment {exp_id}: {exc}") from exc


def run_config(config: dict, jobs: int = 1, seed: int | None = None) -> tuple[dict, int]:
    """Run the experiments of ``config`` in order, in the calling thread.

    ``jobs`` is ignored; it stays only for callers that still pass it."""
    experiments = _experiments(config)
    seed = config.get("seed", 0) if seed is None else seed
    started = time.time()
    results = [_run_one(_exp_id(i, exp), exp, seed) for i, exp in enumerate(experiments)]
    report = {
        "schema_version": SCHEMA_VERSION,
        "artifact_version": __version__,
        "config_digest": _digest(config),
        "seed": seed,
        "results": results,
        "wall_time_s": round(time.time() - started, 3),
    }
    return report, 0 if all(r["status"] == "ok" for r in results) else 3


def _run_one(exp_id, exp: dict, seed: int) -> dict:
    """The report entry of one experiment."""
    entry = {"id": exp_id, "kind": exp["kind"]}
    try:
        with _param_errors(exp_id):
            result, certs = DISPATCH[exp["kind"]](exp.get("params", {}), seed)
        entry.update(result=result, certificates=certs, status="ok")
    except _Partial as partial:
        entry.update(result=partial.result, certificates=partial.certs, status="not_stabilized")
    except (NotStabilized, NotStabilizedAcrossResolutions, BudgetExceeded) as exc:
        entry.update(result={"error": str(exc)}, certificates=[], status="not_stabilized")
    return entry


def report_payload(report: dict) -> dict:
    """The deterministic portion of a report (everything but the wall time)."""
    return {k: v for k, v in report.items() if k != "wall_time_s"}


# ---------------------------------------------------------------------------
# plot data
# ---------------------------------------------------------------------------

SERIES_COLUMNS = {
    "independence": ("L", "complexity", "independence"),
    "rank": ("stage", "set_size"),
    "rigidity": ("n", "sup_distance"),
}


def emit_plot_data(report: dict, series: str) -> str:
    from .errors import UnknownSeries

    if series not in SERIES_COLUMNS:
        raise UnknownSeries(f"no such series {series!r}; known: {sorted(SERIES_COLUMNS)}")
    cols = SERIES_COLUMNS[series]
    lines = [",".join(cols)]
    for entry in report.get("results", []):
        if series == "independence" and entry["kind"] == "independence":
            for row in entry["result"].get("table", []):
                lines.append(f"{row['window']},{row['complexity']},{row['independence']}")
        elif series == "rank" and entry["kind"] == "rank":
            for cert in entry.get("certificates", []):
                for stage, size in enumerate(cert.get("stage_sizes", [])):
                    lines.append(f"{stage},{size}")
        elif series == "rigidity" and entry["kind"] == "rigidity":
            for n, d in entry["result"].get("series", []):
                lines.append(f"{n},{d}")
    if len(lines) == 1:
        raise UnknownSeries(f"report contains no data for series {series!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _is_count(value) -> bool:
    """Whether a payload value is a count: a non-negative int (a JSON true is none)."""
    return type(value) is int and value >= 0


def verify_certificate(cert: dict) -> bool:
    """Re-check one certificate: False when it fails or a payload field is
    missing or malformed; ConfigError when no check exists for its kind."""
    kind = cert.get("kind")
    try:
        if kind == "independence":
            made = tameness.IndependenceCertificate.from_payload(cert)
            tameness.check_window(made.window)
            tameness.check_horizon(made.window, made.horizon)
            return made.verify(_source_word(cert["source"], made.horizon))
        if kind == "isolation":
            # Flipped-diagonal lemma.  Member g is ((g, +1), (-g, +1)), so member h
            # lies in its rectangle when both offsets, h - g and (-h) - (-g), taken
            # in [0, 1), are below eps.  With d = h - g mod 1 the second offset is
            # 1 - d, or 0 when h = g; for h != g, d < eps and 1 - d < eps sum to
            # 1 < 2 * eps, impossible for eps <= 1/2.  So the diagonal is isolated
            # iff its gammas are pairwise distinct.  The single-circle family
            # k/count (side +1) has 1/count as its smallest offset, so all its
            # members are isolated iff count * eps <= 1.  A point a*alpha + b is
            # fixed by a and by b mod 1 in lowest terms, so no CirclePoint is built
            count, eps = cert["count"], Fraction(cert["eps"])
            gammas = set()
            for m in map(_POINT.fullmatch, cert["gammas"]):  # a non-string or no match: TypeError
                a, num, den = int(m[1]), int(m[3]), int(m[4] or 1)
                cut = math.gcd(num, den)
                gammas.add((a, num // cut % (den // cut), den // cut))
            flags = (cert["diagonal_isolated"], cert["single_circle_isolated"])
            return (_is_count(count) and len(cert["gammas"]) == count
                    and 0 < eps <= Fraction(1, 2)
                    and all(abs(a) <= ARRAY_A_MAX and den < ARRAY_DEN_MAX for a, _, den in gammas)
                    and all(type(flag) is bool for flag in flags)
                    and flags == (len(gammas) == count, count * eps <= 1))
        if kind == "counterexample":
            sound, count = cert["sound"], cert["count"]
            return _is_count(sound) and _is_count(count) and sound == count
        if kind == "rank":
            # stage 0 is the whole sample and the sizes never grow; they stay
            # positive up to a last, empty stage beta >= 1, or through the
            # whole budget when beta is null; the schedule decreases.  Exact
            # types (a JSON true is no count) and C-level passes keep this
            # a few microseconds
            sizes, beta, schedule, eps = (cert["stage_sizes"], cert["beta"], cert["schedule"],
                                          cert["epsilon"])
            return (type(sizes) is list and set(map(type, sizes)) == {int}
                    and sizes[0] == cert["sample_size"]
                    and all(map(operator.ge, sizes, sizes[1:]))
                    and (sizes[-1] > 0 and len(sizes) == rank.STAGE_BUDGET + 1 if beta is None
                         else type(beta) is int and beta == len(sizes) - 1 >= 1
                         and sizes[-1] == 0 < sizes[-2])
                    and type(schedule) is list and set(map(type, schedule)) == {float}
                    and 0 < schedule[-1] and schedule[0] < math.inf
                    and all(map(operator.gt, schedule, schedule[1:]))
                    and type(eps) is float and 0 < eps < math.inf)
        if kind == "limit":
            # Closed form (Todorcevic, JAMS 1999): times n_i with n_i*alpha -> t
            # strictly from below (above) converge on a split circle to the
            # one-sided element x -> x + t, its images tagged minus (plus) wherever
            # their base splits, whose minimal-ideal decomposition is that tag
            # times t; on a rotation they converge to the rotation by t, which is
            # T^n when t = n*alpha.  So target and side fix result and witness
            sys_ = _circle_system(cert["system"], "limit")
            target = _parse_point(sys_.alpha, cert["generator"]["target"])
            gamma = _point_str(target)
            # a side other than below or above is a KeyError on every system
            epsilon = {"below": "minus", "above": "plus"}[cert["generator"]["side"]]
            if isinstance(sys_, systems.SplitCircleSystem):
                result = {"tag": "one_sided", "params": {"gamma": gamma, "side": epsilon}}
                witness = {"epsilon": epsilon, "gamma": gamma}
            elif target.on_orbit:
                result, witness = {"tag": "translation", "params": {"n": str(target.a)}}, None
            else:
                result, witness = {"tag": "rotation", "params": {"gamma": gamma}}, None
            return cert["result"] == result and cert["witness"] == witness
        if kind == "helly_determining":
            # the witness is the pin set itself: every jump of the map must be a plain pin
            f = order.parse_step_map(cert["map"])
            pins = [(Fraction(x), s) for x, s in cert["witness"]]
            if any(type(s) is not int or s not in (order.MINUS, order.PLAIN, order.PLUS)
                   or not 0 <= x <= 1 for x, s in pins):
                return False
            sound = cert["result"]["sound"]
            return (_is_count(cert["sample_size"]) and cert["sample_size"] == len(pins)
                    and type(sound) is bool and order.jumps_pinned(f, pins) == sound)
    except (ConfigError, *_MALFORMED):
        return False
    raise ConfigError(f"cannot verify certificate kind {kind!r}")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(prog="tamecert", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", type=Path)
    p_run.add_argument("--out", type=Path, default=None)
    p_run.add_argument("--seed", type=int, default=None)

    p_plot = sub.add_parser("plot", help="emit CSV plot data from a report")
    p_plot.add_argument("report", type=Path)
    p_plot.add_argument("series")
    p_plot.add_argument("--out", type=Path, default=None)

    sub.add_parser("list-systems", help="print the named system registry")

    p_verify = sub.add_parser("verify", help="re-check a certificate file")
    p_verify.add_argument("certificate", type=Path)

    args = parser.parse_args(argv)

    if args.verb == "list-systems":
        for name, spec in sorted(NAMED_SYSTEMS.items()):
            print(f"{name}: {_canonical(spec)}")
        return 0

    if args.verb == "run":
        try:
            config = json.loads(args.config.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        try:
            report, code = run_config(config, seed=args.seed)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        out = args.out or args.config.with_suffix(".report.json")
        out.write_text(json.dumps(report, sort_keys=True, indent=1) + "\n")
        print(f"report written to {out}")
        return code

    if args.verb == "plot":
        from .errors import UnknownSeries

        try:
            report = json.loads(args.report.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"report error: {exc}", file=sys.stderr)
            return 2
        try:
            csv = emit_plot_data(report, args.series)
        except UnknownSeries as exc:
            print(f"unknown series: {exc}", file=sys.stderr)
            return 2
        except (AttributeError, KeyError, TypeError) as exc:
            # emit_plot_data only reads the report, so these are a report of the wrong shape
            print(f"report error: malformed report ({type(exc).__name__}: {exc})", file=sys.stderr)
            return 2
        if args.out:
            args.out.write_text(csv)
            print(f"csv written to {args.out}")
        else:
            print(csv, end="")
        return 0

    if args.verb == "verify":
        try:
            data = json.loads(args.certificate.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"certificate error: {exc}", file=sys.stderr)
            return 2
        certs = data if isinstance(data, list) else [data]
        if isinstance(data, dict) and "results" in data:
            if data.get("schema_version") != SCHEMA_VERSION:
                print(f"unsupported schema_version {data.get('schema_version')}", file=sys.stderr)
                return 2
            certs = [c for entry in data["results"] for c in entry.get("certificates", [])]
        ok = True
        for cert in certs:
            good = verify_certificate(cert)
            print(f"{cert.get('kind')}: {'ok' if good else 'FAILED'}")
            ok = ok and good
        return 0 if ok else 1

    return 2


if __name__ == "__main__":
    sys.exit(main())

import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tamecert._kernels as K
from tamecert import cli, envelope, rank, systems, tameness
from tamecert.cli import (
    NAMED_SYSTEMS,
    SCHEMA_VERSION,
    _coding_source,
    _parse_point,
    _point_str,
    _source_word,
    emit_plot_data,
    main,
    run_config,
    verify_certificate,
)
from tamecert.errors import ConfigError, UnknownSeries
from tamecert.exactarith import GOLDEN, CirclePoint, one_sided_approach
from tests.test_acceptance import ACCEPTANCE_BATCH
from tests.test_payload_digests import CONFIGS


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


SMALL_BATCH = {
    "seed": 3,
    "experiments": [
        {"kind": "limit", "id": "lim",
         "params": {"system": "sturmian", "target": {"a": 1, "b": 0}, "side": "above",
                    "plain_count": 40, "split_range": 4}},
        {"kind": "independence", "id": "ind",
         "params": {"coding": {"system": "sturmian"}, "horizon": 2000, "windows": [6, 9]}},
        {"kind": "isolation", "id": "iso", "params": {"count": 20}},
        {"kind": "counterexample", "id": "cex",
         "params": {"scenario": "projective_p_infty", "count": 5, "size": 10}},
        {"kind": "rigidity", "id": "rig",
         "params": {"system": "rotation-sqrt2", "denominators": 15}},
    ],
}


class TestRunConfig:
    def test_report_shape_and_exit(self):
        report, code = run_config(SMALL_BATCH)
        assert code == 0
        assert report["schema_version"] == 2
        assert report["seed"] == 3
        assert len(report["results"]) == 5
        assert all(r["status"] == "ok" for r in report["results"])

    def test_independence_searches_each_window_once(self, monkeypatch):
        calls = []
        search = tameness.max_independence

        def counted(word, window, **kwargs):
            calls.append(window)
            return search(word, window, **kwargs)

        monkeypatch.setattr(tameness, "max_independence", counted)
        params = {"coding": {"system": "sturmian"}, "horizon": 2000, "windows": [12, 6, 9],
                  "node_budget": 10_000_000}
        report, code = run_config({"experiments": [{"kind": "independence", "params": params}]})
        assert code == 0
        assert calls == [6, 9, 12]
        result = report["results"][0]["result"]
        assert result["growth"]["classification"] == "bounded_log"
        word = _source_word(*_coding_source(params))
        for row in result["table"]:
            L = row["window"]
            assert row["complexity"] == tameness.complexity(word, L)[L]

    def test_rank_builds_each_instance_once(self, monkeypatch):
        calls = []
        build = rank.build_instance

        def counted(p):
            calls.append(p)
            return build(p)

        monkeypatch.setattr(rank, "build_instance", counted)

        def rows(epsilons):
            params = {"system": "sturmian", "plain_count": 300, "split_range": 4,
                      "horizon": 10, "epsilons": epsilons}
            report, code = run_config({"experiments": [{"kind": "rank", "params": params}]})
            assert code == 0
            return report["results"][0]["result"]["table"]

        both = rows([0.1, 0.05])
        assert len(calls) == 3  # T^1, T^3 and the one-sided limit, each built once
        assert len({id(p) for p in calls}) == 3
        assert both == rows([0.1]) + rows([0.05])

    def test_rank_words_walk_once_per_cell(self, monkeypatch):
        walks, hits = [], []
        coding_word = systems.SplitCircleSystem.coding_word
        metric_word = envelope.CodingMetric.word

        def counted_walk(system, x, n0, n1):
            walks.append(x)
            return coding_word(system, x, n0, n1)

        def counted_word(metric, x):
            hits.append(x in metric._words)
            return metric_word(metric, x)

        monkeypatch.setattr(systems.SplitCircleSystem, "coding_word", counted_walk)
        monkeypatch.setattr(envelope.CodingMetric, "word", counted_word)
        params = {"system": "sturmian", "plain_count": 2000, "epsilons": [0.1]}
        report, code = run_config({"experiments": [{"kind": "rank", "params": params}]})
        assert code == 0
        size = report["results"][0]["result"]["sample_size"]
        # one walk per sample point and per image for each of the three elements
        # would be 2 * 3 * size; one walk per cell is a small fraction of it
        assert 0 < len(walks) < 0.1 * 2 * 3 * size
        assert any(hits)  # later elements reuse the walks of the shared sample

    @pytest.mark.parametrize("horizon", [0, -3])
    def test_rank_horizon_below_one_rejected(self, tmp_path, capsys, horizon):
        params = {"system": "sturmian", "plain_count": 50, "horizon": horizon}
        config = {"experiments": [{"kind": "rank", "params": params}]}
        with pytest.raises(ConfigError, match="horizon"):
            run_config(config)
        assert main(["run", str(write_config(tmp_path, config))]) == 2
        assert f"config error: experiment rank-0: ValueError: horizon: {horizon} is below 1" in capsys.readouterr().err

    @pytest.mark.parametrize("coding, horizon, windows", [
        ({"system": "sturmian"}, 0, [4]),
        ({"system": "sturmian"}, -5, [4]),
        ({"system": "sturmian"}, 39, [4]),  # one symbol short of 10x the window
        ({"system": "cantor6"}, tameness.MAX_HORIZON + 1, [4]),
        ({"kind": "periodic", "pattern": [0, 1]}, 2**40, [4]),
        ({"kind": "full_shift", "window": 3}, None, [4]),  # 13 symbols
        ({"kind": "full_shift", "window": 25}, None, [4]),
        ({"system": "sturmian"}, 2000, []),
        ({"system": "sturmian"}, 2000, [25]),
    ])
    def test_independence_horizon_out_of_range_rejected(self, tmp_path, capsys, monkeypatch,
                                                        coding, horizon, windows):
        def no_word(*args):
            raise AssertionError("a word was built")

        monkeypatch.setattr(cli, "_source_word", no_word)
        params = {"coding": coding, "windows": windows}
        if horizon is not None:
            params["horizon"] = horizon
        config = {"experiments": [{"kind": "independence", "params": params}]}
        with pytest.raises(ConfigError):
            run_config(config)
        assert main(["run", str(write_config(tmp_path, config))]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("params", [
        {"system": "sturmian", "plain_count": 50, "translations": [], "one_sided": []},
        {"system": "rotation", "plain_count": 50, "rotations": []},
    ])
    def test_rank_without_elements_rejected(self, params):
        with pytest.raises(ConfigError, match="no element"):
            run_config({"experiments": [{"kind": "rank", "params": params}]})

    @pytest.mark.parametrize("system", ["semicocycle", "cantor6"])
    def test_limit_on_unsupported_system_rejected(self, tmp_path, capsys, system):
        config = {"experiments": [{"kind": "limit", "params": {"system": system}}]}
        with pytest.raises(ConfigError, match="split-circle or rotation"):
            run_config(config)
        assert main(["run", str(write_config(tmp_path, config))]) == 2
        assert "config error: experiment limit-0: limit experiment" in capsys.readouterr().err

    def test_rank_on_rationals_split_rejected(self, tmp_path, capsys, monkeypatch):
        # the sample would keep only 0- and 0+ (every plain k/(n+1) splits), and
        # the translations would tag unsplit bases: reject before any sample
        def no_sample(*args, **kwargs):
            raise AssertionError("a sample was built")

        monkeypatch.setattr(envelope, "split_sample", no_sample)
        config = {"experiments": [{"kind": "rank", "params": {"system": "rationals-split"}}]}
        with pytest.raises(ConfigError, match="orbit of 0"):
            run_config(config)
        assert main(["run", str(write_config(tmp_path, config))]) == 2
        assert "config error: experiment rank-0: rank experiment" in capsys.readouterr().err

    @pytest.mark.parametrize("system", ["semicocycle", "cantor6"])
    def test_rigidity_on_unsupported_system_rejected(self, tmp_path, capsys, system):
        config = {"experiments": [{"kind": "rigidity", "params": {"system": system}}]}
        with pytest.raises(ConfigError, match="rows: rigidity/rotation, rigidity/split_circle"):
            run_config(config)
        assert main(["run", str(write_config(tmp_path, config))]) == 2
        assert "config error: experiment rigidity-0: rigidity experiment does not support system" in (
            capsys.readouterr().err)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            run_config({"experiments": [{"kind": "nonsense"}]})

    def test_non_binary_periodic_pattern_rejected(self):
        for pattern in ([], [0, 2, 1]):
            params = {"coding": {"kind": "periodic", "pattern": pattern}, "windows": [4]}
            with pytest.raises(ConfigError):
                run_config({"experiments": [{"kind": "independence", "params": params}]})

    def test_invalid_epsilon_rejected(self):
        with pytest.raises(ConfigError):
            run_config({"experiments": [{"kind": "rank", "params": {"epsilons": [-1]}}]})

    def test_budget_path_partial_report(self):
        config = {"experiments": [{
            "kind": "independence",
            # a full shift needs no search, so the budget is spent on a word that searches
            "params": {"coding": {"system": "cantor6"}, "windows": [12], "node_budget": 4},
        }]}
        report, code = run_config(config)
        assert code == 3
        entry = report["results"][0]
        assert entry["status"] == "not_stabilized"
        assert "budget" in entry["result"]["flag"]
        assert entry["certificates"]  # best-found certificate still attached

    def test_fibers_depth_too_small_keeps_the_report(self):
        config = {"experiments": [{"kind": "fibers", "id": "f", "params": {"depth": 5}},
                                  {"kind": "catalog", "id": "cat"}]}
        report, code = run_config(config)
        assert code == 3
        fibers, catalog = report["results"]
        assert fibers["status"] == "not_stabilized" and fibers["certificates"] == []
        assert "depth 5" in fibers["result"]["error"]
        assert catalog["status"] == "ok" and catalog["result"]["table"]

    def test_coding_system_built_once_per_experiment(self, monkeypatch):
        built = []
        init = systems.CutProjectCoding.__init__
        monkeypatch.setattr(systems.CutProjectCoding, "__init__",
                            lambda self, *a, **k: built.append(init(self, *a, **k)))
        monkeypatch.setattr(cli, "_BUILT", {})
        cli._word.cache_clear()
        params = {"coding": {"system": "cantor6"}, "horizon": 2000, "windows": [6, 8]}
        report, code = run_config({"experiments": [
            {"kind": "independence", "params": params},
            {"kind": "independence", "params": {**params, "coding": {"system": "sturmian"}}}]})
        assert code == 0 and len(built) == 1  # the check, the source and the word share it
        assert all(verify_certificate(c) for c in report["results"][0]["certificates"])
        assert len(built) == 1


class TestCliMain:
    def test_run_and_plot_and_verify(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_BATCH)
        out = tmp_path / "report.json"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["config_digest"]

        csv_path = tmp_path / "ind.csv"
        assert main(["plot", str(out), "independence", "--out", str(csv_path)]) == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "L,complexity,independence"
        assert len(lines) == 3

        assert main(["plot", str(out), "nope"]) == 2
        assert main(["verify", str(out)]) == 0

    def test_smoke_config_runs_and_verifies(self, tmp_path, capsys):
        # the config CI also runs through the installed console script
        smoke = Path(__file__).with_name("smoke.json")
        out = tmp_path / "smoke.report.json"
        assert main(["run", str(smoke), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert all(entry["status"] == "ok" for entry in report["results"])
        capsys.readouterr()
        assert main(["verify", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == sum(len(e["certificates"]) for e in report["results"])
        assert all(line.endswith(": ok") for line in lines)

    def test_smoke_kernels_take_positional_arguments(self, monkeypatch):
        # a benchmark tracer wraps each kernel as ``def wrapper(*args)``: a
        # keyword kernel call must fail here, not only in a traced run
        calls = {}

        def positional(name, fn):
            def wrapper(*args):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args)
            return wrapper

        kernels = {"ball_bounds", "distinct_projection_count", "extract_factors",
                   "project_masks", "window_oscillation"}
        for name in kernels:
            monkeypatch.setattr(K, name, positional(name, getattr(K, name)))
        smoke = json.loads(Path(__file__).with_name("smoke.json").read_text())
        smoke["experiments"] = [e for e in smoke["experiments"]
                                if e["kind"] in ("rank", "independence")]
        assert len(smoke["experiments"]) == 4
        report, code = run_config(smoke)
        assert code == 0 and all(e["status"] == "ok" for e in report["results"])
        assert all(verify_certificate(c) for e in report["results"] for c in e["certificates"])
        assert set(calls) == kernels

    def test_exit_2_on_bad_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", str(bad)]) == 2
        cfg = write_config(tmp_path, {"experiments": [{"kind": "bogus"}]})
        assert main(["run", str(cfg)]) == 2

    def test_nonpositive_epsilon_exit_2_no_report(self, tmp_path):
        cfg = write_config(tmp_path, {"experiments": [
            {"kind": "rank", "params": {"epsilons": [0]}}]})
        out = tmp_path / "never.json"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("config, message", [
        ([1, 2], "a config must be an object"),
        ({"experiments": [1]}, "experiments must be a list of objects"),
        ({"experiments": {"kind": "catalog"}}, "experiments must be a list of objects"),
        ({"experiments": [{"kind": ["catalog"]}]}, "experiment 0: unknown kind ['catalog']"),
        ({"experiments": [{"kind": "catalog", "params": []}]},
         "experiment catalog-0: TypeError: params must be an object"),
        ({"seed": "abc", "experiments": [{"kind": "catalog"}]}, "seed must be an integer"),
        ({"experiments": [{"kind": "limit", "id": "lim", "params": {"depth": "x"}}]},
         "experiment lim: TypeError: depth: 'x' is not an integer"),
        ({"experiments": [{"kind": "limit", "id": "lim", "params": {"depth": None}}]},
         "experiment lim: TypeError"),
        ({"experiments": [{"kind": "rank", "id": "rk", "params": {"epsilons": ["x"]}}]},
         "experiment rk: TypeError: epsilons: 'x' is not an integer or a number"),
        ({"experiments": [{"kind": "rank", "id": "rk", "params": {"epsilons": [float("nan")]}}]},
         "experiment rk: ValueError: epsilons: an epsilon must be positive and finite, not nan"),
        ({"experiments": [{"kind": "limit", "id": "lim",
                           "params": {"target": {"a": 0, "b": "1/0"}}}]},
         "experiment lim: ZeroDivisionError"),
        ({"experiments": [{"kind": "determine", "params": {"family": "staircase"}}]},
         "experiment determine-0: KeyError: 'map'"),
        # entries read as objects that are not objects
        ({"experiments": [{"kind": "limit", "id": "lim", "params": {"target": 5}}]},
         "experiment lim: TypeError: target: 5 is not an object"),
        ({"experiments": [{"kind": "independence", "id": "ind", "params": {"coding": 5}}]},
         "experiment ind: TypeError: coding must be an object, not 5"),
        ({"experiments": [{"kind": "rank", "id": "rk", "params": {"one_sided": [5]}}]},
         "experiment rk: TypeError: one_sided: 5 is not an object"),
        ({"experiments": [{"kind": "rank", "id": "rk",
                           "params": {"system": "rotation", "rotations": ["1/3"]}}]},
         "experiment rk: TypeError: rotations: '1/3' is not an object"),
        # a step map that leaves [0, 1]
        ({"experiments": [{"kind": "determine", "id": "det",
                           "params": {"family": "staircase", "map": "(1/2; 1,1,2)"}}]},
         "experiment det: ValueError: map values must lie in [0,1]"),
        # a word gamma is read only by the free-group boundary system
        ({"experiments": [{"kind": "rank", "id": "rk",
                           "params": {"system": "semicocycle", "gamma": "ab"}}]},
         "rank experiment does not support system 'semicocycle'"),
        # a system or a family the kind does not take
        ({"experiments": [{"kind": "fibers", "id": "fib", "params": {"system": "sturmian"}}]},
         "experiment fib: fibers experiment does not support system 'split_circle'"),
        ({"experiments": [{"kind": "determine", "id": "det", "params": {"size": 5}}]},
         "experiment det: KeyError: 'family'"),
        ({"experiments": [{"kind": "determine", "id": "det", "params": {"family": "rotation"}}]},
         "experiment det: determine experiment does not support family 'rotation'"),
        # 2^17 + 1 pins: a sample level is bounded before any pin is built
        ({"experiments": [{"kind": "determine", "id": "det", "params": {
            "family": "staircase", "map": "(1/2; 0,1/2,1)", "sample_level": 17}}]},
         "experiment det: ValueError: sample_level must lie in 0..16, not 17"),
        # the catalog reads no parameter, so any parameter is refused
        ({"experiments": [{"kind": "catalog", "id": "cat", "params": {"grid": [5.0]}}]},
         "experiment cat: unknown key 'grid' (known: none)"),
        # text outside the map literals
        ({"experiments": [{"kind": "determine", "id": "det",
                           "params": {"family": "staircase", "map": "(1/2; 0,1/2,1) junk"}}]},
         "experiment det: ValueError: not a sequence of map literals"),
    ])
    def test_malformed_config_exit_2(self, tmp_path, capsys, config, message):
        out = tmp_path / "never.json"
        assert main(["run", str(write_config(tmp_path, config)), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err, err
        assert "Traceback" not in err and not out.exists()
        with pytest.raises(ConfigError):
            run_config(config)

    @pytest.mark.parametrize("seed", [3, 5])
    @pytest.mark.parametrize("scenario", ["circle_parabolic", "circular_order",
                                          "projective_p_infty"])
    def test_counterexample_scenarios_run_and_verify(self, tmp_path, scenario, seed):
        # at seed 3, three circular_order draws put 997/997 = 0, the target, in the set
        cfg = write_config(tmp_path, {"seed": seed, "experiments": [
            {"kind": "counterexample", "params": {"scenario": scenario}}]})
        out = tmp_path / "report.json"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        result = json.loads(out.read_text())["results"][0]["result"]
        assert result["sound"] == result["count"] == 100
        assert main(["verify", str(out)]) == 0
        # sound and count are non-negative integers (a JSON true is no count)
        cert = json.loads(out.read_text())["results"][0]["certificates"][0]
        for sound, count in (("100", 100), (100, 100.0), ("20", 20.7), (True, 1), (-3, -3)):
            assert not verify_certificate(dict(cert, sound=sound, count=count)), (sound, count)

    def test_list_systems(self, capsys):
        assert main(["list-systems"]) == 0
        out = capsys.readouterr().out
        for name in NAMED_SYSTEMS:
            assert name in out

    def test_seed_override_changes_digest_not_schema(self, tmp_path):
        cfg = write_config(tmp_path, {"seed": 1, "experiments": [
            {"kind": "counterexample", "params": {"scenario": "circle_parabolic",
                                                  "count": 3, "size": 5}}]})
        out = tmp_path / "r.json"
        assert main(["run", str(cfg), "--out", str(out), "--seed", "9"]) == 0
        report = json.loads(out.read_text())
        assert report["seed"] == 9

    def test_jobs_flag_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_BATCH)
        with pytest.raises(SystemExit) as exc:
            main(["run", str(cfg), "--jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    def test_plot_input_errors_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        malformed = []
        for i, report in enumerate(([], {"results": [{"result": {"table": []}}]},
                                    {"results": [{"kind": "independence"}]},
                                    {"results": {"kind": "independence"}})):
            malformed.append(tmp_path / f"malformed{i}.json")
            malformed[-1].write_text(json.dumps(report))
        for path in (tmp_path / "missing.json", bad, *malformed):
            capsys.readouterr()
            assert main(["plot", str(path), "independence"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("report error: ") and "Traceback" not in err

    def test_run_imports_no_thread_pool_rng_or_masked_arrays(self):
        # a fresh interpreter, so modules loaded by other tests do not count;
        # dataclasses would mean record classes generated by exec at start-up,
        # and argparse is needed only by the console script's main
        from tests.test_acceptance import ACCEPTANCE_BATCH

        config = dict(ACCEPTANCE_BATCH, experiments=ACCEPTANCE_BATCH["experiments"] + [
            {"kind": "rank", "params": {"system": "rotation", "plain_count": 500,
                                        "epsilons": [0.1]}}])
        script = (
            "import json, sys\n"
            "from tamecert.cli import run_config\n"
            "report, code = run_config(json.load(sys.stdin))\n"
            "assert code == 0, code\n"
            "print(json.dumps(sorted({'concurrent.futures', 'numpy.random', 'numpy.ma',"
            " 'dataclasses', 'argparse'} & set(sys.modules))))\n"
        )
        src = str(Path(cli.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        done = subprocess.run([sys.executable, "-c", script], input=json.dumps(config),
                              capture_output=True, text=True, env=env, timeout=300)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == []


class TestPlotSeries:
    def test_rank_series_and_beta(self):
        report, code = run_config({"experiments": [
            {"kind": "rank", "params": {"system": "sturmian", "plain_count": 1500,
                                        "epsilons": [0.05], "translations": [1],
                                        "one_sided": [{"a": 0, "b": 0, "side": "below"}]}}]})
        assert code == 0
        assert report["results"][0]["result"]["table"][0]["beta"] == 2
        csv = emit_plot_data(report, "rank")
        assert csv.splitlines()[0] == "stage,set_size"
        assert len(csv.splitlines()) >= 3

    def test_boundary_family_and_matrix_literals(self):
        report, code = run_config({"experiments": [
            {"kind": "rank", "params": {"system": "boundary-f2", "gamma": "ab",
                                        "depth": 12, "base_length": 4, "epsilons": [0.05]}},
        ]})
        assert code == 0
        assert report["results"][0]["result"]["table"][0]["beta"] == 2

    def test_rigidity_plot_writes_one_row_per_series_entry(self, tmp_path, capsys):
        report, code = run_config({"experiments": [
            {"kind": "rigidity", "params": {"system": "rotation-sqrt2", "denominators": 8}}]})
        assert code == 0
        series = report["results"][0]["result"]["series"]
        assert len(series) == 8
        path = write_config(tmp_path, report, "report.json")
        capsys.readouterr()
        assert main(["plot", str(path), "rigidity"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["n,sup_distance"] + [f"{n},{d}" for n, d in series]

    def test_unknown_series_raises(self):
        with pytest.raises(UnknownSeries):
            emit_plot_data({"results": []}, "independence")


# literals with repeats, two spellings of one point (1/3 and 4/3) and members
# exactly 1/2 apart (b = 0 and b = 1/2)
ISOLATION_POOL = [f"{a}*alpha+{b}" for a in (-1, 0, 2) for b in ("0", "1/2", "1/3", "4/3", "-3/4")]


class TestVerify:
    def test_tampered_independence_fails(self, tmp_path):
        report, _ = run_config({"experiments": [
            {"kind": "independence",
             "params": {"coding": {"system": "sturmian"}, "horizon": 2000, "windows": [8]}}]})
        cert = report["results"][0]["certificates"][0]
        assert cert["positions"] == [0, 2] and verify_certificate(cert)
        # [0, 2, 5] needs all 8 patterns among the 9 Sturmian factors of length 8;
        # they show fewer
        cert_bad = dict(cert, positions=[0, 2, 5])
        assert not verify_certificate(cert_bad)
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps([cert_bad]))
        assert main(["verify", str(bad_path)]) == 1

    def test_each_independence_field_is_checked(self):
        report, _ = run_config({"experiments": [
            {"kind": "independence",
             "params": {"coding": {"system": "sturmian"}, "horizon": 2000, "windows": [8]}}]})
        cert = report["results"][0]["certificates"][0]
        assert cert["positions"] == [0, 2] and verify_certificate(cert)
        tampered = {
            "unshattered": dict(cert, positions=[0, 1]),
            "unsorted": dict(cert, positions=[2, 0]),
            "duplicated": dict(cert, positions=[0, 0]),
            "at window": dict(cert, positions=[0, 8]),
            "true": dict(cert, positions=[True, 3]),  # [1, 3] would verify
            "horizon": dict(cert, horizon=10),  # ten symbols show too few factors
        }
        for name, bad in tampered.items():
            assert not verify_certificate(bad), name
        # verify checks the claim that the word shatters the positions, not that
        # they are the search's maximum, so other sets the word shatters verify
        assert verify_certificate(dict(cert, positions=[1, 3]))
        assert verify_certificate(dict(cert, window=9))

    def test_swapped_full_shift_witnesses_fail(self):
        report, _ = run_config({"experiments": [
            {"kind": "independence",
             "params": {"coding": {"kind": "full_shift", "window": 10}, "windows": [10]}}]})
        full = report["results"][0]["certificates"][0]
        assert full["positions"] == list(range(10)) and verify_certificate(full)
        # the full shift shatters every set, so only the shape can be wrong
        assert not verify_certificate(dict(full, positions=[1, 0, *range(2, 10)]))
        assert not verify_certificate(dict(full, positions=list(range(11))))

    def test_old_witnesses_field_is_ignored(self):
        report, _ = run_config({"experiments": [
            {"kind": "independence",
             "params": {"coding": {"system": "sturmian"}, "horizon": 2000, "windows": [8]}}]})
        cert = report["results"][0]["certificates"][0]
        assert set(cert) == {"kind", "source", "window", "horizon", "positions", "exhausted"}
        # the same certificate as a schema-2 report written before the list
        # was dropped: the smallest factor of each pattern, as base64 uint32
        old = dict(cert, witnesses="WgAAAFsAAAC2AAAAbQAAAA==")
        assert verify_certificate(old)
        assert not verify_certificate(dict(old, positions=[0, 1]))

    def test_horizon_above_bound_fails_before_any_word(self, monkeypatch):
        report, _ = run_config({"experiments": [
            {"kind": "independence",
             "params": {"coding": {"system": "sturmian"}, "horizon": 2000, "windows": [6]}}]})
        cert = report["results"][0]["certificates"][0]
        assert verify_certificate(cert)

        def no_word(*args):
            raise AssertionError("a word was built")

        monkeypatch.setattr(cli, "_source_word", no_word)
        for horizon in (tameness.MAX_HORIZON + 1, 2**40):
            assert not verify_certificate(dict(cert, horizon=horizon))

    def test_horizon_below_ten_windows_fails_before_any_word(self, monkeypatch):
        report, _ = run_config({"experiments": [
            {"kind": "independence",
             "params": {"coding": {"system": "sturmian"}, "horizon": 2000, "windows": [6]}}]})
        cert = report["results"][0]["certificates"][0]
        assert cert["window"] == 6
        # run's range is 10 x window .. MAX_HORIZON; inside it a longer word
        # shows the same factors, so an upward tamper still verifies
        for horizon in (60, 2000, 5000):
            assert verify_certificate(dict(cert, horizon=horizon)), horizon

        def no_word(*args):
            raise AssertionError("a word was built")

        monkeypatch.setattr(cli, "_source_word", no_word)
        for horizon in (20, 30, 40, 59):
            assert not verify_certificate(dict(cert, horizon=horizon)), horizon

    def test_verify_rejects_other_schema_versions(self, tmp_path, capsys):
        report, _ = run_config({"experiments": [
            {"kind": "independence",
             "params": {"coding": {"system": "sturmian"}, "horizon": 2000, "windows": [6]}}]})
        path = tmp_path / "report.json"
        unversioned = {k: v for k, v in report.items() if k != "schema_version"}
        capsys.readouterr()
        for data, code in ((report, 0), (dict(report, schema_version=1), 2), (unversioned, 2)):
            path.write_text(json.dumps(data))
            assert main(["verify", str(path)]) == code
            out, err = capsys.readouterr()
            if code:
                assert (out, err) == ("", f"unsupported schema_version {data.get('schema_version')}\n")
            else:
                assert out.splitlines() == ["independence: ok"]
        path.write_text("{not json")
        assert main(["verify", str(path)]) == 2
        assert capsys.readouterr().err.startswith("certificate error: ")
        # a bare list of certificates carries no schema field and is verified as is
        path.write_text(json.dumps(report["results"][0]["certificates"]))
        assert main(["verify", str(path)]) == 0
        assert capsys.readouterr().out.splitlines() == ["independence: ok"]

    def test_full_shift_report_stays_compact(self):
        report, code = run_config({"experiments": [
            {"kind": "independence",
             "params": {"coding": {"kind": "full_shift", "window": 18}, "windows": [18]}}]})
        assert code == 0
        assert len(json.dumps(report, sort_keys=True, indent=1).encode()) < 20_000
        cert = report["results"][0]["certificates"][0]
        assert cert["positions"] == list(range(18)) and verify_certificate(cert)

    @pytest.mark.parametrize("side, epsilon", [("below", "minus"), ("above", "plus")])
    def test_limit_decomposition_matches_decompose_minimal(self, side, epsilon):
        params = {"system": "sturmian", "target": {"a": 1, "b": "1/5"}, "side": side, "depth": 12}
        out, _ = cli.DISPATCH["limit"](params, 0)
        sys_ = cli.resolve_system("sturmian")
        target = CirclePoint(sys_.alpha, 1, Fraction(1, 5))
        sample = envelope.limit_sample(sys_, target, plain_count=200, split_range=8, horizon=8)
        element = envelope.limit_map(sys_, one_sided_approach(target, side, 12), sample)
        dec = envelope.decompose_minimal(element)
        assert dec.epsilon == epsilon
        assert out["decomposition"] == {"epsilon": dec.epsilon, "gamma": _point_str(dec.gamma)}

    def test_rotation_limit_round_trip(self):
        report, code = run_config({"experiments": [
            {"kind": "limit", "params": {"system": "rotation", "target": {"a": 3, "b": 0},
                                         "side": "above", "depth": 10, "plain_count": 40}}]})
        assert code == 0
        cert = report["results"][0]["certificates"][0]
        assert cert["system"]["kind"] == "rotation"
        assert cert["result"] == {"tag": "translation", "params": {"n": "3"}}
        assert verify_certificate(cert)
        assert not verify_certificate(dict(cert, result={"tag": "one_sided", "params": {}}))
        moved = {"tag": "translation", "params": {"n": "2"}}
        assert not verify_certificate(dict(cert, result=moved))
        # T^3 is the limit from either side, so a flipped side still verifies
        assert verify_certificate(dict(cert, generator=dict(cert["generator"], side="below")))
        # a limit certificate on a system no limit experiment handles fails
        for name in ("semicocycle", "cantor6"):
            assert not verify_certificate(dict(cert, system=NAMED_SYSTEMS[name]))

    def test_limit_result_and_side_are_checked(self, tmp_path, capsys):
        report, code = run_config({"experiments": [
            {"kind": "limit", "params": {"system": "sturmian", "target": {"a": 1, "b": "1/5"},
                                         "side": "above", "depth": 12, "plain_count": 40}}]})
        assert code == 0
        cert = report["results"][0]["certificates"][0]
        assert cert["result"] == {"tag": "one_sided",
                                  "params": {"gamma": "1*alpha+1/5", "side": "plus"}}
        assert verify_certificate(cert)
        moved = dict(cert["result"], params=dict(cert["result"]["params"], gamma="1*alpha+1/6"))
        flipped = dict(cert["generator"], side="below")
        bad = [dict(cert, result=moved), dict(cert, generator=flipped)]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        capsys.readouterr()
        assert main(["verify", str(path)]) == 1
        assert capsys.readouterr().out.splitlines() == ["limit: FAILED", "limit: FAILED"]

    def test_limit_witness_and_side_are_checked(self):
        report, code = run_config({"experiments": [
            {"kind": "limit", "params": {"system": "sturmian", "target": {"a": 0, "b": "1/3"},
                                         "side": "below", "depth": 8, "plain_count": 40}},
            {"kind": "limit", "params": {"system": "rotation", "target": {"a": 3, "b": 0},
                                         "side": "above", "depth": 8, "plain_count": 40}}]})
        lim, rot = (entry["certificates"][0] for entry in report["results"])
        assert code == 0 and lim["witness"] == {"epsilon": "minus", "gamma": "0*alpha+1/3"}
        assert rot["witness"] is None and verify_certificate(lim) and verify_certificate(rot)
        bad = [dict(lim, witness={"epsilon": "above", "gamma": "junk"}),
               dict(lim, witness=dict(lim["witness"], gamma="0*alpha+1/4")),
               dict(lim, witness=dict(lim["witness"], epsilon="plus")),
               dict(lim, witness=None),
               {k: v for k, v in lim.items() if k != "witness"},
               dict(rot, witness={"epsilon": "plus", "gamma": "3*alpha+0"}),
               dict(rot, generator=dict(rot["generator"], side="sideways")),
               dict(lim, generator=dict(lim["generator"], side="sideways"))]
        assert not any(verify_certificate(cert) for cert in bad)

    @pytest.mark.parametrize("side", ["below", "above"])
    @pytest.mark.parametrize("system", ["sturmian", "sturmian-sqrt2", "rationals-split",
                                        "rotation", "rotation-sqrt2"])
    def test_limit_closed_form_matches_run(self, system, side):
        # verify's closed form against run_limit's sampled classification: the
        # certificate verifies, and the other side does too only on a rotation
        for a, b in [(-3, "5/4"), (0, "0"), (0, "1/2"), (1, "3/29"), (2, "-2/7")]:
            _, [cert] = cli.DISPATCH["limit"]({"system": system, "target": {"a": a, "b": b},
                                               "side": side, "depth": 6, "plain_count": 40,
                                               "split_range": 4}, 0)
            assert verify_certificate(cert), (a, b)
            other = dict(cert["generator"], side="above" if side == "below" else "below")
            assert verify_certificate(dict(cert, generator=other)) == system.startswith("rot")

    def test_verify_calls_no_envelope_function(self, monkeypatch):
        configs = [json.loads(Path(__file__).with_name("smoke.json").read_text()),
                   ACCEPTANCE_BATCH, {"seed": 3, "experiments": CONFIGS["circle-witnesses"]}]
        certs = [cert for config in configs for entry in run_config(config)[0]["results"]
                 for cert in entry["certificates"]]
        assert {"limit", "isolation"} <= {cert["kind"] for cert in certs}

        def refuse(*args, **kwargs):
            raise AssertionError("verify entered the envelope")

        for name in ("limit_sample", "limit_map", "classify", "flipped_diagonal",
                     "sorgenfrey_isolation"):
            monkeypatch.setattr(envelope, name, refuse)
        assert all(verify_certificate(cert) for cert in certs)

    def test_off_orbit_rotation_limit_is_tagged_rotation(self):
        report, code = run_config({"experiments": [
            {"kind": "limit", "params": {"system": "rotation", "target": {"a": -2, "b": "2/7"},
                                         "side": "below", "depth": 12, "plain_count": 40}}]})
        assert code == 0
        cert = report["results"][0]["certificates"][0]
        # -2*alpha + 2/7 reduced mod 1: every image is its point shifted by the target
        assert cert["result"] == {"tag": "rotation", "params": {"gamma": "-2*alpha+9/7"}}
        assert verify_certificate(cert)
        assert not verify_certificate(dict(cert, result={"tag": "unresolved", "params": {}}))

    def test_rank_tampers_fail_verify(self):
        report, code = run_config({"experiments": [
            {"kind": "rank", "params": {"system": "sturmian", "plain_count": 1500,
                                        "epsilons": [0.1]}}]})
        assert code == 0
        cert = report["results"][0]["certificates"][0]
        size = cert["sample_size"]
        assert cert["beta"] == 2 and cert["stage_sizes"][0] == size
        assert verify_certificate(cert)
        # a null beta needs the whole stage budget, every stage nonempty
        full = [size] * (rank.STAGE_BUDGET + 1)
        assert verify_certificate(dict(cert, beta=None, stage_sizes=full))
        # still verifies: only a witness tree or a rerun can tell [size, 0] from
        # the true stages
        assert verify_certificate(dict(cert, beta=1, stage_sizes=[size, 0]))
        bad = [dict(cert, beta=-1), dict(cert, beta=0), dict(cert, beta=True),
               dict(cert, beta=1.0), dict(cert, beta="2"),
               dict(cert, stage_sizes=[], beta=None), dict(cert, stage_sizes=None, beta=None),
               dict(cert, stage_sizes=[size, -1]), dict(cert, stage_sizes=[size, True]),
               dict(cert, stage_sizes=[size, 0.0]),
               dict(cert, sample_size=size + 1), dict(cert, stage_sizes=[size + 1, 0]),
               # the stage sizes end at their first 0, at beta
               dict(cert, beta=1, stage_sizes=[size, 0, 0]),
               dict(cert, beta=2, stage_sizes=[size, 0, 0]), dict(cert, beta=1),
               dict(cert, beta=3), dict(cert, stage_sizes=cert["stage_sizes"] + [0]),
               dict(cert, beta=None), dict(cert, beta=None, stage_sizes=full[:-1]),
               dict(cert, beta=None, stage_sizes=full + [size]),
               dict(cert, beta=None, stage_sizes=full[:-1] + [0]),
               dict(cert, beta=len(full) - 1, stage_sizes=full[:-1] + [0, 0])]
        # run writes floats: an integer literal is no epsilon or radius
        bad += [dict(cert, epsilon=e) for e in (0.0, -0.1, float("inf"), float("nan"), "0.1",
                                                True, None, 1)]
        schedule = cert["schedule"]
        bad += [dict(cert, schedule=s) for s in (
            [], None, "0.1", schedule[::-1], schedule[:1] * 2, [-r for r in schedule],
            schedule[:-1] + [0.0], schedule[:-1] + [float("nan")], [float("inf")] + schedule,
            [True], [str(r) for r in schedule], [1, 0.5], schedule[:1] + [float("nan")] * 2,
            schedule[:1] + [float("nan")] + schedule[-1:])]
        assert not any(verify_certificate(c) for c in bad)
        assert all(verify_certificate(dict(cert, schedule=s)) for s in (schedule[:1], [1.0, 0.5]))

    def test_isolation_checks_the_payload_gammas(self):
        report, code = run_config({"experiments": [
            {"kind": "isolation", "params": {"count": 12}}]})
        assert code == 0
        cert = report["results"][0]["certificates"][0]
        assert cert["diagonal_isolated"] and len(cert["gammas"]) == 12
        assert verify_certificate(cert)
        zeros = ["0*alpha+0"] * 12  # one point twelve times: nothing is isolated
        assert not verify_certificate(dict(cert, gammas=zeros))
        assert verify_certificate(dict(cert, gammas=zeros, diagonal_isolated=False))
        dup = cert["gammas"][:-1] + cert["gammas"][:1]  # one member twice
        assert not verify_certificate(dict(cert, gammas=dup))
        assert verify_certificate(dict(cert, gammas=dup, diagonal_isolated=False))
        assert not verify_certificate(dict(cert, gammas=[]))
        assert not verify_certificate(dict(cert, gammas=cert["gammas"][:-1]))

    def test_isolation_single_circle_flag_tamper_detected(self):
        report, code = run_config({"experiments": [
            {"kind": "isolation", "params": {"count": 200}}]})
        assert code == 0
        cert = report["results"][0]["certificates"][0]
        assert cert["diagonal_isolated"] and not cert["single_circle_isolated"]
        assert verify_certificate(cert)
        assert not verify_certificate(dict(cert, single_circle_isolated=True))

    @pytest.mark.parametrize("eps", ["1/7", "1/4", "1/3", "2/5", "1/2"])
    def test_isolation_single_circle_closed_form(self, eps):
        # verify's closed form against the exact check on the family k/count, side +1
        for count in range(41):
            members = [((CirclePoint(GOLDEN, 0, Fraction(k, count)), systems.PLUS),)
                       for k in range(count)]
            isolated = envelope.sorgenfrey_isolation(members, eps=Fraction(eps)).all_isolated
            report, _ = run_config({"experiments": [
                {"kind": "isolation", "params": {"count": count, "eps": eps}}]})
            cert = report["results"][0]["certificates"][0]
            assert verify_certificate(dict(cert, single_circle_isolated=isolated))
            assert not verify_certificate(dict(cert, single_circle_isolated=not isolated))

    @settings(max_examples=80, deadline=None)
    @given(gammas=st.lists(st.sampled_from(ISOLATION_POOL), max_size=12),
           eps=st.integers(2, 40).flatmap(
               lambda q: st.integers(1, q // 2).map(lambda p: Fraction(p, q))))
    def test_flipped_diagonal_lemma_matches_the_exact_scan(self, gammas, eps):
        points = [_parse_point(GOLDEN, g) for g in gammas]
        exact = envelope.sorgenfrey_isolation(envelope.flipped_diagonal(points), eps=eps)
        cert = {"kind": "isolation", "eps": str(eps), "count": len(gammas), "gammas": gammas,
                "single_circle_isolated": len(gammas) * eps <= 1}
        assert verify_certificate(dict(cert, diagonal_isolated=exact.all_isolated))
        assert not verify_certificate(dict(cert, diagonal_isolated=not exact.all_isolated))

    def test_malformed_point_fails_verify(self, tmp_path, capsys):
        points = [CirclePoint(GOLDEN, a, b) for a, b in [(0, 0), (3, "1/29"), (-7, "-2/5")]]
        assert [_parse_point(GOLDEN, _point_str(p)) for p in points] == points
        for bad in ["", "alpha", "1*alpha+", "1*alpha+1/0", "1*alpha+1/2x", "2*beta+1", None, 5]:
            with pytest.raises(ValueError):
                _parse_point(GOLDEN, bad)
        report, _ = run_config({"experiments": [
            {"kind": "limit", "params": {"system": "rotation", "target": {"a": 3, "b": 0},
                                         "side": "above", "depth": 10, "plain_count": 40}},
            {"kind": "isolation", "params": {"count": 5}}]})
        lim, iso = (entry["certificates"][0] for entry in report["results"])
        assert verify_certificate(lim) and verify_certificate(iso)
        bad_lim = dict(lim, generator=dict(lim["generator"], target="3*alpha"))
        bad_iso = dict(iso, gammas=iso["gammas"][:-1] + ["4*alpha+1/"])
        assert not verify_certificate(bad_lim)
        assert not verify_certificate(dict(lim, generator=dict(lim["generator"], target=5)))
        assert not verify_certificate(bad_iso)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([bad_lim, bad_iso]))
        capsys.readouterr()
        assert main(["verify", str(path)]) == 1
        assert capsys.readouterr().out.splitlines() == ["limit: FAILED", "isolation: FAILED"]

    def test_isolation_gamma_outside_the_array_range_fails_verify(self, tmp_path, capsys):
        report, _ = run_config({"experiments": [{"kind": "isolation", "params": {"count": 5}}]})
        cert = report["results"][0]["certificates"][0]
        big = dict(cert, gammas=cert["gammas"][:-1] + ["99999999999999999999*alpha+0"])
        assert not verify_certificate(big)
        path = tmp_path / "big.json"
        path.write_text(json.dumps([big]))
        capsys.readouterr()
        assert main(["verify", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out.splitlines() == ["isolation: FAILED"] and "Traceback" not in err

    def test_malformed_fields_fail_verify(self, tmp_path, capsys):
        report, _ = run_config({"experiments": [
            {"kind": "isolation", "params": {"count": 5}},
            {"kind": "independence",
             "params": {"coding": {"system": "sturmian"}, "horizon": 2000, "windows": [6]}}]})
        iso, ind = (entry["certificates"][0] for entry in report["results"])
        assert verify_certificate(iso) and verify_certificate(ind)

        def without(cert, key):
            return {k: v for k, v in cert.items() if k != key}

        # one member, isolated on both families at eps 1/4: it fails only by type
        one = dict(iso, gammas=iso["gammas"][:1], count=1, single_circle_isolated=True)
        assert verify_certificate(one)
        bad = [dict(iso, eps="1"), dict(iso, eps="x"), dict(iso, eps="1/0"),
               dict(iso, eps="0"), dict(iso, eps="3/5"),
               dict(iso, count="five"), dict(iso, count=5.0),
               dict(one, count=True), dict(one, count="1"), dict(one, count=1.5),
               dict(iso, diagonal_isolated="yes"), dict(iso, single_circle_isolated=0),
               without(iso, "gammas"), without(iso, "count"), without(ind, "positions"),
               dict(ind, source={"kind": "rotation", "alpha": "cf:[0;1,...]"}),
               dict(ind, source={"kind": "periodic", "pattern": [0, 2]})]
        assert not any(verify_certificate(cert) for cert in bad)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        capsys.readouterr()
        assert main(["verify", str(path)]) == 1
        assert capsys.readouterr().out.splitlines() == [f"{c['kind']}: FAILED" for c in bad]
        with pytest.raises(ConfigError):
            verify_certificate(dict(iso, kind="nonsense"))

    def test_one_word_per_verify_pass(self, monkeypatch):
        params = {"coding": {"system": "cantor6"}, "horizon": 2000, "windows": [6, 8, 10, 12]}
        report, code = run_config({"experiments": [{"kind": "independence", "params": params}]})
        certs = report["results"][0]["certificates"]
        assert code == 0 and len(certs) == 4
        cli._word.cache_clear()
        built = []
        word = systems.CutProjectCoding.word

        def counted(self, *args, **kwargs):
            built.append(word(self, *args, **kwargs))
            return built[-1]

        monkeypatch.setattr(systems.CutProjectCoding, "word", counted)
        assert all(verify_certificate(cert) for cert in certs)
        assert len(built) == 1 and not built[0].flags.writeable

    def test_interval_window_source_runs_and_verifies(self):
        spec = {"kind": "cut_project", "window": {"arcs": [[0, "0", "13/21"]]}}
        report, code = run_config({"experiments": [
            {"kind": "independence",
             "params": {"coding": {"system": spec}, "horizon": 2000, "windows": [6, 9]}}]})
        assert code == 0
        entry = report["results"][0]
        assert entry["result"]["source"]["window"] == spec["window"]
        assert len(entry["certificates"]) == 2
        assert all(verify_certificate(cert) for cert in entry["certificates"])

    def test_helly_witness_checked_and_tamper_rejected(self):
        report, code = run_config({"experiments": [
            {"kind": "determine", "params": {
                "family": "staircase", "sample_level": 4,
                "map": "(1/3; 0,0,1/4) (5/7; 1/4,1/2,1/2)"}}]})
        assert code == 0
        cert = report["results"][0]["certificates"][0]
        assert cert["result"] == {"sound": True}
        assert verify_certificate(cert)
        assert not verify_certificate(dict(cert, witness=[]))
        assert not verify_certificate(dict(cert, witness=[], sample_size=0))
        assert not verify_certificate(dict(cert, sample_size=cert["sample_size"] + 1))
        # a witness missing one jump: the exact check itself must refuse it
        dropped = [w for w in cert["witness"] if w != ["5/7", 0]]
        assert len(dropped) == len(cert["witness"]) - 1
        assert not verify_certificate(dict(cert, witness=dropped, sample_size=len(dropped)))
        assert not verify_certificate(dict(cert, result={"sound": False}))
        assert not verify_certificate(dict(cert, result={}))
        # junk before, between or after the map literals
        for junk in ("junk " + cert["map"], cert["map"].replace(") (", ") junk ("),
                     cert["map"] + " junk"):
            assert not verify_certificate(dict(cert, map=junk))
        # pin sides and sample_size are plain ints, sound a JSON boolean: int(0.9)
        # would read as the plain side 0
        fuzzy = [[x, 0.9 if s == 0 else s] for x, s in cert["witness"]]
        assert not verify_certificate(dict(cert, witness=fuzzy))
        for size in (str(cert["sample_size"]), float(cert["sample_size"])):
            assert not verify_certificate(dict(cert, sample_size=size))
        assert not verify_certificate(dict(cert, result={"sound": 1}))
        # an honest unsound certificate for the under-pinned set verifies
        assert verify_certificate(dict(cert, witness=dropped, sample_size=len(dropped),
                                       result={"sound": False}))

    def test_helly_map_outside_unit_interval_fails(self, tmp_path, capsys):
        # its one jump is a plain pin, but the map leaves [0, 1] on the right
        cert = {"kind": "helly_determining", "map": "(1/2; 1,1,2)", "sample_size": 2,
                "result": {"sound": True},
                "witness": [["0", 0], ["1/2", 0]]}
        assert not verify_certificate(cert)
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert))
        assert main(["verify", str(path)]) == 1
        assert capsys.readouterr().out == "helly_determining: FAILED\n"


# params that pick each PARAMS row and supply its required keys
ROW_PARAMS = {
    "limit": {},
    "independence/system": {},
    "independence/periodic": {"coding": {"kind": "periodic", "pattern": [0, 1]}},
    "independence/full_shift": {"coding": {"kind": "full_shift", "window": 4}},
    "rank/split_circle": {},
    "rank/rotation": {"system": "rotation"},
    "rank/boundary-f2": {"system": "boundary-f2"},
    "fibers/semicocycle": {},
    "determine/discrete": {"family": "discrete"},
    "determine/staircase": {"family": "staircase", "map": "(1/2; 0,1/2,1)"},
    "isolation": {},
    "counterexample": {},
    "rigidity/rotation": {},
    "rigidity/split_circle": {"system": "sturmian"},
    "catalog": {},
}
# keys whose value picks the row, so a wrong value is refused as an unknown variant
PICKS = {"rank": "system", "rigidity": "system", "fibers": "system", "determine": "family"}


def refused(tmp_path, capsys, kind, params):
    """The config error of a one-experiment config with id ``x``; no report is written."""
    config = {"experiments": [{"kind": kind, "id": "x", "params": params}]}
    with pytest.raises(ConfigError):
        run_config(config)
    out = tmp_path / "never.json"
    assert main(["run", str(write_config(tmp_path, config)), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: experiment x: ") and not out.exists(), err
    return err


class TestParams:
    def test_row_params_cover_every_row(self):
        assert set(ROW_PARAMS) == set(cli.PARAMS)
        for row, params in ROW_PARAMS.items():
            assert cli.check_params(row.partition("/")[0], params).keys() == cli.PARAMS[row].keys()

    @pytest.mark.parametrize("row", sorted(ROW_PARAMS))
    def test_unknown_key_exits_2(self, tmp_path, capsys, row):
        err = refused(tmp_path, capsys, row.partition("/")[0], dict(ROW_PARAMS[row], cout=5))
        assert "unknown key 'cout'" in err

    @pytest.mark.parametrize("row, key", [(row, key) for row in sorted(ROW_PARAMS)
                                          for key in cli.PARAMS[row]])
    def test_ill_typed_value_exits_2(self, tmp_path, capsys, row, key):
        # a JSON true is no value of any parameter type
        kind = row.partition("/")[0]
        err = refused(tmp_path, capsys, kind, dict(ROW_PARAMS[row], **{key: True}))
        # the coding's kind picks the independence row, so a coding that is not an
        # object is refused before any row is read
        named = "coding must be an object, not" if key == "coding" else f"{key}: True is not"
        assert PICKS.get(kind) == key or f"experiment x: TypeError: {named}" in err, err

    @pytest.mark.parametrize("row, key", [(row, key) for row in sorted(ROW_PARAMS)
                                          for key, entry in cli.PARAMS[row].items()
                                          if len(entry) > 2])
    def test_count_below_its_least_value_exits_2(self, tmp_path, capsys, row, key):
        kind, (_, key_type, least) = row.partition("/")[0], cli.PARAMS[row][key]
        listed = (lambda v: [v]) if isinstance(key_type, list) else (lambda v: v)
        err = refused(tmp_path, capsys, kind, dict(ROW_PARAMS[row], **{key: listed(least - 1)}))
        assert f"experiment x: ValueError: {key}: {least - 1} is below {least}" in err, err
        # the least value itself passes
        checked = cli.check_params(kind, dict(ROW_PARAMS[row], **{key: listed(least)}))
        assert checked[key] == listed(least)

    @pytest.mark.parametrize("kind, params, message", [
        ("isolation", {"cout": 5}, "unknown key 'cout'"),
        ("isolation", {"count": 2.9}, "TypeError: count: 2.9 is not an integer"),
        ("isolation", {"count": 5.0}, "TypeError: count: 5.0 is not an integer"),
        ("isolation", {"count": True}, "TypeError: count: True is not an integer"),
        ("isolation", {"count": "7"}, "TypeError: count: '7' is not an integer"),
        ("isolation", {"count": -1}, "ValueError: count: -1 is below 0"),
        ("isolation", {"eps": "0"}, "ValueError: eps: an epsilon must be positive and finite"),
        ("rank", {"schedule": [0.1, 0.01]}, "unknown key 'schedule'"),
        ("rank", {"one_sided": [{"a": 0, "b": 0, "sidee": "above"}]},
         "one_sided: unknown key 'sidee'"),
        ("limit", {"target": {"a": 2.9}}, "TypeError: target: a: 2.9 is not an integer"),
        ("limit", {"target": {"a": 0, "b": 0.5}},
         "TypeError: target: b: 0.5 is not an integer or a string"),
        ("independence", {"coding": {"kind": "full_shift", "window": 5}, "horizon": 75,
                          "windows": [5]}, "unknown key 'horizon'"),
        ("independence", {"coding": {"sytem": "cantor6"}}, "coding: unknown key 'sytem'"),
        ("independence", {"coding": {"kind": "periodic", "pattern": [0, 1.0]}},
         "TypeError: coding: pattern: 1.0 is not an integer"),
        ("determine", {"family": "staircase"}, "KeyError: 'map'"),
        ("limit", {"plain_count": -3}, "ValueError: plain_count: -3 is below 0"),
        ("fibers", {"k_max": -1}, "ValueError: k_max: -1 is below 1"),
        ("determine", {"family": "discrete", "size": 0}, "ValueError: size: 0 is below 1"),
        ("counterexample", {"size": 0}, "ValueError: size: 0 is below 1"),
        ("rank", {"system": "rotation", "plain_count": -5},
         "ValueError: plain_count: -5 is below 1"),
        ("independence", {"coding": {"kind": "full_shift", "window": 0}},
         "ValueError: coding: window: 0 is below 1"),
        ("independence", {"windows": [8, -2, 0]}, "ValueError: windows: -2 is below 1"),
    ])
    def test_motivating_configs_exit_2(self, tmp_path, capsys, kind, params, message):
        assert f"experiment x: {message}" in refused(tmp_path, capsys, kind, params)

    def test_misspelt_system_spec_key_exits_2(self, tmp_path, capsys):
        spec = {"kind": "rotation", "alhpa": "cf:[0;2,...]"}
        err = refused(tmp_path, capsys, "limit", {"system": spec})
        assert "a rotation spec reads only ['alpha', 'kind'], not ['alhpa', 'kind']" in err

    def test_malformed_last_experiment_refused_before_the_first_runs(self, monkeypatch):
        def never(params, seed):
            raise AssertionError("the first experiment ran")

        monkeypatch.setitem(cli.DISPATCH, "catalog", never)
        config = {"experiments": [{"kind": "catalog", "id": "cat"},
                                  {"kind": "isolation", "id": "iso", "params": {"cout": 5}}]}
        with pytest.raises(ConfigError, match="experiment iso: unknown key 'cout'"):
            run_config(config)

    @pytest.mark.parametrize("last, message", [
        ({"kind": "limit", "params": {"system": "semicocycle"}},
         "limit experiment needs a split-circle or rotation system"),
        ({"kind": "independence", "params": {"coding": {"system": {"kind": "rotation",
                                                                   "alhpa": "cf:[0;2,...]"}}}},
         r"a rotation spec reads only \['alpha', 'kind'\]"),
    ], ids=["limit-on-semicocycle", "coding-spec-key"])
    def test_last_experiment_s_system_refused_before_the_first_runs(self, monkeypatch, last,
                                                                     message):
        def never(params, seed):
            raise AssertionError("the first experiment ran")

        monkeypatch.setitem(cli.DISPATCH, "catalog", never)
        config = {"experiments": [{"kind": "catalog", "id": "cat"}, dict(last, id="last")]}
        with pytest.raises(ConfigError, match=f"experiment last: .*{message}"):
            run_config(config)

    def test_dispatch_gets_the_config_s_own_params(self, monkeypatch):
        seen = []
        run = cli.DISPATCH["isolation"]
        monkeypatch.setitem(cli.DISPATCH, "isolation",
                            lambda params, seed: seen.append(params) or run(params, seed))
        params = {"count": 5}
        config = {"experiments": [{"kind": "isolation", "params": params}]}
        digest = cli._digest(config)
        report, code = run_config(config)
        # the defaults are filled into a copy: the config and its digest stay as written
        assert code == 0 and seen == [params] and seen[0] is params
        assert params == {"count": 5} and report["config_digest"] == digest
        assert report["results"][0]["certificates"][0]["eps"] == "1/4"

    def test_int_epsilon_is_read_as_a_float(self):
        report, code = run_config({"experiments": [{"kind": "rank", "params": {
            "system": "rotation", "plain_count": 100, "epsilons": [1]}}]})
        assert code == 0
        assert type(report["results"][0]["certificates"][0]["epsilon"]) is float


# system specs that are neither a name nor an object, alphas that are not
# continued-fraction strings, and a split set that is not a name
BAD_SYSTEMS = [
    5, ["sturmian"],
    {"kind": "split_circle", "alpha": 5},
    {"kind": "split_circle", "alpha": None},
    {"kind": "rotation", "alpha": ["cf:[0;1,...]"]},
    {"kind": "split_circle", "alpha": "cf:[0;1,...]", "split_set": ["0*alpha+1/2"]},
]


class TestMalformedSystems:
    @pytest.mark.parametrize("system", BAD_SYSTEMS)
    @pytest.mark.parametrize("kind", ["limit", "independence"])
    def test_run_exits_2(self, tmp_path, capsys, kind, system):
        params = {"system": system} if kind == "limit" else {
            "coding": {"system": system}, "horizon": 2000, "windows": [6]}
        config = {"experiments": [{"kind": kind, "id": "bad", "params": params}]}
        # a system that is not a name or an object is refused by its PARAMS type
        message = r"experiment bad: (ValueError|TypeError: (coding: )?system: .* is not a string or an object)"
        with pytest.raises(ConfigError, match=message):
            run_config(config)
        out = tmp_path / "never.json"
        assert main(["run", str(write_config(tmp_path, config)), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert re.match("config error: " + message, err) and not out.exists()

    def test_verify_fails(self, tmp_path, capsys):
        report, code = run_config({"experiments": [
            {"kind": "limit", "params": {"system": "sturmian", "depth": 8, "plain_count": 40}},
            {"kind": "independence",
             "params": {"coding": {"system": "sturmian"}, "horizon": 2000, "windows": [6]}}]})
        lim, ind = (entry["certificates"][0] for entry in report["results"])
        assert code == 0 and verify_certificate(lim) and verify_certificate(ind)
        bad = ([dict(lim, system=s) for s in BAD_SYSTEMS]
               + [dict(ind, source=s) for s in BAD_SYSTEMS])
        assert not any(verify_certificate(cert) for cert in bad)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        capsys.readouterr()
        assert main(["verify", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out.splitlines() == [f"{c['kind']}: FAILED" for c in bad] and "Traceback" not in err

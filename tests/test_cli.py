import json
import math
import os
import re
import subprocess
import sys

import pytest

from flagwalk.cli import _OVERRIDES, main
from flagwalk.config import KINDS, ExperimentConfig
from flagwalk.errors import ConfigurationError
from flagwalk.examples import get_example, list_examples


def _read(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------- threads


def test_flagwalk_threads_applies_before_numpy_loads():
    env = {k: v for k, v in os.environ.items()
           if not k.endswith("_NUM_THREADS")}
    env["FLAGWALK_THREADS"] = "1"
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import os, flagwalk\n"
            "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
            "task = '/proc/self/task'\n"
            "print(len(os.listdir(task)) if os.path.isdir(task) else -1)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out[0] == "1"
    if int(out[1]) >= 0 and (os.cpu_count() or 1) > 1:
        assert int(out[1]) == 1


# ---------------------------------------------------------------- catalog


def test_list_examples_prints_catalog(capsys):
    assert main(["list-examples"]) == 0
    out = capsys.readouterr().out
    names = [ex.name for ex in list_examples()]
    assert len(names) >= 6
    for name in names:
        assert name in out


# ---------------------------------------------------------------- classify


def test_classify_example_writes_artifacts(tmp_path, capsys):
    code = main(["classify", "--example", "ex-reducible",
                 "--out", str(tmp_path)])
    assert code == 0
    report = _read(tmp_path / "report.json")
    assert report["label"] == "Case2_2"
    assert report["passed"] is True
    assert (tmp_path / "series.csv").exists()
    manifest = _read(tmp_path / "manifest.json")
    assert manifest["config"]["kind"] == "classify"
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["label"] == "Case2_2"


@pytest.mark.parametrize("name,label", [
    ("ex-principal-sl3", "Case2_3a"),
    ("ex-2.3.b", "Case2_3b"),       # alias for the obstructed example
    ("ex-case-1", "Case1"),
])
def test_classify_known_examples(tmp_path, name, label):
    assert main(["classify", "--example", name, "--out", str(tmp_path)]) == 0
    assert _read(tmp_path / "report.json")["label"] == label


def test_classify_explicit_geometry(tmp_path):
    cfg = {
        "kind": "classify",
        "flag": {"n": 3, "dims": [1]},
        "embedding": {"e": [[0, 1, 0], [0, 0, 1], [0, 0, 0]],
                      "x": [[2, 0, 0], [0, 0, 0], [0, 0, -2]],
                      "f": [[0, 0, 0], [2, 0, 0], [0, 2, 0]]},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["classify", "--config", str(path),
                 "--out", str(tmp_path)]) == 0
    assert _read(tmp_path / "report.json")["label"] == "Case2_3a"


def test_classify_refuses_a_nan_in_the_triple(tmp_path, capsys):
    # the NaN passed the bracket check and ended in a ValueError traceback
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "kind": "classify", "flag": {"n": 2, "dims": [1]},
        "embedding": {"e": [[0, 1], [0, 0]], "x": [[math.nan, 0], [0, -1]],
                      "f": [[0, 0], [1, 0]]}}))
    assert main(["classify", "--config", str(path),
                 "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not (tmp_path / "report.json").exists()


# ---------------------------------------------------------------- errors


def test_unknown_config_key_named(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kind": "classify", "bogus": 1}))
    assert main(["classify", "--config", str(path)]) == 1
    assert "bogus" in capsys.readouterr().err


def test_invalid_json_is_config_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    assert main(["classify", "--config", str(path)]) == 1
    assert "error" in capsys.readouterr().err


def test_kind_subcommand_mismatch(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kind": "classify"}))
    assert main(["lyapunov", "--config", str(path)]) == 1
    assert "does not match" in capsys.readouterr().err


def test_non_2x2_atom_is_config_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kind": "lyapunov", "mu": [
        {"weight": 1.0, "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}]}))
    assert main(["lyapunov", "--config", str(path),
                 "--out", str(tmp_path)]) == 1
    assert "2x2" in capsys.readouterr().err


_SINGULAR = [{"weight": 0.5, "matrix": [[1, 0], [0, 0]]},
             {"weight": 0.5, "matrix": [[0, 0], [1, 0]]}]


@pytest.mark.parametrize("argv", [
    # --dt is no longer a flag, so these two are usage errors
    ["equidist", "--dt", "0"],
    ["equidist", "--dt", "-0.05"],
    ["lyapunov", "--trials", "0"],
    ["walk", "--trials", "0"],
    ["ldp", "--trials", "0"],
    ["renewal", "--t", "-5"],
    ["walk", "--steps", "0"],
    ["walk", "--cap", "0"],
    ["renewal", "--k-max", "-1"],
    ["ldp", "--eps1", "-0.1"],
    ["equidist", "--ks-tol", "0"],
    ["equidist", "--corr-tol", "-1"],
    ["drift", "--past-len", "0"],
    ["drift", "--match-threshold", "-2"],
    ["lyapunov", {"n": "2000"}],
    ["walk", {"cap": "1"}],
    ["lyapunov", {"trials": True}],
    # counts given as floats ended in a TypeError traceback
    ["lyapunov", {"trials": 100.5}],
    ["walk", {"n": 1000, "trials": 10.0}],
    ["renewal", {"k_max": 100.5}],
    ["drift", {"n": 60.5}],
    ["drift", {"past_len": 60.0}],
    ["lyapunov", {"seed": "abc"}],
    ["ldp", {"n_grid": ["a"]}],
    ["walk", {"theta0": "x"}],
    ["lyapunov", {"mu": [{"weight": "abc", "matrix": [[1, 0], [0, 1]]}]}],
    ["lyapunov", {"mu": [{"weight": 1.0, "matrix": [[1, 0], [0]]}]}],
    ["lyapunov", {"mu": [{"weight": 1.0, "matrix": [[math.nan, 0], [0, 1]]}]}],
    ["drift", {"words": {"a": [[[2, 0], [0, 0.5]]], "b": [[[1, 1], [0, 1]]],
                         "b_prime": [[[1, 0], [1, 1]]]}}],
    ["drift", {"words": {"a": ["x"], "a_prime": [[[2, 0], [0, 0.5]]],
                         "b": [[[1, 1], [0, 1]]],
                         "b_prime": [[[1, 0], [1, 1]]]}}],
    # a nilpotent word's product vanishes (it ended in a math domain error),
    # and a NaN entry was written into report.json as "cross_ratio": NaN
    ["drift", {"words": {"a": [[[0, 1], [0, 0]]],
                         "a_prime": [[[2, 0], [0, 0.5]]],
                         "b": [[[1, 1], [0, 1]]],
                         "b_prime": [[[1, 0], [1, 1]]]}}],
    ["drift", {"words": {"a": [[[2, 0], [0, 0.5]]],
                         "a_prime": [[[math.nan, 0], [0, 1]]],
                         "b": [[[1, 1], [0, 1]]],
                         "b_prime": [[[1, 0], [1, 1]]]}}],
    ["classify", {"flag": {"n": "x", "dims": [1]},
                  "embedding": {"e": [[0, 1], [0, 0]], "x": [[1, 0], [0, -1]],
                                "f": [[0, 0], [1, 0]]}}],
    ["classify", {"flag": {"n": 2, "dims": [1]},
                  "embedding": {"e": [[0, 1], [0, 0]],
                                "x": [[1, 0], [0, -1]]}}],
    # singular atoms: refused by StepMeasure before any walk
    ["ldp", {"mu": _SINGULAR, "trials": 200}],
    ["renewal", {"mu": _SINGULAR, "trials": 200, "t": 5.0}],
    # an elliptic atom: lambda = 0, refused by renewal_sum
    ["renewal", {"mu": [{"weight": 1.0, "matrix": [[0, 1], [-1, 1]]}],
                 "trials": 200, "t": 5.0}],
    ["lyapunov", "--trials", "abc"],
    # an infinite tolerance passed every run, an infinite cap capped nothing
    ["equidist", "--ks-tol", "inf"],
    ["walk", "--cap", "inf"],
    ["nokind"],
])
def test_bad_numeric_value_is_config_error(tmp_path, capsys, argv):
    if isinstance(argv[-1], dict):   # a JSON config file
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"kind": argv[0], **argv[-1]}))
        argv = [argv[0], "--config", str(path)]
    assert main(argv + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_drift_word_is_refused_by_name(tmp_path, capsys, bad):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kind": "drift", "words": {
        "a": [[[2, 0], [0, 0.5]]], "a_prime": [[[2, 0], [0, 0.5]]],
        "b": [[[1, 1], [0, 1]]], "b_prime": [[[1, 0], [bad, 1]]]}}))
    assert main(["drift", "--config", str(path),
                 "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == \
        "error: words['b_prime'] has a non-finite entry\n"


@pytest.mark.parametrize("argv,field", [
    (["decompose", {"theta0": [0, 1], "n": 2000, "trials": 5}], "theta0"),
    (["equidist", "--t", "3"], "t"),
    (["equidist", {"t": 3.0}], "t"),
    (["lyapunov", "--cap", "2"], "cap"),
    (["walk", {"ks_tol": 0.1}], "ks_tol"),
    (["classify", {"example": "ex-reducible", "n": 5}], "n"),
    (["renewal", {"n_grid": [200]}], "n_grid"),
    (["drift", {"trials": 5}], "trials"),
])
def test_field_the_kind_never_reads_is_config_error(tmp_path, capsys, argv,
                                                    field):
    if isinstance(argv[-1], dict):   # a JSON config file
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"kind": argv[0], **argv[-1]}))
        argv = [argv[0], "--config", str(path)]
    assert main(argv + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert err[0].endswith(f" does not read {field}")
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("kind", KINDS)
def test_every_kind_takes_seed_mu_and_example_and_round_trips(kind):
    # kind, seed, mu and example are taken by every kind; the resolved
    # config, per-kind defaults included, reads back to itself
    cfg = ExperimentConfig.from_dict({"kind": kind, "seed": 3,
                                      "example": "ex-reducible",
                                      "mu": [{"weight": 1.0, "matrix":
                                              [[2.0, 1.0], [1.0, 1.0]]}]})
    cfg.apply_kind_defaults()
    resolved = cfg.resolved()
    assert ExperimentConfig.from_dict({"config": resolved}).resolved() == \
        resolved


@pytest.mark.parametrize("bad", ["latin-1", "directory"])
def test_unreadable_config_file_is_config_error(tmp_path, capsys, bad):
    path = tmp_path / "cfg.json"
    if bad == "directory":
        path.mkdir()
    else:
        path.write_bytes('{"kind": "walk", "example": "é"}'.encode(bad))
    out = tmp_path / "out"
    assert main(["walk", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("kind", KINDS)
def test_unknown_example_is_config_error(tmp_path, capsys, kind):
    # refused when the example is set, for every kind, naming the known ones
    assert main([kind, "--example", "ex-nope", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "ex-nope" in err[0] and "ex-principal-sl3" in err[0]
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("name", ["ex-nope", ["x"], 3, None])
def test_get_example_refuses_an_unknown_name_by_value(name):
    # a list was looked up as a dict key: TypeError, unhashable type
    with pytest.raises(ConfigurationError, match=re.escape(repr(name))):
        get_example(name)


def test_override_flags_are_the_config_counts_and_positive_numbers():
    assert _OVERRIDES == [
        ("--steps", "n", int),
        ("--trials", "trials", int),
        ("--eps1", "eps1", float),
        ("--t", "t", float),
        ("--cap", "cap", float),
        ("--k-max", "k_max", int),
        ("--ks-tol", "ks_tol", float),
        ("--corr-tol", "corr_tol", float),
        ("--past-len", "past_len", int),
        ("--match-threshold", "match_threshold", float),
    ]


# ---------------------------------------------------------------- exit code 2


def test_ldp_tolerance_failure_exits_two(tmp_path):
    # the tame default measure has unobservably rare tails at the default
    # deviation scale, so the fit degenerates and the run fails tolerance
    code = main(["ldp", "--trials", "500", "--seed", "3",
                 "--out", str(tmp_path)])
    assert code == 2
    report = _read(tmp_path / "report.json")
    assert report["passed"] is False


@pytest.mark.parametrize("argv", [
    ["decompose", "--ks-tol", "1e-9"],
    ["equidist", "--corr-tol", "1e-9"],
])
def test_experiment_tolerance_failure_exits_two(tmp_path, capsys, argv):
    # the CLI judges the experiment's statistics against the run's
    # tolerances: the same run passes at the defaults and fails at 1e-9
    size = ["--steps", "2000", "--trials", "10", "--out"]
    assert main(argv[:1] + size + [str(tmp_path / "default")]) == 0
    assert main(argv + size + [str(tmp_path / "tight")]) == 2
    assert _read(tmp_path / "tight" / "report.json")["passed"] is False
    summaries = capsys.readouterr().out.splitlines()
    assert [json.loads(line)["passed"] for line in summaries] == [True, False]


def test_equidist_canned_fibre_law_is_the_periodic_orbit_law(tmp_path):
    # the benchmark's equidist config: the Case 2.2 fibre's Cesaro mean must
    # sit on the periodic-orbit mean 0.96389, not on the Haar mean 0.6817 of
    # a walk that left the closed orbit
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kind": "equidist", "example": "ex-reducible",
                                "n": 2500, "trials": 200, "seed": 5}))
    assert main(["equidist", "--config", str(path),
                 "--out", str(tmp_path)]) == 0
    report = _read(tmp_path / "report.json")
    assert report["orbit_mean"] == pytest.approx(0.96389, abs=1e-5)
    assert abs(report["cesaro_mean"] - report["orbit_mean"]) <= 0.01
    assert report["ks"] <= 0.05


# ---------------------------------------------------------------- manifest


def test_manifest_roundtrip_reproduces_report(tmp_path):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["lyapunov", "--steps", "2000", "--trials", "100",
                 "--seed", "7", "--out", str(out1)]) == 0
    assert main(["lyapunov", "--config", str(out1 / "manifest.json"),
                 "--out", str(out2)]) == 0
    assert (out1 / "report.json").read_bytes() == \
        (out2 / "report.json").read_bytes()
    assert (out1 / "series.csv").read_bytes() == \
        (out2 / "series.csv").read_bytes()


def test_seed_changes_stochastic_report(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    main(["lyapunov", "--steps", "2000", "--trials", "50", "--seed", "1",
          "--out", str(a)])
    main(["lyapunov", "--steps", "2000", "--trials", "50", "--seed", "2",
          "--out", str(b)])
    assert _read(a / "report.json")["estimate"] != \
        _read(b / "report.json")["estimate"]


def test_drift_runs_with_defaults(tmp_path):
    assert main(["drift", "--out", str(tmp_path)]) == 0
    report = _read(tmp_path / "report.json")
    assert "cross_ratio" in report

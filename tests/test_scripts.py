"""Smoke tests of the example scripts in scripts/, run as a user would:
in an empty working directory, with src/ on the path."""

import importlib.util
import json
import os
import subprocess
import sys
from types import SimpleNamespace

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SCRIPTS = os.path.join(ROOT, "scripts")


def _run(name, cwd):
    env = dict(os.environ, FLAGWALK_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, os.path.join(SCRIPTS, name)],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=300)


def test_classify_all_examples_labels_every_example(tmp_path):
    out = _run("classify_all_examples.py", tmp_path)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == 7 and all("[ok]" in line for line in lines)


def test_classify_all_examples_exits_1_on_a_mismatch(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(
        "classify_all_examples", os.path.join(SCRIPTS,
                                              "classify_all_examples.py"))
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "classify",
                        lambda flag, embedding: SimpleNamespace(label="Case0"))
    assert script.main() == 1
    assert "MISMATCH" in capsys.readouterr().out


def test_equidist_demo_writes_a_passing_report(tmp_path):
    out = _run("equidist_demo.py", tmp_path)
    assert out.returncode == 0, out.stderr
    with open(tmp_path / "equidist-demo" / "report.json") as fh:
        assert json.load(fh)["passed"] is True

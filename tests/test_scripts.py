"""Smoke runs of the experiment scripts in scripts/, at tiny sizes."""

import os
import subprocess
import sys
from pathlib import Path

from randgroups.harness import CSV_HEADER

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cprime_trend_script(tmp_path):
    out = tmp_path / "trend.csv"
    stdout = run_script("cprime_trend.py", "--lengths", "20,40", "--trials", "5",
                        "--out", str(out), cwd=tmp_path)
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER and len(lines) == 3
    assert "l=20: success fraction" in stdout


def test_dichotomy_script(tmp_path):
    out = tmp_path / "dichotomy.csv"
    stdout = run_script("dichotomy.py", "--rank", "3", "--lengths", "20", "--trials", "4",
                        "--ball", "1", "--seed", "306", "--out", str(out), cwd=tmp_path)
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER and len(lines) == 2
    assert "verdicts match the free group" in stdout


def test_geometry_suite_script(tmp_path):
    stdout = run_script("geometry_suite.py", "--rank", "3", "--lengths", "25",
                        "--radius", "2", "--count", "1", cwd=tmp_path)
    [line] = stdout.splitlines()
    assert line.startswith("l=25 seed=") and ", ok (" in line
    assert " pairs (0 multi-geodesic), " in line  # l > 2R: a free ball
    # at l = 2R the relator cycles close, and their pairs reach single_layer
    stdout = run_script("geometry_suite.py", "--rank", "3", "--lengths", "10",
                        "--radius", "5", "--count", "1", "--seed", "53", cwd=tmp_path)
    [line] = stdout.splitlines()
    assert line.startswith("l=10 seed=53: 4677 vertices, 4676 pairs (10 multi-geodesic), ")
    assert ", ok (" in line

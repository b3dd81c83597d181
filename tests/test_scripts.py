"""Smoke tests of scripts/: each runs as a fresh process and prints a known row."""

import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def _run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_closure_survey():
    lines = _run_script("closure_survey.py", "--L-max", "300")
    assert lines[-1].split() == ["253", "-0.00314188", "0.00049618", "0.0124873", "25.17"]


def test_embedding_sweep():
    lines = _run_script("embedding_sweep.py", "--qh-max", "5", "--oh", "4")
    assert "  QH 1..5: all embedded" in lines
    assert "OVERLAP at (13, 31)" in lines[-1]


def test_ratio_scan():
    lines = _run_script("ratio_scan.py", "--L-max", "24", "--convergents", "8")
    assert lines[0] == "limit value: 0.554256258422"
    assert "  L=      70  ratio=0.5624210661  rel. offset 0.0147" in lines


def test_lattice_rows():
    lines = _run_script("lattice_rows.py", "--trials", "5")
    # the last two columns: the least gap of OH_64708 and its bound 3 x delta_bar^2
    assert lines[4].split() == [
        "3162.28", "64708", "-23692", "-5.48", "gamma_plus", "1.963e-7", "2.125e-6"
    ]
    assert lines[-1].startswith("random health check: 5/5 inside the bound")

"""scripts/bijection_suite.py runs the bijection check on every orientation
of the Dynkin types it is given, and refuses a type past SORTABLE_GUARD
before it lists an orientation."""

import dataclasses
import importlib.util
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import quivrep

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bijection_suite.py"


def run_suite(*args: str) -> subprocess.CompletedProcess:
    src = str(Path(quivrep.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, str(SCRIPT), *args], env=env, capture_output=True, text=True, timeout=60)


def test_one_type_prints_a_row_per_orientation():
    result = run_suite("A3")
    lines = result.stdout.splitlines()
    assert result.returncode == 0, result.stderr
    assert [line.split()[0] for line in lines[1:-1]] == ["A3"] * 4
    assert lines[-1].startswith("overall: pass in ")


def test_type_past_the_guard_is_refused_before_any_orientation():
    start = time.perf_counter()
    result = run_suite("A12")
    assert time.perf_counter() - start < 1.0
    assert result.returncode == 1
    assert result.stdout == "A12: refused, 742,900 c-sortables exceed SORTABLE_GUARD = 250,000\n"


def test_field_outside_the_enumeration_primes_is_a_usage_error():
    result = run_suite("--field", "5")
    assert result.returncode == 2 and result.stdout == ""
    assert "invalid choice: 5" in result.stderr and "Traceback" not in result.stderr


def test_a_failing_quiver_names_its_failed_checks_and_gaps(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("bijection_suite", SCRIPT)
    suite = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(suite)
    real_verify = suite.verify_bijection

    def failing(q, field):
        report = real_verify(q, field)
        return dataclasses.replace(report, injective=False, round_trip=False, gaps=("a planted gap",))

    monkeypatch.setattr(suite, "verify_bijection", failing)
    monkeypatch.setattr(sys, "argv", ["bijection_suite.py", "A1"])
    with pytest.raises(SystemExit) as exit_info:
        suite.main()
    assert exit_info.value.code == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split()[:4] == ["A1", "-", "2", "2"] and lines[1].split()[4] == "false"
    assert lines[2:4] == ["  failed: injective, round_trip", "  gap: a planted gap"]
    assert lines[-1].startswith("overall: FAIL in ")

"""Runs with the same inputs and seed leave the same files outside ``timing/``.

The seeded and the defect-free demo each run in child processes: under two
hash seeds, and under every CPython 3.10 or later this machine has. Every
file of one run directory must equal, byte for byte, the file of the same
name in the other; ``timing/`` alone holds wall-clock values. The package
is stdlib-only, so a child interpreter needs no pytest.
"""

from __future__ import annotations

import filecmp
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import vecuforge

SRC = Path(vecuforge.__file__).resolve().parent.parent
EXPECTED_EXIT = {"on": 1, "off": 0}


def run_demo(python: str, run_dir: Path, vulns: str, hash_seed: str = "0") -> Path:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [python, "-m", "vecuforge.cli", "demo", "--run-dir", str(run_dir), "--vulns", vulns],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == EXPECTED_EXIT[vulns], proc.stderr
    assert (run_dir / "timing" / "execute.json").is_file()
    return run_dir


def artifacts(root: Path) -> set[str]:
    return {str(p.relative_to(root)) for p in root.rglob("*")
            if p.is_file() and p.relative_to(root).parts[0] != "timing"}


def differing_artifacts(a: Path, b: Path) -> list[str]:
    """Files outside ``timing/`` that differ between two runs or are in one only."""
    names_a, names_b = artifacts(a), artifacts(b)
    _, mismatch, errors = filecmp.cmpfiles(a, b, sorted(names_a & names_b), shallow=False)
    return sorted(names_a ^ names_b) + mismatch + errors


def cpythons() -> dict[str, str]:
    """One runnable CPython >= 3.10 per version, by version: this one,
    ``python3.N`` on PATH and pyenv's installs. A pyenv shim that cannot run
    is passed over."""
    candidates = [sys.executable]
    candidates += filter(None, (shutil.which(f"python3.{minor}") for minor in range(10, 20)))
    pyenv = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")
    candidates += map(str, sorted(pyenv.glob("versions/*/bin/python3")))
    found: dict[tuple[int, ...], str] = {}
    for exe in candidates:
        try:
            proc = subprocess.run(
                [exe, "-c", "import sys; print(sys.implementation.name, *sys.version_info[:3])"],
                capture_output=True, text=True, timeout=30,
            )
        except OSError:
            continue
        out = proc.stdout.split()
        if proc.returncode == 0 and out[:1] == ["cpython"]:
            version = tuple(map(int, out[1:]))
            if version >= (3, 10):
                found.setdefault(version, exe)
    return {".".join(map(str, version)): found[version] for version in sorted(found)}


@pytest.mark.parametrize("vulns", ["on", "off"])
def test_hash_seed_does_not_change_the_run(tmp_path, vulns):
    a = run_demo(sys.executable, tmp_path / "a", vulns, hash_seed="1")
    b = run_demo(sys.executable, tmp_path / "b", vulns, hash_seed="12345")
    assert differing_artifacts(a, b) == []


@pytest.mark.parametrize("vulns", ["on", "off"])
def test_interpreter_does_not_change_the_run(tmp_path, vulns):
    pythons = cpythons()
    if len(pythons) < 2:
        pytest.skip(f"fewer than two CPython >= 3.10 found: {list(pythons)}")
    runs = {version: run_demo(exe, tmp_path / version, vulns) for version, exe in pythons.items()}
    first, *others = runs
    assert {v: differing_artifacts(runs[first], runs[v]) for v in others} == {
        v: [] for v in others
    }

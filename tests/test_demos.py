"""The narrative demos run to completion and write their CSV artifacts."""

import sys
from pathlib import Path

import pytest

from conftest import run_child

DEMO_DIR = Path(__file__).resolve().parents[1] / "demos"

# demo script -> CSV files it writes under demo_output/
DEMOS = {
    "01_admissibility.py": [],
    "02_krein_matrices.py": [],
    "03_scattering_unitarity.py": ["kernel_samples.csv", "fringes.csv"],
    "04_resolvent_checks.py": ["kernel_slice.csv"],
}


def test_every_demo_is_listed():
    assert sorted(p.name for p in DEMO_DIR.glob("*.py")) == sorted(DEMOS)


@pytest.mark.parametrize("demo", sorted(DEMOS))
def test_demo_runs(tmp_path, demo):
    proc = run_child([sys.executable, str(DEMO_DIR / demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    for name in DEMOS[demo]:
        assert (tmp_path / "demo_output" / name).stat().st_size > 0

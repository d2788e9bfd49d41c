"""The narrative demos run to completion, without a warning, and write
their CSV artifacts."""

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
    # the child interpreter does not read pytest's warning filters, so it
    # is given the same one
    proc = run_child([sys.executable, "-W", "error::RuntimeWarning",
                      str(DEMO_DIR / demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    for name in DEMOS[demo]:
        assert (tmp_path / "demo_output" / name).stat().st_size > 0

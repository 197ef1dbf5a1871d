"""The package surface: top-level exports, the README's Quick start and the demo transcripts."""
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ketsim

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

EXPORTS = {
    "BINARY_FUNCTIONS", "SCENARIO_NAMES", "BinaryFunction", "Circuit", "Gate",
    "RegimeSystem", "adjoint", "apply", "basis_distribution", "bool_mat_mul",
    "circuit_matrix", "collapse", "compose_parallel", "compose_sequential", "evolve",
    "first_attempt", "is_product_state", "ket_of_bits", "kron", "mat_mul", "mat_vec",
    "modulus_squared", "norm", "oracle_matrix", "parallel", "random_source",
    "run_deutsch", "run_scenario", "sample_counts", "scenario", "second_attempt", "sequential",
    "spectral_decompose", "standard_gate", "state_tensor", "step", "validate",
}


def test_exports_are_exactly_the_documented_names():
    assert len(ketsim.__all__) == len(EXPORTS) == 37
    assert set(ketsim.__all__) == EXPORTS
    documented = set(re.findall(r"`([A-Za-z_]+)`", (ROOT / "README.md").read_text()))
    for name in ketsim.__all__:
        assert getattr(ketsim, name) is not None
        assert name in documented, f"{name} is exported but not named in README.md"


def test_a_child_process_imports_the_package_these_tests_import():
    # subprocess tests inherit this environment: under PYTHONPATH=src they run src/, and with
    # the package installed, the installed copy
    done = subprocess.run([sys.executable, "-c", "import ketsim; print(ketsim.__file__)"],
                          capture_output=True, text=True, check=False)
    assert (done.returncode, done.stdout, done.stderr) == (0, ketsim.__file__ + "\n", "")


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_prints_its_transcript(demo):
    done = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, check=False)
    assert done.returncode == 0
    assert done.stderr == ""
    assert done.stdout == (ROOT / "tests" / "golden" / "demos" / f"{demo.stem}.txt").read_text()


def test_the_readme_quick_start_runs_as_written():
    section = (ROOT / "README.md").read_text().split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"^```python\n(.*?)^```$", section, re.MULTILINE | re.DOTALL).group(1)
    done = subprocess.run([sys.executable, "-W", "error", "-c", code],
                          capture_output=True, text=True, check=False)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[0.25  0.375 0.375]\n", "")

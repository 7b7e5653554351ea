"""What a fresh interpreter loads: ``import dtnlab`` and a ``dtnlab solve``
load the solve path only, not the analysis modules or scipy.optimize and
scipy.integrate, which serve one call each elsewhere."""
import json
import os
import subprocess
import sys
from pathlib import Path

import dtnlab

SRC = str(Path(dtnlab.__file__).resolve().parents[1])


def loaded_after(code: str, candidates) -> list[str]:
    """The ``candidates`` in ``sys.modules`` after running ``code`` in a new
    interpreter that imports this checkout's dtnlab."""
    probe = f"{code}\nimport json, sys\nprint(json.dumps([m for m in {list(candidates)!r} if m in sys.modules]))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_the_solve_path_only():
    """The solve path factors with scipy.linalg's BLAS and LAPACK; SuperLU
    (scipy.sparse.linalg) serves only the Green route."""
    heavy = ["scipy.optimize", "scipy.integrate", "scipy.sparse.linalg", "dtnlab.analysis",
             "dtnlab.cli"]
    assert loaded_after("import dtnlab", heavy) == []
    assert loaded_after("import dtnlab", ["dtnlab.pipeline", "scipy.linalg"]) == [
        "dtnlab.pipeline", "scipy.linalg"]


def test_solve_command_loads_no_analysis_module(tmp_path):
    code = ("from dtnlab import cli\n"
            f"assert cli.main(['solve', '--domain', 'disk:R=1', '--h', '0.3', '--count', '2', "
            f"'--out', {str(tmp_path)!r}]) == 0")
    unwanted = ["dtnlab.analysis", "dtnlab.conjecture", "dtnlab.greens", "scipy.optimize",
                "scipy.sparse.linalg"]
    assert loaded_after(code, unwanted) == []
    assert (tmp_path / "eigenvalues.csv").exists()

"""Importing the package loads only what the simulator uses: scipy comes in
on the first call of a censored-Gaussian tool that needs it (the log
atoms, and so the mass and the KL; the density is plain math), the process
pool only when a sweep asks for workers, and the verification checks only
when the CLI needs them.  ``checks`` builds its runs with ``cli``, which imports
``checks`` late, so either module also imports first on its own."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# run in a fresh interpreter: the test helpers import scipy.stats, so this
# process has scipy loaded whatever the package does
CHILD = """
import json, sys
import delaybandits, delaybandits.cli
from delaybandits import analysis

at_import = sorted(m for m in sys.modules
                   if m == "scipy" or m.startswith("scipy.")
                   or m in ("concurrent.futures.process", "delaybandits.checks"))
cg = analysis.CensoredGaussian(0.7, 0.2)
density = cg.density(0.7)
after_density = "scipy" in sys.modules
cg.log_atoms()
after_atoms = "scipy.special" in sys.modules
kl = analysis.censored_kl(cg, analysis.CensoredGaussian(0.8, 0.2))
print(json.dumps({"at_import": at_import, "density": density,
                  "after_density": after_density, "after_atoms": after_atoms,
                  "kl": kl, "after_kl": "scipy.integrate" in sys.modules}))
"""


def last_line(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    return out.splitlines()[-1]


def test_import_loads_neither_scipy_nor_the_process_pool():
    report = json.loads(last_line(CHILD))
    assert report["at_import"] == []
    assert report["density"] > 0.0
    assert not report["after_density"]
    assert report["after_atoms"]
    assert 0.0 < report["kl"] < float("inf")
    assert report["after_kl"]
    # checks imports cli at module level, so it must also load first
    assert last_line("import delaybandits.checks as c; print(*c.SUITES)") == (
        "splits thm1 lowerbound walk kl wrapper")

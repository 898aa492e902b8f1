"""Importing the package loads only what the simulator uses: scipy comes in
on the first call of a censored-Gaussian tool, and the process pool only
when a sweep asks for workers."""

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
                   or m == "concurrent.futures.process")
kl = analysis.censored_kl(analysis.CensoredGaussian(0.7, 0.2),
                          analysis.CensoredGaussian(0.8, 0.2))
print(json.dumps({"at_import": at_import, "kl": kl,
                  "after_kl": "scipy.integrate" in sys.modules}))
"""


def test_import_loads_neither_scipy_nor_the_process_pool():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", CHILD], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    report = json.loads(out.splitlines()[-1])
    assert report["at_import"] == []
    assert 0.0 < report["kl"] < float("inf")
    assert report["after_kl"]

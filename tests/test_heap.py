"""The heap policy that importing ``vmvp`` sets (``vmvp._heap``).

Measured in a fresh interpreter, since a test process's heap has already
been shaped by every test before it.
"""

import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vmvp

PACKAGE_PARENT = Path(vmvp.__file__).parent.parent

# 10 warm-up and 20 counted m = 2, K = 16, 4096-point evaluate_at calls; prints
# mallopt's return codes and the mean minor page faults per counted call
FAULT_PROBE = """
import json, resource
import numpy as np
import vmvp
from vmvp.spectral import SpectralField
rng = np.random.default_rng(0)
c = rng.standard_normal((2, 33, 33)) + 1j * rng.standard_normal((2, 33, 33))
field = SpectralField(2, 16, c)
pts = rng.random((4096, 2)) * 2 * np.pi
for _ in range(10):
    field.evaluate_at(pts)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    field.evaluate_at(pts)
after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print(json.dumps({"codes": list(vmvp._mallopt_codes), "faults_per_call": (after - before) / 20}))
"""


def has_mallopt() -> bool:
    return sys.platform.startswith("linux") and hasattr(ctypes.CDLL(None), "mallopt")


@pytest.mark.skipif(not has_mallopt(), reason="the C library has no mallopt")
def test_warm_evaluate_at_reuses_its_temporaries():
    # with glibc's start thresholds each call maps and zero-fills its
    # multi-MB temporaries afresh: about 1,060 minor faults per call, and
    # 1,070-1,650 with only one of the two thresholds pinned
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(PACKAGE_PARENT), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", FAULT_PROBE], capture_output=True, text=True, env=env, check=True)
    result = json.loads(out.stdout)
    assert result["codes"] == [1, 1]
    assert result["faults_per_call"] < 50

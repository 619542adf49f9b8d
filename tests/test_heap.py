"""The CLI holds glibc's heap across a chunk's temporaries; the library leaves the allocator be."""

import ctypes
import os
import sys

import pytest

from test_imports import ROOT, _run


def _glibc() -> bool:
    """glibc with mallinfo2 (2.33 and later), which the probe reads."""
    try:
        found = os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False
    return found and hasattr(ctypes.CDLL(None), "mallinfo2")


pytestmark = pytest.mark.skipif(not _glibc(), reason="the heap setting acts only under glibc")

#: argv: "main" or "import", then a CSV path.  Prints the minor page faults of a second K=3
#: chunk (the sweep-k3 curves on the default network) and whether glibc served a 16 MiB block
#: from mmap, as its default thresholds do.
PROBE = """
import ctypes
import resource
import sys

import fadefusion.cli as cli

if sys.argv[1] == "main":
    code = cli.main(["run", "--config", "tests/golden/outage-compare.ini", "--trials", "64",
                     "--workers", "1", "--output", sys.argv[2]])
    assert code == 0

import numpy as np

from fadefusion import analysis
from fadefusion.channel import default_network

budgets = tuple(np.logspace(-3, -1.6, 8))  # 0..14 dBm
curves = [analysis.Curve("outage", 3, budgets, policy, 0.02)
          for policy in (analysis.EqualPolicy(), analysis.OptimalPolicy())]
task = (default_network(), curves, 1, 0, analysis.CHUNK_TRIALS)
analysis._sweep_chunk(task)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
analysis._sweep_chunk(task)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


class MallInfo2(ctypes.Structure):
    _fields_ = [("fields", ctypes.c_size_t * 10)]  # hblkhd, the mmapped bytes, is the 5th


mallinfo2 = ctypes.CDLL(None).mallinfo2
mallinfo2.argtypes, mallinfo2.restype = (), MallInfo2
mapped = mallinfo2().fields[4]
block = np.ones(2 << 20)
print(faults, mallinfo2().fields[4] > mapped)
"""


def probe(tmp_path, setup, **environ):
    env = {key: value for key, value in os.environ.items()
           if key != "GLIBC_TUNABLES" and not (key.startswith("MALLOC_") and key.endswith("_"))}
    done = _run([sys.executable, "-c", PROBE, setup, str(tmp_path / "out.csv")],
                {**env, **environ}, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    faults, mapped = done.stdout.splitlines()[-1].split()  # after the run's summary line
    return int(faults), mapped == "True"


def test_after_the_cli_set_up_a_chunk_reuses_the_heap(tmp_path):
    faults, mapped = probe(tmp_path, "main")
    assert faults < 300, f"{faults} minor faults in one chunk"
    assert not mapped


def test_a_caller_set_malloc_variable_leaves_the_allocator_alone(tmp_path):
    faults, mapped = probe(tmp_path, "main", MALLOC_TRIM_THRESHOLD_="131072")
    assert mapped
    assert faults >= 300


def test_importing_the_cli_changes_nothing(tmp_path):
    faults, mapped = probe(tmp_path, "import")
    assert mapped
    assert faults >= 300

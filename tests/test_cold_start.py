"""What a fresh interpreter loads: ``import tamecert`` loads no NumPy, and
``import tamecert.cli`` loads it with one OpenBLAS thread unless the user set
a thread count.  Each case runs in a subprocess whose environment has none of
the thread variables but those the case sets."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _fresh(code: str, **env) -> dict:
    """Run ``code`` in a new interpreter and return the JSON it prints last."""
    base = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    base["PYTHONPATH"] = str(SRC)
    proc = subprocess.run([sys.executable, "-c", code], env={**base, **env},
                          capture_output=True, text=True, timeout=60, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_tamecert_loads_no_numpy():
    out = _fresh("import json, sys, tamecert; print(json.dumps('numpy' in sys.modules))")
    assert out is False


def test_reexports_resolve_lazily():
    out = _fresh(
        "import json, tamecert\n"
        "same = tamecert.CirclePoint is tamecert.exactarith.CirclePoint\n"
        "names = [n for n in ('GOLDEN', 'SQRT2_MINUS_1', 'ApproachSequence', 'RotationNumber',\n"
        "         'one_sided_approach', 'parse_rotation_number')\n"
        "         if getattr(tamecert, n) is not getattr(tamecert.exactarith, n)]\n"
        "try:\n"
        "    tamecert.nope\n"
        "    error = None\n"
        "except AttributeError as exc:\n"
        "    error = str(exc)\n"
        "print(json.dumps([same, names, error]))"
    )
    assert out == [True, [], "module 'tamecert' has no attribute 'nope'"]


_CLI_STATE = (
    "import json, os, sys\n"
    "import tamecert.cli\n"
    "tasks = len(os.listdir('/proc/self/task')) if sys.platform == 'linux' else None\n"
    "print(json.dumps([{k: os.environ.get(k) for k in %r}, tasks]))" % (THREAD_VARS,)
)


def test_cli_loads_numpy_single_threaded():
    env, tasks = _fresh(_CLI_STATE)
    assert env == {"OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": None,
                   "OMP_NUM_THREADS": None}
    if sys.platform == "linux":
        assert tasks == 1


@pytest.mark.parametrize("var", ["OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS"])
def test_a_users_thread_count_wins(var):
    env, _ = _fresh(_CLI_STATE, **{var: "2"})
    assert env == {k: "2" if k == var else None for k in THREAD_VARS}

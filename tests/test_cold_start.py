"""What a fresh interpreter loads and prints: the lazy ``maf`` namespace and first use.

``import maf`` resolves its public names on first access, so building a system loads
only the modules that a build runs.  The subprocess tests start a new interpreter,
because in this one every module is loaded already.
"""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import maf

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(maf.__file__).resolve().parents[1])
# what building the bundled systems must not load: the modules a build does not run
NOT_FOR_A_BUILD = ("maf.spectral", "maf.highdim", "maf.cli", "numpy.polynomial", "numpy.random", "csv")


def fresh(*args: str) -> bytes:
    """stdout of ``python *args`` in a new interpreter that imports this ``maf``."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, check=True).stdout


def test_import_loads_no_submodule():
    out = fresh("-c", "import sys, maf; print(sorted(m for m in sys.modules if m.startswith('maf.')))")
    assert out.decode().split() == ["[]"]


def test_building_loads_only_what_a_build_runs():
    code = (
        "import sys\n"
        "from maf.config import build_system, load_bundled\n"
        "for name in ('landau', 'conjugate', 'alteration'):\n"
        "    build_system(load_bundled(name))\n"
        "print(*(m for m in sys.argv[1:] if m in sys.modules))\n"
    )
    assert fresh("-c", code, *NOT_FOR_A_BUILD).decode().split() == []


def test_every_public_name_resolves():
    assert maf.__all__
    missing = []
    for name in maf.__all__:
        namespace = {}
        exec(f"from maf import {name}", namespace)
        home = importlib.import_module(f"maf.{maf._HOME[name]}")
        if namespace[name] is not getattr(home, name) or name not in dir(maf):
            missing.append(name)
    assert missing == []


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="nonexistent"):
        maf.nonexistent
    assert not hasattr(maf, "cocycle_defect")
    from maf import cli  # a submodule, not a public name, still imports

    assert cli is sys.modules["maf.cli"]


def test_readme_quick_start_cold():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = next(block for block in re.findall(r"```python\n(.*?)```", readme, re.S) if "from maf import" in block)
    lines = fresh("-c", code).decode().splitlines()
    assert lines[:2] == ["1.5", "True"]


def test_field_csv_cold():
    out = fresh("-m", "maf.cli", "field", "--config", "landau", "--format", "csv")
    assert out == b"name,max_residual,mean_residual,tol,pass\r\nfield_constancy,0.0,0.0,1e-08,True\r\n\n"


def test_line_integral_cold():
    # the 16-point Gauss-Legendre table is made on the first call, the same bits as before
    code = (
        "import numpy as np\n"
        "from maf.fields import OneForm, ScalarField, line_integral\n"
        "w = OneForm(ScalarField(lambda z: z * z), ScalarField(lambda z: np.exp(z.conjugate())))\n"
        "v = line_integral(w, [0, 1 + 2j, -1 + 0.5j], n_sub=3)\n"
        "print(v.real.hex(), v.imag.hex())\n"
    )
    assert fresh("-c", code).decode().split() == ["-0x1.855ec8140a118p-1", "0x1.20bac95ac50f0p-2"]

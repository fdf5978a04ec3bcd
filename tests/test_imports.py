"""Which modules a CLI process loads, and the package's public namespace.

Each test runs a fresh interpreter, as this one has long since imported
the whole package.  `python -v` names every module a process imports,
those a `from . import x` loads included, which `-X importtime` misses.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tdpair121
from tdpair121 import Field, ParameterArray, construct

SRC = str(Path(tdpair121.__file__).parents[1])

# the public names of the package, by the submodule that defines them, as
# they were when `import tdpair121` imported them all
PUBLIC = {
    "bases": ["BasisId", "EtaVectors", "basis_matrix", "canonical_seed", "eta_vectors",
              "represent", "represent_formula", "transition_formula", "transition_numeric"],
    "fields": ["Field", "FieldElement", "QQ", "field_arith", "parse_element"],
    "linalg": ["EigenData", "Matrix", "SingularMatrixError", "Subspace", "charpoly",
               "eigen_data", "poly_roots", "primitive_idempotents", "subspace_combine",
               "subspace_intersection", "subspace_sum"],
    "params": ["AdmissibilityReport", "D4Word", "DerivedParams", "FLIP_DUAL", "FLIP_PRIMARY",
               "ParameterArray", "SWAP", "admissible", "canonical_matrices", "construct",
               "derived_of_relative_consistency", "derived_params", "extract_parameter_array",
               "relative"],
    "tdsystem": ["Decomposition", "TDSystem", "VerificationReport", "common_invariant_subspace",
                 "find_td_orderings", "shape", "split_decomposition", "verify_split_actions",
                 "verify_td_system"],
}
NAMES = sorted([*PUBLIC, *(name for names in PUBLIC.values() for name in names)])
EVERY_MODULE = {"tdpair121", "tdpair121.__main__", "tdpair121.cli", "tdpair121._poly",
                *(f"tdpair121.{m}" for m in PUBLIC)}


def child(*args):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("TDP_MAX_GRID", None)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=60, env=env)


def loaded_by(*argv):
    """The tdpair121 modules that `python -m tdpair121 *argv` loads."""
    proc = child("-v", "-m", "tdpair121", *argv)
    assert proc.returncode == 0, proc.stderr[-2000:]
    names = set(re.findall(r"^import '(tdpair121(?:\.\w+)*)'", proc.stderr, re.M))
    # -m runs tdpair121.__main__ as __main__, never importing it under its
    # own name; -v still reports reading its code
    if re.search(r"^# code object from .*tdpair121.*__main__\.", proc.stderr, re.M):
        names.add("tdpair121.__main__")
    return names


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    pa = ParameterArray.make(Field(10007), (1, 2, 3), (5, 7, 11), 13, 17)
    system = construct(pa).to_json()
    bare = {k: v for k, v in system.items() if k not in ("theta", "thetastar")}
    out = {}
    for name, doc in (("pa", pa.to_json()), ("system", system), ("bare", bare)):
        out[name] = str(tmp / f"{name}.json")
        Path(out[name]).write_text(json.dumps(doc))
    return out


def test_enumerate_loads_fields_alone():
    assert loaded_by("enumerate", "--p", "5", "--orbits") == {
        "tdpair121", "tdpair121.__main__", "tdpair121.cli", "tdpair121.fields"}


@pytest.mark.parametrize("system", ["system", "bare"])
def test_verify_loads_neither_bases_nor_params(files, system):
    loaded = loaded_by("verify", files[system])
    assert "tdpair121.tdsystem" in loaded
    assert not loaded & {"tdpair121.bases", "tdpair121.params"}, loaded


def test_construct_does_not_load_bases(files):
    loaded = loaded_by("construct", files["pa"])
    assert "tdpair121.params" in loaded
    assert "tdpair121.bases" not in loaded


def test_report_loads_every_module(files):
    # the reading of -v above sees every module when every one is loaded
    assert loaded_by("report", "--full", files["pa"]) == EVERY_MODULE


NAMESPACE_PROBE = """
import json, sys
import tdpair121
out = {"bare_import_loads": sorted(m for m in sys.modules if m.startswith("tdpair121."))}
out["public"] = [n for n in dir(tdpair121) if not n.startswith("_")]
out["linalg"] = tdpair121.linalg is sys.modules["tdpair121.linalg"]
star = {}
exec("from tdpair121 import *", star)
out["star"] = sorted(n for n in star if n != "__builtins__")
public = json.loads(sys.argv[1])
out["same"] = {n: getattr(tdpair121, n) is getattr(sys.modules["tdpair121." + m], n)
               for m, names in public.items() for n in names}
out["submodules"] = {m: getattr(tdpair121, m) is sys.modules["tdpair121." + m] for m in public}
out["bound"] = sorted(set(out["public"]) - set(vars(tdpair121)))
print(json.dumps(out))
"""


def test_public_namespace_is_unchanged():
    proc = child("-c", NAMESPACE_PROBE, json.dumps(PUBLIC))
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["bare_import_loads"] == []
    assert out["public"] == NAMES
    assert out["linalg"] is True
    assert out["star"] == NAMES
    assert out["same"] == {n: True for names in PUBLIC.values() for n in names}
    assert out["submodules"] == {m: True for m in PUBLIC}
    # each name read once is bound in the package, so a later read is a
    # plain attribute lookup
    assert out["bound"] == []

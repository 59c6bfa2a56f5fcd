"""The package's import contract and re-export surface.

``import clawlab`` loads only the graph core; the names re-exported from
the other modules load them on first use.  ``import clawlab.cli`` loads
every module, which the benchmark looks up in ``sys.modules`` by name.
The import checks run in fresh interpreters, as this one has loaded
everything already.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import clawlab

SRC = Path(__file__).resolve().parent.parent / "src"

EXPORTS = {
    "canonical_form": "canon",
    "canonical_label": "canon",
    "is_isomorphic": "canon",
    "Graph": "graphs",
    "GraphError": "graphs",
    "parse_graph6": "graphs",
    "to_graph6": "graphs",
    "NeighborhoodShape": "patterns",
    "classify_cycle_neighborhood": "patterns",
    "find_induced": "patterns",
    "is_free": "patterns",
    "pattern_graph": "patterns",
    "InvariantReport": "invariants",
    "PerfectionVerdict": "invariants",
    "chromatic_number": "invariants",
    "clique_number": "invariants",
    "find_odd_antihole": "invariants",
    "find_odd_hole": "invariants",
    "independence_number": "invariants",
    "invariant_report": "invariants",
    "is_complete_multipartite": "invariants",
    "is_omega_colourable": "invariants",
    "is_perfect": "invariants",
    "FamilySpec": "families",
    "InflationSpec": "families",
    "build_family": "families",
    "build_inflation": "families",
    "verify_family_claims": "families",
    "InflationPartition": "structure",
    "StructureVerdict": "structure",
    "classify_claw_bull_free": "structure",
    "olariu_classify": "structure",
    "recognize_inflation": "structure",
    "EnumerationConfig": "enumeration",
    "enumerate_graphs": "enumeration",
    "oracle_enumerate": "enumeration",
    "VerificationReport": "verify",
    "report_emit": "verify",
}


def fresh_import(statement: str) -> dict:
    """The clawlab modules, ``dir(clawlab)`` and whether ``dataclasses``
    and ``csv`` are loaded, after ``statement`` runs in a fresh interpreter."""
    probe = (
        f"{statement}\n"
        "import json, sys\n"
        "print(json.dumps({'clawlab': sorted(m for m in sys.modules if m.split('.')[0] == 'clawlab'),"
        " 'dir': dir(sys.modules['clawlab']),"
        " 'dataclasses': 'dataclasses' in sys.modules, 'csv': 'csv' in sys.modules}))\n"
    )
    cmd = [sys.executable, "-c", probe]
    proc = subprocess.run(cmd, cwd=SRC, capture_output=True, text=True, timeout=60, check=True)
    return json.loads(proc.stdout)


def test_package_import_loads_only_the_core():
    loaded = fresh_import("import clawlab")
    core = {"clawlab", "clawlab.graphs", "clawlab.kernels", "clawlab.canon", "clawlab.patterns"}
    assert set(loaded["clawlab"]) - {"clawlab._augment"} == core
    assert not loaded["dataclasses"] and not loaded["csv"]
    # the lazy names are listed before they load
    assert set(EXPORTS) <= set(loaded["dir"])


def test_lazy_name_loads_its_module():
    loaded = fresh_import("from clawlab import FamilySpec")
    assert "clawlab.families" in loaded["clawlab"] and "clawlab.verify" not in loaded["clawlab"]


def test_cli_import_loads_every_module_the_bench_reads():
    loaded = fresh_import("import clawlab.cli")
    names = ("canon", "patterns", "invariants", "structure", "families", "verify", "enumeration", "kernels", "graphs")
    assert {f"clawlab.{name}" for name in names} | {"clawlab.cli"} <= set(loaded["clawlab"])
    # csv loads only for a CSV report
    assert not loaded["csv"]


@pytest.mark.parametrize("name", sorted(EXPORTS))
def test_reexport_is_the_home_modules_object(name):
    home = importlib.import_module(f"clawlab.{EXPORTS[name]}")
    namespace = {}
    exec(f"from clawlab import {name}", namespace)
    assert namespace[name] is getattr(home, name)
    assert getattr(clawlab, name) is getattr(home, name)


def test_all_and_dir_list_the_exports():
    assert len(EXPORTS) == 38
    assert sorted(clawlab.__all__) == sorted(EXPORTS)
    assert set(EXPORTS) <= set(dir(clawlab))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        clawlab.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from clawlab import no_such_name", {})


def test_submodule_import_binds_the_module_not_a_reexport():
    # no re-export is named like a submodule, so neither the import nor the
    # package attribute can give the campaign function ``verify``
    import clawlab.verify as m

    assert m is sys.modules["clawlab.verify"] is clawlab.verify
    assert not {*EXPORTS.values(), "cli", "kernels"} & set(clawlab.__all__)

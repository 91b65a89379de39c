"""The package's public names are the union of its layer modules' __all__."""

import json
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import nfsense
from nfsense import ambiguity, closed_form, geometry, metrics, specfun

LAYERS = (geometry, ambiguity, closed_form, metrics, specfun)


def test_all_is_the_layer_lists():
    names = [name for module in LAYERS for name in module.__all__]
    assert nfsense.__all__ == names
    assert len(set(names)) == len(names)
    # once missing from the package's own copy of the list
    assert {"MAX_ELEMENTS", "fresnel_cs"} <= set(names)


def test_build_array_is_the_only_builder():
    for name in ("build_ula", "build_uca", "build_ura", "build_upca"):
        assert name not in nfsense.__all__
        assert not hasattr(geometry, name)
    assert not hasattr(closed_form, "base_layout")


def test_exports_are_the_defining_objects():
    for module in LAYERS:
        for name in module.__all__:
            obj = vars(module)[name]
            assert getattr(nfsense, name) is obj
            assert getattr(obj, "__module__", module.__name__) == module.__name__


def test_private_names_stay_unexported():
    for name in ("cli", "broadside_power_sweep", "single_element"):
        assert name not in nfsense.__all__


def test_quadratic_record_is_folded_into_compute_metrics():
    # the quadratic mainlobe model is part of the compute_metrics row
    for name in ("QuadraticGainAnalysis", "quadratic_gain_analysis"):
        assert name not in nfsense.__all__
        assert not hasattr(metrics, name)
        assert not hasattr(nfsense, name)


def test_version_is_the_project_version():
    # --version and every output's metadata print nfsense.__version__
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    assert nfsense.__version__ == project["version"]


def test_import_loads_only_the_layers():
    code = ("import sys, json, nfsense; print(json.dumps([sorted(m for m in "
            "sys.modules if m.startswith('nfsense')), "
            "'concurrent.futures' in sys.modules]))")
    src = str(Path(nfsense.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    loaded, futures = json.loads(out)
    assert loaded == ["nfsense"] + sorted(m.__name__ for m in LAYERS)
    assert not futures

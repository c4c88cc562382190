"""Lazy package exports and the one table of metric families.

Probes that depend on what a process has imported run in a fresh
interpreter, since the test session has imported most of the package.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.obs.families import FAMILIES

SRC = str(pathlib.Path(repro.__file__).resolve().parent.parent)


def _fresh(code: str) -> object:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=120)
    return json.loads(done.stdout.splitlines()[-1])


class TestLazyExports:
    def test_importing_a_package_imports_none_of_its_exports(self):
        loaded = _fresh(
            "import json, sys, repro.campaign, repro.timing\n"
            "print(json.dumps(sorted(m for m in sys.modules"
            " if m.startswith('repro'))))")
        assert loaded == ["repro", "repro.campaign", "repro.exports",
                          "repro.timing"]

    def test_first_use_imports_the_defining_module_and_caches(self):
        probe = _fresh(
            "import json, sys, repro.soak as soak\n"
            "fn = soak.wilson_interval\n"
            "print(json.dumps([fn.__module__,"
            " 'repro.soak.driver' in sys.modules,"
            " soak.__dict__.get('wilson_interval') is fn]))")
        assert probe == ["repro.soak.estimators", False, True]

    def test_all_dir_and_unknown_names(self):
        import repro.pipeline as pipeline

        assert "PipelineSimulation" in pipeline.__all__
        assert len(pipeline.__all__) == len(set(pipeline.__all__))
        assert set(pipeline.__all__) <= set(dir(pipeline))
        with pytest.raises(AttributeError, match="no_such_name"):
            pipeline.no_such_name  # noqa: B018

    @pytest.mark.parametrize("first", ["submodule", "package"])
    def test_an_export_keeps_its_name_over_its_submodule(self, first):
        # ``repro.circuit.evaluate`` is the function, whichever of the
        # package and the same-named submodule is imported first.
        imports = {"submodule": "import repro.circuit.evaluate",
                   "package": "import repro.circuit"}[first]
        probe = _fresh(
            f"import json, sys, types\n{imports}\n"
            "import repro.circuit, repro.circuit.evaluate\n"
            "from repro.circuit import evaluate\n"
            "module = sys.modules['repro.circuit.evaluate']\n"
            "print(json.dumps([evaluate is module.evaluate,"
            " repro.circuit.evaluate is module.evaluate,"
            " isinstance(module, types.ModuleType)]))")
        assert probe == [True, True, True]


class TestMetricFamilies:
    def test_every_declared_family_is_in_the_table_and_lint_clean(self):
        # Importing every module must declare nothing beyond the table.
        probe = _fresh(
            "import importlib, json, pkgutil, repro\n"
            "from repro import obs\n"
            "from repro.obs.exporters import lint_metric_names\n"
            "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
            "    importlib.import_module(info.name)\n"
            "print(json.dumps([[f.name for f in obs.REGISTRY.families()],"
            " lint_metric_names(obs.REGISTRY)]))")
        names, problems = probe
        assert sorted(names) == sorted(spec.name for spec in FAMILIES)
        assert len(names) == 34
        assert problems == []

    def test_families_are_declared_without_their_modules(self):
        probe = _fresh(
            "import json, sys\n"
            "from repro import obs\n"
            "from repro.obs.exporters import render_prometheus\n"
            "text = render_prometheus(obs.REGISTRY)\n"
            "print(json.dumps(['repro.sim.engine' in sys.modules,"
            " '# TYPE repro_sim_events_total counter' in text,"
            " len(obs.REGISTRY.families())]))")
        assert probe == [False, True, len(FAMILIES)]

    def test_an_undeclared_family_is_an_error(self):
        from repro import obs
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="not declared"):
            obs.REGISTRY.family("repro_no_such_total")

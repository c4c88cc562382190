"""Tests for the top-level package API and exports."""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest


class TestTopLevel:
    def test_version(self):
        import repro
        assert repro.__version__

    def test_top_level_exports(self):
        import repro
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_quickstart_docstring_flow(self):
        # The flow advertised in repro.__doc__ must actually run.
        from repro.core import TimberDesign, TimberStyle
        from repro.processor import MEDIUM_PERFORMANCE, generate_processor

        graph = generate_processor(MEDIUM_PERFORMANCE, num_stages=3,
                                   ffs_per_stage=40, seed=1)
        design = TimberDesign(graph=graph, style=TimberStyle.FLIP_FLOP,
                              percent_checking=30.0)
        summary = design.summary()
        assert summary["margin_percent"] == pytest.approx(10.0)


SUBPACKAGES = [
    "repro.circuit", "repro.sim", "repro.sequential", "repro.timing",
    "repro.variability", "repro.pipeline", "repro.core", "repro.power",
    "repro.processor", "repro.baselines", "repro.analysis",
]


class TestSubpackageExports:
    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_all_exports_resolve(self, module_name):
        module = importlib.import_module(module_name)
        assert hasattr(module, "__all__")
        for name in module.__all__:
            assert getattr(module, name) is not None, (
                f"{module_name}.{name} exported but missing")

    @pytest.mark.parametrize("module_name", SUBPACKAGES + ["repro"])
    def test_module_has_docstring(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and module.__doc__.strip()


#: Run in a fresh interpreter: import the runtime entry points, then
#: report whether the full-run oracle got loaded along the way.
_IMPORT_PROBE = """
import sys
import repro.cli, repro.campaign, repro.soak
print("repro.campaign.reference" in sys.modules)
print(sorted(
    name for name, module in list(sys.modules.items())
    if name.startswith("repro")
    and hasattr(module, "full_run_pipeline_fault")))
"""


class TestImportGraph:
    def test_runtime_never_imports_the_full_run_reference(self):
        import repro

        src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                     else []))
        probe = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE], env=env,
            capture_output=True, text=True, check=True, timeout=120)
        loaded, holders = probe.stdout.splitlines()
        assert loaded == "False"
        assert holders == "[]"
        # ...and the oracle is still there for tests and benchmarks.
        from repro.campaign.reference import FULL_RUN_TARGETS
        assert set(FULL_RUN_TARGETS) == {"pipeline", "graph"}

"""What a process loads: only the modules its command runs, before the run.

Each probe runs in a fresh interpreter, so the modules it reports are
the ones its own command pulled in, not the test session's.
"""

import json
import os
import pathlib
import subprocess
import sys

import repro

SRC = str(pathlib.Path(repro.__file__).resolve().parent.parent)

#: Packages no soak or campaign CLI run needs (the netlist target's
#: event-driven simulator, the cost models and the processor
#: generator), and the analysis modules other than table rendering.
NOT_LOADED = ("repro.power", "repro.processor", "repro.sequential",
              "repro.sim", "repro.circuit")
ANALYSIS_ALLOWED = {"repro.analysis", "repro.analysis.tables"}

_CLI_PROBE = """
import json, sys
from repro.cli import main
code = main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(m for m in sys.modules
                               if m.startswith("repro"))]))
"""

#: Resolves the runtime entry points, then runs one pipeline campaign,
#: one graph campaign and one soak, and reports every ``repro`` module
#: the runs imported.
_RUNTIME_PROBE = """
import json, sys, tempfile
import repro.campaign, repro.soak
from repro.campaign import CampaignConfig, run_campaign
from repro.exec import SweepRunner
from repro.soak import SoakConfig, run_soak

before = set(sys.modules)
runner = SweepRunner(workers=1, cache=None)
for target in ("pipeline", "graph"):
    run_campaign(CampaignConfig(target=target, scheme="timber-ff",
                                num_faults=40, num_cycles=300, seed=3),
                 runner=runner)
with tempfile.TemporaryDirectory() as tmp:
    run_soak(SoakConfig(campaign=CampaignConfig(
                 target="graph", scheme="timber-ff", num_cycles=300,
                 seed=3), faults_per_round=30),
             journal_path=tmp + "/journal.jsonl", runner=runner,
             max_rounds=2)
print(json.dumps(sorted(m for m in set(sys.modules) - before
                        if m.startswith("repro"))))
"""


def _probe(code: str, *args: str, cwd: pathlib.Path) -> object:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([os.environ["PYTHONPATH"]]
                 if os.environ.get("PYTHONPATH") else []))
    done = subprocess.run(
        [sys.executable, "-c", code, *args], cwd=cwd, env=env,
        capture_output=True, text=True, check=True, timeout=300)
    return json.loads(done.stdout.splitlines()[-1])


def _unneeded(modules: list[str]) -> list[str]:
    return [name for name in modules
            if name.startswith(NOT_LOADED)
            or (name.startswith("repro.analysis")
                and name not in ANALYSIS_ALLOWED)]


class TestCliLoads:
    def test_soak_loads_only_what_it_runs(self, tmp_path):
        code, modules = _probe(_CLI_PROBE, json.dumps([
            "soak", "--target", "graph", "--scheme", "timber-ff",
            "--cycles", "300", "--rounds", "2", "--faults-per-round",
            "30", "--seed", "3", "--no-cache", "--quiet",
            "--journal", "journal.jsonl", "--checkpoint", "cp.json",
            "--events", "events.jsonl", "--out", "out.json"]),
            cwd=tmp_path)
        assert code == 0
        assert "repro.soak.driver" in modules
        assert _unneeded(modules) == []

    def test_campaign_loads_only_what_it_runs(self, tmp_path):
        code, modules = _probe(_CLI_PROBE, json.dumps([
            "campaign", "--target", "pipeline",
            "--schemes", "plain,timber-ff", "--faults", "40",
            "--cycles", "300", "--seed", "3", "--cache-dir", "cache",
            "--checkpoint", "cp.json", "--events", "events.jsonl",
            "--out", "out.json"]), cwd=tmp_path)
        assert code == 0
        assert "repro.campaign.engine" in modules
        assert _unneeded(modules) == []


class TestRuntimeLoads:
    def test_runs_import_nothing_after_their_entry_points(self, tmp_path):
        # A module a run needs is imported with the entry points, never
        # inside the run: a benchmark times only the run.
        assert _probe(_RUNTIME_PROBE, cwd=tmp_path) == []

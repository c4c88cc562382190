"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "TIMBER" in out
        assert "Rollback" in out

    def test_waveforms_ascii(self, capsys):
        assert main(["waveforms", "--style", "latch"]) == 0
        out = capsys.readouterr().out
        assert "clk" in out
        assert "stage2 flagged: True" in out

    def test_waveforms_vcd(self, tmp_path, capsys):
        path = tmp_path / "wave.vcd"
        assert main(["waveforms", "--vcd", str(path)]) == 0
        assert path.read_text().startswith("$timescale")

    def test_deploy(self, capsys):
        assert main(["deploy", "--point", "low", "--checking", "20",
                     "--style", "latch"]) == 0
        out = capsys.readouterr().out
        assert "power_overhead_percent" in out
        assert "margin_percent" in out

    def test_deploy_no_tb_changes_margin(self, capsys):
        main(["deploy", "--point", "low", "--checking", "30"])
        with_tb = capsys.readouterr().out
        main(["deploy", "--point", "low", "--checking", "30", "--no-tb"])
        without = capsys.readouterr().out

        def margin(text):
            line = next(l for l in text.splitlines()
                        if l.startswith("margin_percent"))
            return float(line.split()[-1])

        assert margin(with_tb) == pytest.approx(10.0)
        assert margin(without) == pytest.approx(15.0)

    def test_energy(self, capsys):
        assert main(["energy", "--checking", "30"]) == 0
        out = capsys.readouterr().out
        assert "TIMBER flip-flop" in out
        assert "scaled Vdd" in out


class TestSweepCommand:
    def test_sweep_resilience_no_cache(self, capsys):
        assert main(["sweep", "resilience", "--cycles", "300",
                     "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "timber-ff" in out
        assert "tasks: 20" in out        # run summary is printed
        assert "misses: 20" in out

    def test_sweep_uses_cache_and_writes_summary(self, tmp_path,
                                                 capsys):
        cache_dir = str(tmp_path / "cache")
        summary_path = tmp_path / "summary.json"
        argv = ["sweep", "shootout", "--cycles", "200",
                "--cache-dir", cache_dir]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--summary", str(summary_path)]) == 0
        out = capsys.readouterr().out
        assert "cache hits: 8" in out

        import json

        summary = json.loads(summary_path.read_text(encoding="utf-8"))
        assert summary["cache_hits"] == 8
        assert summary["tasks"] == 8

    def test_sweep_parallel_workers(self, capsys):
        assert main(["sweep", "throughput", "--cycles", "200",
                     "--workers", "2", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "effective speedup" in out
        assert "2 worker(s)" in out


class TestMonitorCommand:
    def run_dir(self, tmp_path):
        spool = str(tmp_path / "events.jsonl")
        assert main(["sweep", "fig1", "--cycles", "200", "--no-cache",
                     "--events", spool]) == 0
        return tmp_path

    def test_monitor_once_dashboard(self, tmp_path, capsys):
        run_dir = self.run_dir(tmp_path)
        capsys.readouterr()
        assert main(["monitor", str(run_dir), "--once"]) == 0
        out = capsys.readouterr().out
        assert "done" in out
        assert "progress" in out

    def test_monitor_json_schema(self, tmp_path, capsys):
        run_dir = self.run_dir(tmp_path)
        capsys.readouterr()
        assert main(["monitor", str(run_dir), "--once",
                     "--json"]) == 0
        import json

        body = json.loads(capsys.readouterr().out)
        assert body["schema"] == 2
        assert body["status"] == "done"
        assert body["kind"] == "sweep"
        assert body["done"] == body["total"] == 3
        assert body["run_id"].startswith("sweep-")

    def test_monitor_html_report(self, tmp_path, capsys):
        run_dir = self.run_dir(tmp_path)
        capsys.readouterr()
        report = tmp_path / "report.html"
        assert main(["monitor", str(run_dir), "--once",
                     "--html", str(report)]) == 0
        page = report.read_text(encoding="utf-8")
        assert "<html" in page
        assert "sweep-" in page

    def test_monitor_missing_stream_exits_2(self, tmp_path, capsys):
        assert main(["monitor", str(tmp_path / "absent")]) == 2
        assert "error" in capsys.readouterr().err

    def test_monitor_corrupt_stream_exits_2(self, tmp_path, capsys):
        spool = tmp_path / "events.jsonl"
        spool.write_text("not json\n{}\n", encoding="utf-8")
        assert main(["monitor", str(spool)]) == 2
        assert "error" in capsys.readouterr().err

    def test_follow_terminates_on_finished_run(self, tmp_path,
                                               capsys):
        run_dir = self.run_dir(tmp_path)
        capsys.readouterr()
        assert main(["monitor", str(run_dir), "--follow",
                     "--interval", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "done" in out


class TestCampaignConfigErrors:
    @pytest.mark.parametrize("flag, value", [("--checking", "150"),
                                             ("--cycles", "2")])
    def test_bad_config_is_one_error_line_and_no_task(
            self, flag, value, capsys, monkeypatch):
        from repro.exec.runner import SweepRunner

        def no_tasks(self, tasks):
            raise AssertionError("a bad config must not reach the runner")

        monkeypatch.setattr(SweepRunner, "run", no_tasks)
        code = main(["campaign", "--faults", "10", "--no-cache",
                     flag, value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")

"""Smoke tests: every `repro-ft` subcommand runs and prints something."""

import pytest

from repro.campaign import JSONLStore
from repro.harness.cli import _COMMANDS, build_parser, main

#: Per-command argument lists sized for a fast smoke run.
SMOKE_ARGS = {
    "table1": [],
    "table2": ["--instructions", "800"],
    "figure3": [],
    "figure4": [],
    "figure5": ["--benchmarks", "go", "--instructions", "600"],
    "figure6": ["--benchmark", "go", "--instructions", "400"],
    "sensitivity": ["--benchmarks", "go", "--instructions", "500"],
    "coverage": [],
    "demo": ["--instructions", "600"],
    "campaign": ["--workloads", "gcc", "--models", "SS-2",
                 "--rates", "0,3000", "--replicates", "2",
                 "--instructions", "400", "--quiet"],
    "faults": ["--list"],
    "bench": ["--quick", "--out", ""],
    # Zero-op schedule: exercises the full clean-run/chaos-run/compare
    # machinery without waiting on fault fire times.  Real disturbed
    # runs live in tests/test_chaos.py and the chaos-smoke CI job.
    "chaos": ["--dir", "{tmpdir}", "--kills", "0", "--stalls", "0"],
    # The service pair cannot smoke in-process: `serve` runs until
    # signalled and `load` needs a live service.  Both are exercised
    # end to end (real subprocess, real sockets) in
    # tests/test_service_server.py and tests/test_loadgen.py.
    "serve": None,
    "load": None,
    # The static analyzer over the installed src tree (must be clean).
    "lint": [],
}


def test_smoke_args_cover_every_command():
    assert set(SMOKE_ARGS) == set(_COMMANDS)


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_subcommand_smoke(command, capsys, tmp_path):
    if SMOKE_ARGS[command] is None:
        pytest.skip("%s is covered by the service e2e suite" % command)
    args = [arg.replace("{tmpdir}", str(tmp_path))
            for arg in SMOKE_ARGS[command]]
    exit_code = main([command] + args)
    assert exit_code == 0
    out = capsys.readouterr().out
    assert out.strip(), "%s printed nothing" % command


class TestParser:
    def test_missing_command_is_an_error(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_is_an_error(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nosuch"])


class TestCampaignCli:
    def test_resume_requires_out(self):
        with pytest.raises(SystemExit):
            main(["campaign", "--resume"])

    @pytest.mark.parametrize("bad_args", [
        ["--mixes", "nosuch"],
        ["--workloads", "notabench"],
        ["--rates", "0,abc"],
        ["--replicates", "0"],
        ["--workers", "0"],
        ["--spec", "/nonexistent/spec.json"],
        ["--rates", "0,1000,1000"],
    ])
    def test_bad_input_exits_with_message(self, bad_args, capsys):
        # Every input error is a one-line message, not a traceback.
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "--quiet"] + bad_args)
        assert "repro-ft campaign:" in str(excinfo.value)

    @pytest.mark.parametrize("bad_args", [
        ["--workloads", "notabench"],
        ["--rates", "0,abc"],
        ["--resume"],
        ["--compact"],
    ], ids=["unknown-workload", "bad-rates", "resume-without-store",
            "compact-without-store"])
    def test_rejected_input_exits_2(self, bad_args, capsys):
        # Rejected before running, like argparse's usage errors.
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "--quiet"] + bad_args)
        assert excinfo.value.code == 2
        assert "repro-ft campaign:" in capsys.readouterr().err

    def test_out_without_resume_refuses_nonempty_store(self, tmp_path):
        out = str(tmp_path / "r.jsonl")
        args = ["campaign", "--workloads", "gcc", "--models", "SS-2",
                "--rates", "0", "--replicates", "1",
                "--instructions", "300", "--quiet", "--store", out]
        main(args)
        with pytest.raises(SystemExit) as excinfo:
            main(args)  # no --resume: must refuse, not wipe
        assert "already holds completed trials" in str(excinfo.value)

    def test_json_output(self, capsys):
        import json
        main(["campaign", "--workloads", "gcc", "--models", "SS-2",
              "--rates", "0", "--replicates", "1",
              "--instructions", "300", "--quiet", "--json"])
        cells = json.loads(capsys.readouterr().out)
        assert cells[0]["workload"] == "gcc"
        assert cells[0]["n"] == 1

    def test_json_stdout_stays_parseable_with_progress(self, capsys):
        # Progress lines go to stderr, so `--json > out.json` works
        # without --quiet.
        import json
        main(["campaign", "--workloads", "gcc", "--models", "SS-2",
              "--rates", "0", "--replicates", "2",
              "--instructions", "300", "--json"])
        captured = capsys.readouterr()
        assert json.loads(captured.out)
        assert "[1/2]" in captured.err

    def test_store_and_resume_flow(self, tmp_path, capsys):
        out = str(tmp_path / "r.jsonl")
        args = ["campaign", "--workloads", "gcc", "--models", "SS-2",
                "--rates", "0,3000", "--replicates", "2",
                "--instructions", "300", "--quiet", "--store", out]
        main(args)
        first = capsys.readouterr().out
        assert "executed 4, resumed (skipped) 0" in first
        main(args + ["--resume"])
        second = capsys.readouterr().out
        assert "executed 0, resumed (skipped) 4" in second

    def test_spec_file(self, tmp_path, capsys):
        import json
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(
            {"workloads": ["gcc"], "models": ["SS-2"],
             "rates_per_million": [0.0], "replicates": 2,
             "instructions": 300, "mixes": ["default"]}))
        exit_code = main(["campaign", "--spec", str(spec_path),
                          "--quiet"])
        assert exit_code == 0
        assert "2 trials" in capsys.readouterr().out


class TestCampaignCliV2:
    BASE = ["campaign", "--workloads", "gcc", "--models", "SS-2",
            "--rates", "0,3000", "--replicates", "2",
            "--instructions", "300", "--quiet"]

    def test_killed_store_resumes_the_rest(self, tmp_path, capsys):
        import json
        path = tmp_path / "r.jsonl"
        main(self.BASE + ["--store", str(path)])
        capsys.readouterr()
        # As a kill leaves it: two intact records and a torn line.
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:2]) + lines[2][:20])
        main(self.BASE + ["--store", str(path), "--resume"])
        assert "executed 2, resumed (skipped) 2" \
            in capsys.readouterr().out
        keys = [json.loads(line)["key"] for line in lines]
        assert JSONLStore(str(path)).completed_keys() == set(keys)

    @pytest.mark.parametrize("url,backend", [
        ("sqlite:x.db", "SQLite"), ("shard:d/", "sharded JSONL")])
    def test_removed_store_urls_exit_2(self, url, backend, tmp_path,
                                       monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(self.BASE + ["--store", url]) == 2
        assert backend in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_shard_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(self.BASE + ["--shard", "0/2"])
        assert excinfo.value.code == 2
        assert "--shard" in capsys.readouterr().err

    def test_override_axis(self, capsys):
        import json
        main(self.BASE[:-1] + ["--rates", "0", "--replicates", "1",
                               "--override", "rob8:rob_size=8",
                               "--override", "base:",
                               "--json", "--quiet"])
        cells = json.loads(capsys.readouterr().out)
        assert sorted(cell["machine"] for cell in cells) \
            == ["base", "rob8"]

    def test_override_extends_spec_file_axis(self, tmp_path, capsys):
        import json
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(
            {"workloads": ["gcc"], "models": ["SS-2"],
             "rates_per_million": [0.0], "replicates": 1,
             "instructions": 300,
             "machine_overrides": {"base": {},
                                   "rob64": {"rob_size": 64}}}))
        main(["campaign", "--spec", str(spec_path), "--quiet",
              "--override", "alu8:int_alu=8", "--json"])
        cells = json.loads(capsys.readouterr().out)
        # The CLI cell is ADDED to the file's axis, not replacing it.
        assert sorted(cell["machine"] for cell in cells) \
            == ["alu8", "base", "rob64"]
        # A name collision is ambiguous and refused.
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "--spec", str(spec_path), "--quiet",
                  "--override", "rob64:rob_size=32"])
        assert "already defined by --spec" in str(excinfo.value)

    def test_bad_override_exits_with_message(self):
        for flag in ("rob_szie=8", "rob8:rob_size", "rob8:=8"):
            with pytest.raises(SystemExit) as excinfo:
                main(self.BASE + ["--override", flag])
            assert "repro-ft campaign:" in str(excinfo.value)

    def test_compact(self, tmp_path, capsys):
        import json
        path = str(tmp_path / "r.jsonl")
        store = JSONLStore(path)
        store.append({"key": "aaaa", "outcome": "masked", "ipc": 1.0})
        store.append({"key": "aaaa", "outcome": "masked", "ipc": 2.0})
        store.append({"key": "bbbb", "outcome": "sdc"})
        with open(path, "a") as handle:
            handle.write('{"key": "torn')
        main(["campaign", "--store", path, "--compact"])
        out = capsys.readouterr().out
        assert "kept 2" in out
        assert "dropped 2" in out
        lines = [json.loads(line)
                 for line in open(path) if line.strip()]
        assert [line["key"] for line in lines] == ["aaaa", "bbbb"]
        assert lines[0]["ipc"] == 2.0

    def test_compact_requires_store(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "--compact"])
        assert "--compact requires --store" in str(excinfo.value)


class TestBenchCli:
    def test_quick_bench_writes_json(self, tmp_path, capsys):
        import json
        out = tmp_path / "BENCH_simulator.json"
        exit_code = main(["bench", "--quick", "--out", str(out)])
        assert exit_code == 0
        assert "speedup" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["quick"] is True
        assert payload["campaign"]["identical_records"] is True
        assert payload["campaign"]["reference_seconds"] > 0
        assert payload["campaign"]["optimized_seconds"] > 0
        assert payload["engine"]["rows"]

    def test_json_flag_prints_payload(self, capsys):
        import json
        exit_code = main(["bench", "--quick", "--out", "", "--json"])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["campaign"]["trials"] == 8

    def test_bench_out_appends_history(self, tmp_path, capsys):
        # BENCH_simulator.json is an append-per-PR history: a re-run
        # keeps the previous entry under "history" while the top level
        # stays the latest entry (v1 schema compatible).
        import json
        out = tmp_path / "BENCH_simulator.json"
        main(["bench", "--quick", "--out", str(out)])
        first = json.loads(out.read_text())
        assert "history" not in first
        main(["bench", "--quick", "--out", str(out)])
        capsys.readouterr()
        second = json.loads(out.read_text())
        assert second["campaign"]["identical_records"] is True
        assert second["engine"]["rows"]
        assert len(second["history"]) == 1
        previous = second["history"][0]
        assert previous["generated_at"] == first["generated_at"]
        assert "history" not in previous

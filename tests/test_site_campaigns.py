"""Fault-site campaigns: the ``fault_sites`` axis end to end."""

import json

import pytest

from repro.campaign import (CampaignSession, CampaignSpec,
                            ExecutionOptions, JSONLStore,
                            aggregate_structures, structures_to_json)
from repro.errors import ConfigError
from repro.faults.policy import RatePolicy
from repro.harness.experiment import site_sensitivity_spec


def sweep_spec(**overrides):
    kwargs = dict(
        name="site-grid",
        workloads=("gcc",),
        models=("SS-1", "SS-2"),
        rates_per_million=(0.0,),
        replicates=4,
        instructions=400,
        fault_sites={
            "sweep-rob": {"policy": "structure_sweep",
                          "structure": "rob_entry", "strikes": 1},
            "sweep-pc": {"policy": "structure_sweep",
                         "structure": "pc", "strikes": 1}})
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


class TestSpecAxis:
    def test_grid_size_multiplies(self):
        spec = sweep_spec()
        assert spec.grid_size == 1 * 2 * 1 * 1 * 2 * 4
        assert sum(1 for _ in spec.trials()) == spec.grid_size

    def test_nonzero_rates_are_refused(self):
        with pytest.raises(ConfigError):
            sweep_spec(rates_per_million=(0.0, 1000.0))

    def test_bad_cells_are_refused(self):
        with pytest.raises(ConfigError):
            sweep_spec(fault_sites={"x": {"policy": "nosuch"}})
        with pytest.raises(ConfigError):
            sweep_spec(fault_sites={"": {"policy": "structure_sweep",
                                         "structure": "pc"}})
        with pytest.raises(ConfigError):
            sweep_spec(fault_sites=[{"policy": "structure_sweep"}])

    def test_trials_carry_the_cell(self):
        spec = sweep_spec()
        names = {trial.sites for trial in spec.trials()}
        assert names == {"sweep-rob", "sweep-pc"}
        trial = next(iter(spec.trials()))
        config = json.loads(trial.site_config)
        assert config["policy"] == "structure_sweep"
        policy = trial.injection_policy()
        assert policy.seed == trial.fault_seed
        assert policy.horizon == trial.instructions + trial.warmup

    def test_replicates_sweep_different_sites(self):
        """Each replicate's sweep is seeded from its own trial key, so
        the cell samples distinct sites — that is the Monte Carlo."""
        spec = sweep_spec(models=("SS-2",))
        policies = [trial.injection_policy() for trial in spec.trials()
                    if trial.sites == "sweep-rob"]
        for policy in policies:
            policy.bind(2)
        site_sets = {tuple(policy.sites) for policy in policies}
        assert len(site_sets) == len(policies)

    def test_rate_only_trials_have_no_site_fields(self):
        spec = CampaignSpec(workloads=("gcc",), models=("SS-2",),
                            rates_per_million=(0.0, 1000.0),
                            replicates=1, instructions=300)
        for trial in spec.trials():
            data = trial.to_dict()
            assert "sites" not in data
            assert "site_config" not in data
            policy = trial.injection_policy()
            assert policy is None or isinstance(policy, RatePolicy)

    def test_spec_round_trips_through_json(self):
        spec = sweep_spec()
        clone = CampaignSpec.from_dict(
            json.loads(json.dumps(spec.to_dict())))
        assert [t.key for t in clone.trials()] \
            == [t.key for t in spec.trials()]


class TestSiteCampaignExecution:
    @pytest.fixture(scope="class")
    def run(self):
        spec = sweep_spec()
        session = CampaignSession(spec)
        result = session.run()
        return spec, session, result

    def test_records_carry_strikes(self, run):
        spec, session, result = run
        assert len(result.records) == spec.grid_size
        struck = [record for record in result.records
                  if record.get("site_strikes")]
        assert struck, "no sweep strike ever landed"
        for record in struck:
            config = record["trial"]["site_config"]
            assert set(record["site_strikes"]) \
                == {config["structure"]}

    def test_cells_split_by_sites(self, run):
        spec, session, result = run
        cells = session.aggregate()
        assert sorted({cell.sites for cell in cells}) \
            == ["sweep-pc", "sweep-rob"]
        payload = json.loads(
            __import__("repro.campaign", fromlist=["cells_to_json"])
            .cells_to_json(cells))
        assert all(cell["sites"] in ("sweep-pc", "sweep-rob")
                   for cell in payload)

    def test_structure_rows(self, run):
        spec, session, result = run
        rows = session.aggregate_structures()
        assert [row.structure for row in rows] == ["pc", "rob_entry"]
        for row in rows:
            assert row.n == 8               # 2 models x 4 replicates
            assert 0 <= row.struck_trials <= row.n
            if row.struck_trials:
                low, high = row.coverage_interval
                assert 0.0 <= low <= row.coverage <= high <= 1.0
        payload = json.loads(structures_to_json(rows))
        assert [row["structure"] for row in payload] \
            == ["pc", "rob_entry"]

    def test_workers_and_resume_agree_with_serial(self, run, tmp_path):
        spec, _, result = run
        serial = json.dumps(result.records, sort_keys=True)
        pooled = CampaignSession(
            spec, options=ExecutionOptions(workers=2)).run()
        assert json.dumps(pooled.records, sort_keys=True) == serial
        store = JSONLStore(str(tmp_path / "sites.jsonl"))
        for record in result.records[:5]:
            store.append(record)
        resumed = CampaignSession(spec, store=store).resume()
        assert resumed.skipped == 5
        assert json.dumps(resumed.records, sort_keys=True) == serial


class TestSiteSensitivitySpec:
    def test_defaults_cover_every_structure(self):
        from repro.faults import STRUCTURES
        spec = site_sensitivity_spec()
        assert set(spec.fault_sites) \
            == {"sweep-%s" % s for s in STRUCTURES}
        assert spec.rates_per_million == (0.0,)

    def test_runs_end_to_end(self):
        spec = site_sensitivity_spec(structures=("fu_result",),
                                     replicates=3, instructions=300)
        session = CampaignSession(spec)
        result = session.run()
        assert len(result.records) == 3
        rows = session.aggregate_structures()
        assert [row.structure for row in rows] == ["fu_result"]


class TestSiteListCampaign:
    def test_directed_site_list_cell(self):
        spec = CampaignSpec(
            name="directed", workloads=("gcc",), models=("SS-2",),
            rates_per_million=(0.0,), replicates=2, instructions=400,
            fault_sites={
                "strike-40": {
                    "policy": "site_list",
                    "sites": [{"structure": "fu_result", "index": 40,
                               "copy": 1, "bit": 7},
                              {"structure": "pc", "index": 90,
                               "bit": 3}]}})
        session = CampaignSession(spec)
        result = session.run()
        # Directed strikes are deterministic: both replicates hit both
        # structures identically.
        for record in result.records:
            assert record["site_strikes"] == {"fu_result": 1, "pc": 1}
            assert record["faults_detected"] >= 2
        rows = aggregate_structures(result.records)
        assert [row.structure for row in rows] == ["fu_result", "pc"]
        for row in rows:
            assert row.n == 2 and row.struck_trials == 2


class TestSiteCli:
    def test_campaign_sites_flag(self, capsys):
        from repro.harness.cli import main
        assert main(["campaign", "--sites", "rob_entry", "--workloads",
                     "gcc", "--models", "SS-2", "--replicates", "2",
                     "--instructions", "300", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "Per-structure fault sensitivity" in out
        assert "rob_entry" in out

    def test_campaign_sites_json_payload(self, capsys):
        from repro.harness.cli import main
        assert main(["campaign", "--sites", "pc", "--workloads", "gcc",
                     "--models", "SS-2", "--replicates", "2",
                     "--instructions", "300", "--quiet",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"cells", "structures"}
        assert payload["structures"][0]["structure"] == "pc"

    def test_campaign_sites_rejects_unknown_structure(self):
        from repro.harness.cli import main
        with pytest.raises(SystemExit):
            main(["campaign", "--sites", "warp_core", "--quiet"])

    def test_campaign_sites_with_explicit_rates_refused(self):
        from repro.harness.cli import main
        with pytest.raises(SystemExit):
            main(["campaign", "--sites", "pc", "--rates", "0,1000",
                  "--quiet"])
        # An explicitly typed default is just as contradictory.
        with pytest.raises(SystemExit):
            main(["campaign", "--sites", "pc", "--rates",
                  "0,1000,10000", "--quiet"])

    def test_cli_and_api_sweeps_share_trial_keys(self):
        """--sites and site_sensitivity_spec build identical cells, so
        their campaigns can share stores."""
        from repro.harness.cli import _parse_sites
        spec = site_sensitivity_spec(replicates=2, instructions=300,
                                     structures=("pc", "rob_entry"))
        assert _parse_sites("pc,rob_entry", 1) == dict(spec.fault_sites)


class TestSessionValidation:
    def test_reference_simulator_with_sites_refused_upfront(self):
        # The frozen reference engine is no runtime option: a request
        # for it fails while the options are parsed, before a session
        # (or any trial) exists.
        with pytest.raises(ConfigError, match="simulator"):
            CampaignSession(
                sweep_spec(),
                options=ExecutionOptions.from_dict(
                    {"simulator": "reference"}))

"""Tests for scenario specs, the kind registry, and the campaign loader."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import (
    SCENARIO_KINDS,
    build_scenario,
    default_fleet,
    load_campaign,
    parse_campaign,
    scenario_kinds,
)
from repro.campaign.spec import ScenarioSpec
from repro.errors import ReproError, SimulationError


class TestScenarioSpec:
    def test_round_trips_through_dict(self):
        spec = ScenarioSpec(
            name="leak-3", kind="route-leak", seed=7, measurement_seed=11,
            n_donor_ases=10, duration_days=14, join_day=6, user_scale=0.75,
            ingest_batches=3, params={"leak_day": 8},
        )
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec
        # and through JSON (the campaign-file path)
        assert ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    def test_unknown_kind_rejected(self):
        with pytest.raises(SimulationError, match="unknown scenario kind"):
            ScenarioSpec(name="x", kind="volcano")

    def test_unsafe_name_rejected(self):
        # The name becomes a checkpoint filename; path tricks must fail.
        for bad in ("../escape", "", "a/b", ".hidden", "sp ace"):
            with pytest.raises(SimulationError, match="path-safe"):
                ScenarioSpec(name=bad)

    def test_unknown_dict_keys_rejected(self):
        with pytest.raises(SimulationError, match="unknown keys"):
            ScenarioSpec.from_dict({"name": "x", "sedd": 3})

    def test_unknown_params_rejected_at_build(self):
        spec = ScenarioSpec(
            name="x", kind="staggered-join", duration_days=8,
            n_donor_ases=6, params={"n_late_joiner": 1},
        )
        with pytest.raises(SimulationError, match="unknown params"):
            build_scenario(spec)

    def test_join_day_defaults_to_midpoint(self):
        assert ScenarioSpec(name="x", duration_days=18).effective_join_day == 9
        assert ScenarioSpec(name="x", join_day=4).effective_join_day == 4


class TestKindRegistry:
    def test_all_issue_kinds_registered(self):
        kinds = set(scenario_kinds())
        assert {
            "baseline", "staggered-join", "depeering", "outage",
            "route-leak", "congestion-shock", "adoption-sweep",
        } <= kinds

    def test_registry_order_is_stable(self):
        assert list(SCENARIO_KINDS) == list(scenario_kinds())


class TestBuildScenario:
    def test_same_spec_builds_identical_worlds(self):
        spec = ScenarioSpec(
            name="dep", kind="depeering", seed=3, duration_days=10,
            n_donor_ases=8,
        )
        a, b = build_scenario(spec), build_scenario(spec)
        assert [repr(e) for e in a.timeline.events] == [
            repr(e) for e in b.timeline.events
        ]
        assert a.treated_units == b.treated_units
        assert a.extra["spec"] == spec.to_dict()

    def test_staggered_join_adds_treated_units(self):
        base = build_scenario(
            ScenarioSpec(name="b", kind="baseline", seed=1, duration_days=10,
                         n_donor_ases=8)
        )
        staggered = build_scenario(
            ScenarioSpec(name="s", kind="staggered-join", seed=1,
                         duration_days=10, n_donor_ases=8,
                         params={"n_late_joiners": 2})
        )
        assert len(staggered.treated_units) > len(base.treated_units)
        assert len(staggered.join_hours) == len(base.join_hours) + 2

    def test_congestion_shock_registers_a_shock(self):
        spec = ScenarioSpec(
            name="shock", kind="congestion-shock", seed=2, duration_days=10,
            n_donor_ases=8,
        )
        scenario = build_scenario(spec)
        base = build_scenario(
            ScenarioSpec(name="b", kind="baseline", seed=2, duration_days=10,
                         n_donor_ases=8)
        )
        mid = (spec.effective_join_day + 2) * 24.0
        assert scenario.congestion.utilization("ZA", mid) > (
            base.congestion.utilization("ZA", mid)
        )


class TestCampaignFiles:
    DOC = {
        "campaign": {"budget": 80, "allocation": "uniform", "tol": 0.3},
        "scenarios": [
            {"name": "a", "kind": "baseline", "seed": 1},
            {"name": "b", "kind": "outage", "seed": 2},
        ],
    }

    def test_parse_campaign(self):
        config = parse_campaign(self.DOC)
        assert [s.name for s in config.scenarios] == ["a", "b"]
        assert config.budget == 80
        assert config.allocation == "uniform"
        assert config.tol == 0.3
        assert config.round_refits is None

    def test_duplicate_names_rejected(self):
        doc = {"scenarios": [{"name": "a"}, {"name": "a"}]}
        with pytest.raises(SimulationError, match="duplicate"):
            parse_campaign(doc)

    def test_bad_allocation_rejected(self):
        doc = dict(self.DOC, campaign={"allocation": "greedy"})
        with pytest.raises(SimulationError, match="allocation"):
            parse_campaign(doc)

    def test_missing_scenarios_rejected(self):
        with pytest.raises(SimulationError, match="scenarios"):
            parse_campaign({"campaign": {}})

    def test_load_json_file(self, tmp_path):
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(self.DOC))
        config = load_campaign(path)
        assert [s.name for s in config.scenarios] == ["a", "b"]

    def test_load_yaml_file_falls_back_to_json_without_pyyaml(
        self, tmp_path, monkeypatch
    ):
        # JSON is a YAML subset: a .yaml file holding JSON must load on
        # interpreters without PyYAML (the loader's gated import).
        import builtins

        real_import = builtins.__import__

        def no_yaml(name, *args, **kwargs):
            if name == "yaml":
                raise ImportError("no module named yaml")
            return real_import(name, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", no_yaml)
        path = tmp_path / "campaign.yaml"
        path.write_text(json.dumps(self.DOC))
        config = load_campaign(path)
        assert config.budget == 80

        bad = tmp_path / "bad.yaml"
        bad.write_text("scenarios:\n  - name: a\n")
        with pytest.raises(SimulationError, match="PyYAML"):
            load_campaign(bad)


class TestMalformedCampaignFiles:
    """Every malformed document is a SimulationError naming key and scenario."""

    @pytest.mark.parametrize(
        "doc, message",
        [
            (
                {"scenarios": [{"name": "a", "seed": "x"}]},
                "scenario 'a': 'seed' must be int, got 'x'",
            ),
            (
                {"scenarios": [{"name": "a", "params": [1, 2]}]},
                "scenario 'a': 'params' must be a mapping",
            ),
            ({"scenarios": ["a"]}, "scenario spec must be a mapping, got 'a'"),
            (
                {"scenarios": [{"name": "a"}], "campaign": {"budget": "lots"}},
                "campaign: 'budget' must be int, got 'lots'",
            ),
            (
                {"scenarios": [{"name": "a"}], "campaign": {"tol": [1]}},
                "campaign: 'tol' must be float, got \\[1\\]",
            ),
            (
                {"scenarios": [{"name": "b", "user_scale": None}]},
                "scenario 'b': 'user_scale' must be float",
            ),
            (
                {"scenarios": [{"name": "b", "duration_days": float("inf")}]},
                "scenario 'b': 'duration_days' must be int",
            ),
            (
                {"scenarios": [{"name": "b", 1: 2, "x": 3}]},
                "unknown keys",
            ),
        ],
    )
    def test_typed_error_names_the_key(self, doc, message):
        with pytest.raises(SimulationError, match=message):
            parse_campaign(doc)

    def test_cli_prints_the_error_without_a_traceback(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"scenarios": [{"name": "a", "seed": "x"}]}))
        assert main(["campaign", "--scenarios", str(path)]) == 1
        err = capsys.readouterr().err
        assert "'seed' must be int" in err
        assert "Traceback" not in err


_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
_SPEC_KEYS = [
    "name", "kind", "seed", "measurement_seed", "n_donor_ases",
    "duration_days", "join_day", "user_scale", "ingest_batches", "params",
]
_SPEC = st.dictionaries(
    st.sampled_from(_SPEC_KEYS) | st.text(max_size=4), _JSON, max_size=6
) | _JSON
_DOC = st.fixed_dictionaries(
    {"scenarios": st.lists(_SPEC, max_size=3) | _JSON},
    optional={
        "campaign": st.dictionaries(
            st.sampled_from(["budget", "allocation", "tol", "round_refits"]),
            _JSON,
            max_size=4,
        )
        | _JSON
    },
) | _JSON


@settings(max_examples=400, deadline=None)
@given(_DOC)
def test_parse_campaign_raises_only_repro_errors(doc):
    try:
        parse_campaign(doc)
    except ReproError:
        pass


class TestDefaultFleet:
    def test_cycles_kinds_with_unique_names_and_seeds(self):
        fleet = default_fleet(9, seed=4)
        names = [s.name for s in fleet]
        assert len(set(names)) == 9
        assert [s.kind for s in fleet[: len(scenario_kinds())]] == list(
            scenario_kinds()
        )
        assert [s.seed for s in fleet] == list(range(4, 13))

    def test_adoption_sweep_scales_vary(self):
        n_kinds = len(scenario_kinds())
        fleet = default_fleet(2 * n_kinds)
        sweeps = [s for s in fleet if s.kind == "adoption-sweep"]
        assert len({s.user_scale for s in sweeps}) == 2

    def test_empty_fleet_rejected(self):
        with pytest.raises(SimulationError, match=">= 1"):
            default_fleet(0)


class TestDepeeringDonorChoice:
    """Depeering only moves donors homed to a single regional provider."""

    @pytest.mark.parametrize("n_donors", [8, 12, 16, 20])
    @pytest.mark.parametrize("days", [12, ScenarioSpec("x").duration_days])
    def test_every_depeering_spec_builds(self, n_donors, days):
        fleet = default_fleet(
            2 * len(scenario_kinds()), duration_days=days, n_donor_ases=n_donors
        )
        specs = [s for s in fleet if s.kind == "depeering"] + [
            ScenarioSpec(
                name=f"dep-{seed}", kind="depeering", seed=seed,
                n_donor_ases=n_donors, duration_days=days,
            )
            for seed in range(5)
        ]
        for spec in specs:
            scenario = build_scenario(spec)
            scenario.timeline.state_at(0.0)  # applies every scheduled event

    def test_depeered_donors_had_one_regional_upstream(self):
        from repro.campaign.spec import _regional_upstreams
        from repro.netsim.events import DepeeringEvent

        spec = ScenarioSpec(
            name="dep", kind="depeering", seed=2, n_donor_ases=12,
        )
        base = build_scenario(
            ScenarioSpec(name="b", kind="baseline", seed=2, n_donor_ases=12)
        )
        scenario = build_scenario(spec)
        added = [
            e for e in scenario.timeline.events
            if repr(e) not in {repr(b) for b in base.timeline.events}
        ]
        moved = [e.a_asn for e in added if isinstance(e, DepeeringEvent)]
        assert len(moved) == 2
        for asn in moved:
            assert len(_regional_upstreams(base, asn)) == 1

    def test_too_few_single_homed_donors_is_a_named_error(self):
        spec = ScenarioSpec(
            name="dep", kind="depeering", seed=0, n_donor_ases=4,
            params={"n_depeered": 5},
        )
        with pytest.raises(SimulationError, match="kind=depeering"):
            build_scenario(spec)

    def test_cli_campaign_at_default_days_and_donors_exits_zero(self):
        import os
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "campaign", "--scenarios", "3",
             "--budget", "36"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH="src"), timeout=300,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        assert b"depeering-02" in proc.stdout


class TestEveryKindBuildsAcrossDonorCounts:
    """Each registered kind builds and applies its timeline at default days."""

    @pytest.mark.parametrize("n_donors", range(4, 25))
    def test_default_fleet_builds(self, n_donors):
        for spec in default_fleet(len(scenario_kinds()), n_donor_ases=n_donors):
            scenario = build_scenario(spec)
            scenario.timeline.state_at(0.0)  # applies every scheduled event

    @pytest.mark.parametrize("kind", ["route-leak", "staggered-join"])
    def test_more_seeds_build(self, kind):
        for seed in range(12):
            for n_donors in (4, 6, 7, 12, 17, 20, 23):
                spec = ScenarioSpec(
                    name="x", kind=kind, seed=seed, n_donor_ases=n_donors
                )
                build_scenario(spec).timeline.state_at(0.0)


class TestRouteLeak:
    @staticmethod
    def _leak(spec):
        from repro.netsim.events import DepeeringEvent, NewLinkEvent

        base = build_scenario(
            ScenarioSpec(name="b", kind="baseline", seed=spec.seed,
                         n_donor_ases=spec.n_donor_ases)
        )
        scenario = build_scenario(spec)
        before = {repr(e) for e in base.timeline.events}
        added = [e for e in scenario.timeline.events if repr(e) not in before]
        torn = [e for e in added if isinstance(e, DepeeringEvent)]
        bought = [e for e in added if isinstance(e, NewLinkEvent)]
        return scenario, torn, bought

    def test_leaker_ends_on_london_with_no_regional(self):
        # seed 4 at 6 donors: the default leaker churns before the leak,
        # so the regional it holds then is the one churn bought.
        spec = ScenarioSpec(name="leak", kind="route-leak", seed=4, n_donor_ases=6)
        scenario, torn, bought = self._leak(spec)
        assert torn
        leaker = torn[0].a_asn
        hour = torn[0].time_hour
        providers = scenario.timeline.state_at(hour + 1.0).topology.providers(leaker)
        assert 64601 in providers
        assert not {64611, 64612} & set(providers)
        assert all(e.a_asn == leaker for e in torn + bought)

    def test_explicit_leaker_that_churns_later_is_a_named_error(self):
        from repro.campaign.spec import _donor_asns, _link_events

        for seed in range(12):
            spec = ScenarioSpec(name="leak", kind="route-leak", seed=seed, n_donor_ases=12)
            base = build_scenario(
                ScenarioSpec(name="b", kind="baseline", seed=seed, n_donor_ases=12)
            )
            late = [
                i for i, asn in enumerate(_donor_asns(spec))
                if any(e.time_hour > (spec.effective_join_day + 2) * 24.0
                       for e in _link_events(base, asn))
            ]
            if late:
                break
        bad = ScenarioSpec(name="leak", kind="route-leak", seed=seed, n_donor_ases=12,
                           params={"leaker_index": late[0]})
        with pytest.raises(SimulationError, match="kind=route-leak"):
            build_scenario(bad)


def test_cli_campaign_route_leak_fleet_at_six_donors_exits_zero():
    import os
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "repro", "campaign", "--scenarios", "7",
         "--donors", "6", "--budget", "28"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH="src"), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert b"route-leak-04" in proc.stdout

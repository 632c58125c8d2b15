"""Unit tests for repro.faults: determinism, parsing, pickling, presets."""

from __future__ import annotations

import pickle

import pytest

from repro.faults import FAULT_KINDS, PRESETS, FaultPlan, FaultRule


class TestFaultRule:
    def test_requires_exactly_one_schedule(self):
        with pytest.raises(ValueError, match="exactly one"):
            FaultRule(kind="crash")
        with pytest.raises(ValueError, match="exactly one"):
            FaultRule(kind="crash", at=3, every=5)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            FaultRule(kind="gremlin", at=1)

    @pytest.mark.parametrize("kind", ["torn", "evict", "unlink", "slow_load"])
    def test_retired_kinds_fail_loudly(self, kind):
        # Torn frames needed the shm ring, and evict/unlink/slow_load needed
        # store-level bank paging; a stale spec naming them must not parse
        # into a plan that silently injects nothing.
        with pytest.raises(ValueError, match="kind"):
            FaultRule(kind=kind, at=1)
        with pytest.raises(ValueError, match="kind"):
            FaultPlan.from_spec(f"{kind}:every=3")

    def test_at_fires_exactly_once(self):
        rule = FaultRule(kind="crash", at=3)
        fired = [count for count in range(1, 20) if rule.fires(count, 0, seed=0)]
        assert fired == [3]

    def test_every_fires_periodically_from_after(self):
        rule = FaultRule(kind="error", every=5, after=4)
        fired = [count for count in range(1, 25) if rule.fires(count, 0, seed=0)]
        assert fired == [4, 9, 14, 19, 24]

    def test_worker_restriction(self):
        rule = FaultRule(kind="hang", at=2, workers=(1,))
        assert not rule.fires(2, 0, seed=0)
        assert rule.fires(2, 1, seed=0)

    def test_rate_is_deterministic_and_roughly_calibrated(self):
        rule = FaultRule(kind="slow", rate=0.2)
        first = [rule.fires(count, 0, seed=7) for count in range(1, 501)]
        second = [rule.fires(count, 0, seed=7) for count in range(1, 501)]
        assert first == second  # same seed, same schedule — always
        hits = sum(first)
        assert 50 <= hits <= 150  # ~100 expected at rate 0.2
        other_seed = [rule.fires(count, 0, seed=8) for count in range(1, 501)]
        assert first != other_seed

    def test_rate_differs_by_worker(self):
        rule = FaultRule(kind="slow", rate=0.2)
        worker0 = [rule.fires(count, 0, seed=7) for count in range(1, 201)]
        worker1 = [rule.fires(count, 1, seed=7) for count in range(1, 201)]
        assert worker0 != worker1


class TestFaultPlan:
    def test_plan_is_picklable(self):
        plan = PRESETS["quick"]
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        assert clone.describe() == plan.describe()

    def test_json_round_trip(self):
        plan = FaultPlan.from_spec("crash:at=3:workers=0+1;seed=9;hang_seconds=2")
        clone = FaultPlan.from_json(plan.to_json())
        assert clone == plan
        assert clone.seed == 9
        assert clone.hang_seconds == 2.0
        assert clone.rules[0].workers == (0, 1)

    def test_from_spec_parses_rules_and_options(self):
        plan = FaultPlan.from_spec("error:every=5:after=2;slow:rate=0.5;seed=3")
        assert plan.seed == 3
        kinds = [rule.kind for rule in plan.rules]
        assert kinds == ["error", "slow"]
        assert plan.rules[0].every == 5
        assert plan.rules[1].rate == 0.5

    def test_bare_kind_defaults_to_low_rate(self):
        plan = FaultPlan.from_spec("crash")
        assert plan.rules[0].kind == "crash"
        assert plan.rules[0].rate == 0.01

    def test_from_spec_rejects_garbage(self):
        with pytest.raises(ValueError):
            FaultPlan.from_spec("crash:bogus=1")
        with pytest.raises(ValueError):
            FaultPlan.from_spec("volume=11")

    def test_resolve_off_values(self):
        assert FaultPlan.resolve(None) is None
        assert FaultPlan.resolve("") is None
        assert FaultPlan.resolve("off") is None
        assert FaultPlan.resolve("none") is None
        assert FaultPlan.resolve("quick") == PRESETS["quick"]

    def test_from_env(self, monkeypatch):
        assert FaultPlan.from_env({}) is None
        plan = FaultPlan.from_env({"REPRO_FAULTS": "crash:at=2"})
        assert plan.rules[0].at == 2
        seeded = FaultPlan.from_env(
            {"REPRO_FAULTS": "crash:at=2", "REPRO_FAULTS_SEED": "42"}
        )
        assert seeded.seed == 42

    def test_presets_cover_every_kind(self):
        # Each named preset exercises the whole fault taxonomy.
        for name, plan in PRESETS.items():
            kinds = {rule.kind for rule in plan.rules}
            assert kinds == set(FAULT_KINDS), name

    def test_quick_preset_kills_each_lethal_worker_at_its_eleventh_request(self):
        # A respawn resets the count, so only the first lethal draw per
        # worker is ever reached: worker 0 crashes, 1 hangs, 2 drops.
        for worker, kind in enumerate(("crash", "hang", "drop")):
            injector = PRESETS["quick"].injector(worker)
            draws = [injector.draw() for _ in range(11)]
            lethal = [d for d in draws if d in ("crash", "hang", "drop")]
            assert lethal == [kind], worker
            assert draws[-1] == kind, worker

    def test_evict_churn_is_not_a_preset(self):
        assert "evict-churn" not in PRESETS
        with pytest.raises(ValueError, match="kind"):
            FaultPlan.from_spec("evict-churn")
        with pytest.raises(ValueError, match="kind"):
            FaultPlan.resolve("evict-churn")

    def test_fleet_smoke_spec_injects_only_worker_side_kinds(self):
        plan = FaultPlan.from_spec("error:every=19:after=8;slow:every=23:after=10")
        assert [(r.kind, r.every, r.after) for r in plan.rules] == [
            ("error", 19, 8),
            ("slow", 23, 10),
        ]
        injector = plan.injector(0)
        draws = [injector.draw() for _ in range(200)]
        assert set(draws) == {None, "error", "slow"}
        assert draws[7] == "error" and draws[9] == "slow"
        assert draws.index("error") == 7 and draws.index("slow") == 9

    def test_describe_short_is_one_line(self):
        text = PRESETS["quick"].describe_short()
        assert "\n" not in text
        assert "crash" in text and "seed=0" in text


class TestFaultInjector:
    def test_injector_counts_and_draws(self):
        plan = FaultPlan.from_spec("error:at=2;slow:at=4")
        injector = plan.injector(worker_index=0)
        draws = [injector.draw() for _ in range(5)]
        assert draws == [None, "error", None, "slow", None]
        assert injector.count == 5
        assert injector.injected == {"error": 1, "slow": 1}

    def test_first_matching_rule_wins(self):
        plan = FaultPlan.from_spec("crash:at=2;error:at=2")
        assert plan.injector(0).count == 0
        draws = [plan.injector(0).draw() for _ in range(1)]
        injector = plan.injector(0)
        injector.draw()
        assert injector.draw() == "crash"
        assert draws == [None]

    def test_injector_is_per_worker(self):
        plan = FaultPlan.from_spec("hang:at=1:workers=1")
        assert plan.injector(0).draw() is None
        assert plan.injector(1).draw() == "hang"

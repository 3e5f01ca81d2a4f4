"""Tests for static mutant pruning (:mod:`repro.lint.mutants`).

Every campaign is statically pruned; the contract under test is that
every report stays **field-identical** to an unpruned run (an empty
``PrunePlan`` -- the only off switch) -- pruned mutants are counted
and judged, never dropped -- while the executed-mutant set measurably
shrinks.  Coverage:

* plan-level classification (``hf-first-tick`` is exactly one third
  of every Counter table; Razor tables have no equivalents at the
  default HF ratio);
* prune on/off report equality for all three IPs x both sensors,
  including the full outcome lists;
* shard accounting: pruned mutants leave the executable set;
* cache interplay in both directions (cold-pruned seeds a warm
  unpruned replay and vice versa) with identical prune counters on
  cold and warm runs;
* the deferred-duplicate clone path (representative executes, clones
  attach at shard completion) via an ``hf_ratio=2`` Counter build that
  actually produces fingerprint collisions;
* multi-worker / shared-pool runs (:func:`run_benchmark_suite`).
"""

import pytest

from repro.flow import build_augmented, run_flow
from repro.ips import CASE_STUDIES, case_study
from repro.lint import PrunePlan, plan_pruning
from repro.lint.mutants import frozen_signal_names
from repro.mutation import (
    CampaignScheduler,
    ResultCache,
    inject_mutants,
    prepare_campaign,
    run_benchmark_suite,
    run_campaign,
)
from repro.abstraction import generate_tlm

IPS = sorted(CASE_STUDIES)
SENSORS = ("razor", "counter")


def _flow(ip, sensor, **kw):
    return run_flow(case_study(ip), sensor, **kw)


def _campaign_inputs(flow):
    stimuli = flow.spec.stimulus(flow.spec.mutation_cycles)
    return flow.tlm_optimized, flow.injected, stimuli


def _unpruned(flow, **kw):
    """The flow's campaign with pruning switched off (an empty plan):
    every mutant executes."""
    golden, injected, stimuli = _campaign_inputs(flow)
    return run_campaign(
        golden, injected, stimuli,
        ip_name=flow.spec.name, sensor_type=flow.sensor_type,
        prune_plan=PrunePlan(total=len(injected.mutants)), **kw
    )


class TestPlan:
    @pytest.mark.parametrize("ip", IPS)
    def test_counter_equivalents_are_one_third(self, ip):
        flow = _flow(ip, "counter", run_mutation=False)
        plan = plan_pruning(
            flow.injected, "counter", module=flow.augmented.module
        )
        total = len(flow.injected.mutants)
        assert plan.total == total
        assert plan.equivalent_count == total // 3
        assert set(plan.equivalent.values()) == {"hf-first-tick"}
        assert all(
            flow.injected.mutants[i].hf_tick == 1 for i in plan.equivalent
        )
        # Default HF ratio leaves every (target, hf_tick, register)
        # fingerprint distinct.
        assert plan.duplicate_of == {}

    @pytest.mark.parametrize("ip", IPS)
    def test_razor_tables_have_no_equivalents(self, ip):
        flow = _flow(ip, "razor", run_mutation=False)
        plan = plan_pruning(
            flow.injected, "razor", module=flow.augmented.module
        )
        assert plan.equivalent == {}
        assert plan.duplicate_of == {}

    def test_plan_to_dict_round_trip_shape(self):
        flow = _flow("dsp", "counter", run_mutation=False)
        plan = plan_pruning(flow.injected, "counter")
        d = plan.to_dict()
        assert d["total"] == 27
        assert d["prunable"] == plan.prunable == 9
        assert all(isinstance(k, str) for k in d["equivalent"])

    def test_frozen_signal_analysis_on_live_design(self):
        # Every mutated target of a live IP toggles, so the fold
        # analysis must not claim any of them frozen.
        flow = _flow("dsp", "counter", run_mutation=False)
        targets = {s.target for s in flow.injected.mutants}
        assert frozen_signal_names(flow.augmented.module, targets) == set()


class TestReportEquality:
    @pytest.mark.parametrize("ip", IPS)
    @pytest.mark.parametrize("sensor", SENSORS)
    def test_prune_on_off_field_identical(self, ip, sensor):
        on = _flow(ip, sensor).mutation
        off = _unpruned(_flow(ip, sensor, run_mutation=False))
        assert on == off
        assert on.outcomes == off.outcomes
        assert [o.index for o in on.outcomes] == list(range(off.total))
        # Accounting: the empty plan prunes nothing, the flow's plan
        # carries the plan-level counts.
        assert off.pruned_equivalent == 0
        assert off.pruned_duplicate == 0
        expected = off.total // 3 if sensor == "counter" else 0
        assert on.pruned_equivalent == expected
        assert on.pruned_duplicate == 0

    def test_pruned_mutants_leave_the_executable_set(self):
        flow = _flow("filter", "counter", run_mutation=False)
        golden, injected, stimuli = _campaign_inputs(flow)
        plan = plan_pruning(
            injected, "counter", module=flow.augmented.module
        )
        prepared = prepare_campaign(
            golden, injected, stimuli,
            ip_name="filter", sensor_type="counter", prune_plan=plan,
        )
        total = len(injected.mutants)
        executed = sum(len(s.indices) for s in prepared.shards)
        assert len(prepared.pruned_outcomes) == total // 3
        assert executed == total - total // 3
        # The replayed batch counts as a shard of the campaign.
        assert prepared.total_shards == len(prepared.shards) + 1

    @pytest.mark.parametrize("sensor", SENSORS)
    def test_multi_worker_pruned_run_identical(self, sensor):
        off = _unpruned(_flow("dsp", sensor, run_mutation=False))
        on = _flow("dsp", sensor, workers=2, shard_size=5).mutation
        assert on == off


class TestCacheInterplay:
    def test_cold_pruned_seeds_warm_unpruned(self):
        cache = ResultCache(None)
        flow = _flow("dsp", "counter", cache=cache)
        cold = flow.mutation
        warm = _unpruned(flow, cache=cache)
        assert warm == cold
        # Synthesised and cloned verdicts were written back, so the
        # unpruned replay never simulates anything.
        assert warm.cache_hits == warm.total
        assert warm.cache_misses == 0

    def test_cold_unpruned_seeds_warm_pruned(self):
        cache = ResultCache(None)
        cold = _unpruned(
            _flow("dsp", "counter", run_mutation=False), cache=cache
        )
        warm = _flow("dsp", "counter", cache=cache).mutation
        assert warm == cold
        assert warm.cache_hits == warm.total
        # Plan-level counters: a fully-warm run still reports the
        # whole-table prune statistics, identical to a cold one.
        assert warm.pruned_equivalent == cold.total // 3
        assert warm.pruned_duplicate == 0


def _build_counter_hf2(ip="dsp"):
    """An off-registry Counter build at ``hf_ratio=2``: the coarser HF
    clock makes distinct delay mutants land on the same HF tick, which
    is the only way to get genuine duplicate fingerprints out of the
    shipped IPs."""
    from repro.sensors import insert_sensors
    from repro.sta import analyze, bin_critical_paths
    from repro.synth import synthesize

    spec = case_study(ip)
    module, clk = spec.factory()
    synth = synthesize(module)
    sta = analyze(synth, clock_period_ps=spec.clock_period_ps)
    critical = bin_critical_paths(sta, spec.slack_threshold_ps)
    augmented = insert_sensors(
        module, clk, critical, sensor_type="counter", hf_ratio=2,
        calibration_stimuli=spec.stimulus(
            min(spec.mutation_cycles, 128)
        ),
    )
    golden = generate_tlm(module, variant="hdtlib", augmented=augmented)
    injected = inject_mutants(augmented, variant="hdtlib")
    stimuli = spec.stimulus(spec.mutation_cycles)
    return module, golden, injected, stimuli


class TestDeferredDuplicates:
    def test_hf2_build_has_duplicates(self):
        module, _golden, injected, _stimuli = _build_counter_hf2()
        plan = plan_pruning(injected, "counter", module=module)
        assert plan.equivalent_count == 9
        # Three mutants per target now span only hf_tick in {1, 2, 2}:
        # the max- and delta-tick entries collide pairwise.
        assert plan.duplicate_of == {
            2: 1, 5: 4, 8: 7, 11: 10, 14: 13, 17: 16, 20: 19, 23: 22,
            26: 25,
        }

    @pytest.mark.parametrize("workers,shard_size", [(1, None), (2, 3)])
    def test_duplicate_clones_match_execution(self, workers, shard_size):
        module, golden, injected, stimuli = _build_counter_hf2()
        plan = plan_pruning(injected, "counter", module=module)

        def run(**kw):
            return run_campaign(
                golden, injected, stimuli,
                ip_name="dsp-hf2", sensor_type="counter",
                workers=workers, shard_size=shard_size, **kw
            )

        off = run(prune_plan=PrunePlan(total=len(injected.mutants)))
        on = run(prune_plan=plan)
        assert on == off
        assert on.outcomes == off.outcomes
        assert on.pruned_equivalent == 9
        assert on.pruned_duplicate == 9

    def test_deferred_clones_earn_cache_entries(self):
        module, golden, injected, stimuli = _build_counter_hf2()
        plan = plan_pruning(injected, "counter", module=module)
        cache = ResultCache(None)
        cold = run_campaign(
            golden, injected, stimuli,
            ip_name="dsp-hf2", sensor_type="counter",
            cache=cache, prune_plan=plan,
        )
        # 27 mutants, 9 equivalents + 9 duplicate clones pruned: only
        # 9 representatives executed.
        assert cold.cache_misses == 27  # probe ran before pruning
        warm = run_campaign(
            golden, injected, stimuli,
            ip_name="dsp-hf2", sensor_type="counter", cache=cache,
            prune_plan=PrunePlan(total=len(injected.mutants)),
        )
        assert warm == cold
        assert warm.cache_hits == 27


class TestSuite:
    def test_benchmark_suite_prune_identical(self):
        with CampaignScheduler(workers=2) as scheduler:
            on = run_benchmark_suite(
                IPS, SENSORS, scheduler=scheduler
            )
            off = {
                (ip, sensor): _unpruned(
                    _flow(ip, sensor, run_mutation=False),
                    scheduler=scheduler,
                )
                for ip in IPS for sensor in SENSORS
            }
        assert set(on.reports) == set(off)
        for key, report in off.items():
            assert on.reports[key] == report
            assert on.reports[key].outcomes == report.outcomes
            expected = (
                report.total // 3 if key[1] == "counter" else 0
            )
            assert on.reports[key].pruned_equivalent == expected

    def test_suite_prune_with_warm_cache(self):
        cache = ResultCache(None)
        with CampaignScheduler(workers=2) as scheduler:
            cold = run_benchmark_suite(
                ["dsp"], SENSORS, scheduler=scheduler, cache=cache,
            )
            warm = run_benchmark_suite(
                ["dsp"], SENSORS, scheduler=scheduler, cache=cache,
            )
        for key, report in cold.reports.items():
            assert warm.reports[key] == report
            assert warm.reports[key].cache_hits == report.total
            # Cold and warm prune accounting is identical (plan-level).
            assert (
                warm.reports[key].pruned_equivalent
                == report.pruned_equivalent
            )


class TestSummaryRow:
    def test_summary_pairs_show_prune_row_when_counted(self):
        from repro.reporting import mutation_summary_pairs

        report = _flow("dsp", "counter").mutation
        pairs = dict(mutation_summary_pairs(report))
        assert pairs["static prune"] == (
            "9 equivalent / 0 duplicate (not simulated)"
        )

    def test_summary_pairs_silent_without_pruning(self):
        from repro.reporting import mutation_summary_pairs

        report = _unpruned(_flow("dsp", "counter", run_mutation=False))
        assert "static prune" not in dict(mutation_summary_pairs(report))

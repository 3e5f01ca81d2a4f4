"""Per-mutant cross-level agreement and the dual-clock HF-tick work.

The paper's cross-level claim is that every delay mutant injected in
the TLM model behaves the same when reproduced at RTL by a delayed
assignment.  These tests gate it *per mutant* -- ``error_risen`` for
both sensors, ``meas_val`` for the Counter -- on every shipped IP x
sensor pair, and on off-registry Counter builds whose HF ratio puts
mutants on the last tick of the window.

They are also the oracle of the event-driven HF window of the
generated Counter models: the dual-clock scheduler samples the taps
only at HF tick 1 and at the active mutant's commit tick, and the
work-count tests pin that down exactly.
"""

import pytest

from repro.abstraction import generate_tlm
from repro.flow import build_augmented
from repro.ips import CASE_STUDIES, case_study
from repro.mutation import inject_mutants, run_campaign, validate_at_rtl
from repro.mutation.rtl_validation import _rtl_delay_for
from repro.rtl import Assign, Module, const
from repro.sensors import insert_sensors
from repro.sta import analyze, bin_critical_paths
from repro.synth import synthesize

CYCLES = 40
#: Start-up cycles skipped by the MEAS_VAL lockstep check.
SETTLE = 3


def _first_disagreement(tlm, rtl, sensor):
    """Describe the first mutant whose TLM and RTL verdicts differ, or
    return ``None``."""
    assert len(tlm.outcomes) == len(rtl.outcomes)
    for t, r in zip(tlm.outcomes, rtl.outcomes):
        if t.error_risen != r.error_risen or (
            sensor == "counter" and t.meas_val != r.meas_val
        ):
            return (
                f"mutant {t.index} ({t.kind} {t.register} @hf{t.hf_tick}): "
                f"TLM risen={t.error_risen} meas={t.meas_val}, "
                f"RTL risen={r.error_risen} meas={r.meas_val}"
            )
    return None


def _cross_check(golden, injected, augmented, stimuli, name, sensor):
    tlm = run_campaign(
        golden, injected, stimuli, ip_name=name, sensor_type=sensor,
    )
    rtl = validate_at_rtl(
        augmented, injected.mutants, stimuli=stimuli,
        cycles=len(stimuli), ip_name=name,
    )
    assert tlm.total == rtl.total == len(injected.mutants)
    return _first_disagreement(tlm, rtl, sensor)


@pytest.mark.parametrize("sensor", ("razor", "counter"))
@pytest.mark.parametrize("ip", sorted(CASE_STUDIES))
def test_tlm_and_rtl_agree_per_mutant(ip, sensor):
    spec = case_study(ip)
    augmented = build_augmented(spec, sensor).augmented
    golden = generate_tlm(
        augmented.module, variant="hdtlib", augmented=augmented
    )
    injected = inject_mutants(augmented, variant="hdtlib")
    stimuli = spec.stimulus(CYCLES)
    problem = _cross_check(
        golden, injected, augmented, stimuli, ip, sensor
    )
    assert problem is None, problem


# ---------------------------------------------------------------------------
# Off-registry Counter builds: HF ratios other than the default 10
# ---------------------------------------------------------------------------


def _dsp_counter(hf_ratio):
    """The DSP case study with a Counter bank at ``hf_ratio`` (its
    500 ps period divides by 2: every mutant then sits on tick 1 or on
    the last tick)."""
    spec = case_study("dsp")
    module, clk = spec.factory()
    sta = analyze(synthesize(module), clock_period_ps=spec.clock_period_ps)
    augmented = insert_sensors(
        module, clk, bin_critical_paths(sta, spec.slack_threshold_ps),
        sensor_type="counter", hf_ratio=hf_ratio,
        calibration_stimuli=spec.stimulus(min(spec.mutation_cycles, 128)),
    )
    return augmented, spec.stimulus(CYCLES)


def _small_counter(hf_ratio):
    """A two-register datapath (``acc <= acc + din``,
    ``res <= acc * 3``) at a 1400 ps period, which divides into
    ``hf_ratio=7`` even HF periods."""
    m = Module("dut7")
    clk = m.input("clk")
    din = m.input("din", 8)
    acc = m.signal("acc", 8)
    res = m.output("res", 8)
    m.sync("p_acc", clk, [Assign(acc, acc + din)])
    m.sync("p_res", clk, [Assign(res, acc * const(3, 8))])
    stimuli = [{"din": (i * 7 + 3) % 256} for i in range(CYCLES)]
    sta = analyze(synthesize(m), clock_period_ps=1400)
    augmented = insert_sensors(
        m, clk, bin_critical_paths(sta, 1e9),
        sensor_type="counter", hf_ratio=hf_ratio,
        calibration_stimuli=stimuli,
    )
    return augmented, stimuli


@pytest.mark.parametrize("build,hf_ratio", [
    (_dsp_counter, 2), (_small_counter, 7),
])
def test_off_registry_hf_ratio_agrees_per_mutant(build, hf_ratio):
    augmented, stimuli = build(hf_ratio)
    assert augmented.hf_ratio == hf_ratio
    golden = generate_tlm(
        augmented.module, variant="hdtlib", augmented=augmented
    )
    injected = inject_mutants(augmented, variant="hdtlib")
    assert any(m.hf_tick == hf_ratio for m in injected.mutants)
    problem = _cross_check(
        golden, injected, augmented, stimuli,
        f"{augmented.module.name}-hf{hf_ratio}", "counter",
    )
    assert problem is None, problem


def _meas_words(augmented, stimuli, model, spec=None):
    """Per-cycle ``meas_val`` words of a TLM model and of the RTL
    design, the latter with ``spec`` (if any) reproduced as a delayed
    endpoint."""
    ports = {p.name: p for p in augmented.module.inputs()}
    meas = augmented.module.find_signal("meas_val")
    sim = augmented.make_simulation(input_launch_at_edge=True)
    if spec is not None:
        sim.set_transport_delay(
            augmented.endpoint_for(spec.register),
            _rtl_delay_for(spec, augmented),
        )
    tlm, rtl = [], []
    for inputs in stimuli:
        tlm.append(model.b_transport(inputs)["meas_val"])
        sim.cycle({ports[k]: v for k, v in inputs.items()})
        rtl.append(sim.peek_int(meas))
    return tlm, rtl


@pytest.mark.parametrize("build,hf_ratio", [
    (_dsp_counter, 2), (_small_counter, 7),
])
def test_meas_val_lockstep_with_rtl(build, hf_ratio):
    """Cycle by cycle, MEAS_VAL after TLM call i equals MEAS_VAL after
    RTL cycle i + 1: the transaction closes the HF window inside the
    call, the RTL registers commit it at the next rising edge.  The
    start-up cycles are skipped: there a tap the RTL measures in an
    early window can still read 0 in the TLM.  This pins the
    measurement pipeline's latency, which per-mutant verdicts cannot
    see."""
    augmented, stimuli = build(hf_ratio)
    golden = generate_tlm(
        augmented.module, variant="hdtlib", augmented=augmented
    )
    injected = inject_mutants(augmented, variant="hdtlib")
    order = golden.compiled_class().COUNTER_TAP_ORDER

    def taps(word):
        return [(word >> 8 * j) & 0xFF for j in range(len(order))]

    tlm, rtl = _meas_words(augmented, stimuli, golden.instantiate())
    for i in range(SETTLE, len(stimuli) - 1):
        assert [bool(v) for v in taps(tlm[i])] == \
            [bool(v) for v in taps(rtl[i + 1])], f"golden cycle {i}"
    for index, spec in enumerate(injected.mutants):
        model = injected.instantiate()
        model.activate_mutant(index)
        tlm, rtl = _meas_words(augmented, stimuli, model, spec)
        lane = order.index(spec.register)
        for i in range(SETTLE, len(stimuli) - 1):
            assert taps(tlm[i])[lane] == taps(rtl[i + 1])[lane], (
                f"mutant {index} ({spec.kind} {spec.register} "
                f"@hf{spec.hf_tick}) cycle {i}"
            )


# ---------------------------------------------------------------------------
# Exact HF-tick work of the event-driven dual-clock scheduler
# ---------------------------------------------------------------------------


def _counting(generated):
    """A subclass of the compiled model counting ``_hf_tick`` calls."""

    class Counting(generated.compiled_class()):
        hf_ticks = 0

        def _hf_tick(self, count):
            self.hf_ticks += 1
            super()._hf_tick(count)

    return Counting


def _ticks(model, stimuli):
    for inputs in stimuli:
        model.b_transport(inputs)
    return model.hf_ticks


@pytest.fixture(scope="module")
def small7():
    return _small_counter(7)


def test_golden_samples_once_per_cycle(small7):
    augmented, stimuli = small7
    golden = generate_tlm(
        augmented.module, variant="hdtlib", augmented=augmented
    )
    assert _ticks(_counting(golden)(), stimuli) == len(stimuli)


@pytest.mark.parametrize("variant", ("hdtlib", "sctypes"))
def test_mutant_samples_tick_one_and_its_commit_tick(small7, variant):
    augmented, stimuli = small7
    n = len(stimuli)
    injected = inject_mutants(augmented, variant=variant)
    cls = _counting(injected)
    ticks = {m.hf_tick for m in injected.mutants}
    assert 1 in ticks and 7 in ticks and ticks - {1, 7}
    for index, mutant in enumerate(injected.mutants):
        model = cls()
        model.activate_mutant(index)
        expected = n if mutant.hf_tick == 1 else 2 * n
        assert _ticks(model, stimuli) == expected, mutant
    # A switched-off injected model samples like the golden one.
    assert _ticks(cls(), stimuli) == n


def test_delta_mutant_on_tick_one_samples_once(small7):
    augmented, stimuli = small7
    registers = [tap.register.name for tap in augmented.bank.taps]
    injected = inject_mutants(
        augmented, delta_ticks={name: 1 for name in registers}
    )
    cls = _counting(injected)
    deltas = [
        i for i, m in enumerate(injected.mutants) if m.kind == "delta"
    ]
    assert deltas
    for index in deltas:
        assert injected.mutants[index].hf_tick == 1
        model = cls()
        model.activate_mutant(index)
        assert _ticks(model, stimuli) == len(stimuli)

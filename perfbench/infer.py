"""The two inference workloads: ``infer-skl`` and ``islands-zen``.

``infer-skl`` runs the whole pipeline cold: each operation builds a fresh
noisy SKL ``Machine``, so simulation in ``Machine.measure`` does most of the
work.  ``islands-zen`` measures one ZEN ``Machine`` during set-up; each
operation then re-runs ``infer_port_mapping`` against its memoized
measurements, which leaves pure inference on the island model's local
parallel path (``EvolutionConfig(workers=2)``).
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from pathlib import Path

import inputs
from common import (
    SETUP_REPEATS,
    Checks,
    import_seconds,
    latency_metrics,
    lp_davg,
    own_peak_rss_mb,
    timed_rounds,
)
from tracing import EpochRecorder, Tracer, inference_layers, median, traced_inference

from repro.analysis.metrics import mape
from repro.machine import MeasurementConfig, skl_machine, zen_machine
from repro.pmevo import (
    infer_port_mapping,
    pair_experiments,
    random_experiments,
    singleton_experiments,
)
from repro.throughput.lp import lp_throughput

#: Measured throughputs may fall below the ground-truth LP bound by at most
#: this share: the noise model's median of 5 jittered samples
#: (sigma 0.4%) stays well inside it.
NOISE_ALLOWANCE = 0.03
#: Bound, in percent, on the held-out MAPE of an inferred SKL mapping (README).
HELDOUT_MAPE_BOUND = 60.0
#: Agreement between the reported and the LP-recomputed training D_avg.
DAVG_TOLERANCE = 1e-6


def _noisy(factory, seed: int):
    return factory(measurement=MeasurementConfig(noisy=True, seed=seed))


def _check_result(checks: Checks, result, forms, label: str) -> None:
    """Properties every pipeline result must have."""
    missing = [name for name in forms if name not in result.mapping]
    checks.expect(not missing, f"{label}: forms left unmapped: {missing}")
    reduced = result.measurements.restricted_to(result.partition.representatives)
    recomputed = lp_davg(result.representative_mapping, reduced)
    checks.expect(
        abs(recomputed - result.evolution.davg) <= DAVG_TOLERANCE,
        f"{label}: reported D_avg {result.evolution.davg!r} but the LP gives {recomputed!r}",
    )


def _check_lower_bound(checks: Checks, machine, measurements, bounds: dict, label: str) -> None:
    """No measurement beats the ground-truth mapping's LP bound (less noise)."""
    truth = machine.ground_truth_mapping()
    for item in measurements:
        bound = bounds.get(item.experiment)
        if bound is None:
            bound = bounds[item.experiment] = lp_throughput(truth, item.experiment)
        checks.expect(
            item.throughput >= bound * (1.0 - NOISE_ALLOWANCE),
            f"{label}: measured {item.throughput} below the LP bound {bound} "
            f"for {item.experiment!r}",
        )


def infer_skl(root: Path, seed: int, seconds: float, tracer: Tracer | None) -> dict:
    setup_s = import_seconds(root)
    forms = inputs.class_forms(skl_machine(), inputs.SKL_CLASSES)
    evolution_seeds = inputs.seeds("infer-skl", seed, len(inputs.SKL_NOISE_SEEDS))
    pairs = list(zip(inputs.SKL_NOISE_SEEDS, evolution_seeds))
    outputs: dict[int, list[str]] = {k: [] for k in range(len(pairs))}
    first: dict[int, object] = {}

    def op(k: int):
        noise_seed, evolution_seed = pairs[k]
        machine = _noisy(skl_machine, noise_seed)
        config = inputs.pmevo_config(inputs.SKL_EVOLUTION, evolution_seed)
        result = infer_port_mapping(machine, forms, config)
        outputs[k].append(result.mapping.to_json())
        first.setdefault(k, result)

    round_ops = [lambda k=k: op(k) for k in range(len(pairs))]
    with traced_inference(tracer) if tracer else nullcontext():
        durations, elapsed, failed = timed_rounds(round_ops, seconds)
    metrics = {"setup_s": setup_s, **latency_metrics(durations, elapsed)}
    metrics["peak_rss_mb"] = own_peak_rss_mb()

    checks = Checks()
    bounds: dict = {}
    heldout_errors = []
    for k, (noise_seed, _) in enumerate(pairs):
        label = f"infer-skl noise seed {noise_seed}"
        if k not in first:
            continue  # every operation of this pair failed and was counted
        checks.expect(
            len(set(outputs[k])) == 1,
            f"{label}: {len(set(outputs[k]))} different mappings from one seed",
        )
        result = first[k]
        _check_result(checks, result, forms, label)
        machine = _noisy(skl_machine, noise_seed)
        _check_lower_bound(checks, machine, result.measurements, bounds, label)
        heldout = random_experiments(
            forms, inputs.HELDOUT_SIZE, inputs.HELDOUT_COUNT, seed=noise_seed
        )
        measured = [machine.measure(e) for e in heldout]
        predicted = [lp_throughput(result.mapping, e) for e in heldout]
        error = mape(predicted, measured)
        heldout_errors.append(error)
        checks.expect(
            error < HELDOUT_MAPE_BOUND,
            f"{label}: held-out MAPE {error:.1f}% not below {HELDOUT_MAPE_BOUND}%",
        )
    info = {
        "heldout_mape": heldout_errors,
        "benchmarking_s": median([r.benchmarking_seconds for r in first.values()]),
        "inference_s": median([r.inference_seconds for r in first.values()]),
    }
    if tracer is not None:
        metrics.update(inference_layers(tracer, plans=len(durations)))
    return {"attempted": len(durations) + failed, "failed": failed,
            "metrics": metrics, "checks": checks, "info": info}


def measure_plan(machine, forms) -> None:
    """Stage 1 of the pipeline: measure singletons, then the pair families."""
    singles = {}
    for experiment in singleton_experiments(forms):
        singles[experiment.support[0]] = machine.measure(experiment)
    for experiment in pair_experiments(forms, singles):
        machine.measure(experiment)


def islands_zen(root: Path, seed: int, seconds: float, tracer: Tracer | None) -> dict:
    (evolution_seed,) = inputs.seeds("islands-zen", seed, 1)
    forms = inputs.class_forms(zen_machine(), inputs.ZEN_CLASSES)
    config = inputs.pmevo_config(
        inputs.ZEN_EVOLUTION, evolution_seed, workers=inputs.ZEN_WORKERS
    )
    serial = inputs.pmevo_config(inputs.ZEN_EVOLUTION, evolution_seed, workers=1)

    with traced_inference(tracer) if tracer else nullcontext():
        import_s = import_seconds(root)
        measure_times = []
        for _ in range(SETUP_REPEATS):
            # Noise-free, so congruence filtering leaves the same problem
            # for every seed: noise near the congruence tolerance would
            # otherwise change the number of representatives between seeds.
            machine = zen_machine(measurement=MeasurementConfig(noisy=False))
            start = time.perf_counter()
            measure_plan(machine, forms)
            measure_times.append(time.perf_counter() - start)
        setup_s = import_s + median(measure_times)
        # The workers=1 reference runs in this process, outside the timed
        # phase; traced, it is where evolution and local search are seen.
        reference = infer_port_mapping(machine, forms, serial)
        expected = reference.mapping.to_json()

        outputs: list[str] = []

        def op():
            recorder = EpochRecorder(tracer) if tracer else None
            result = infer_port_mapping(machine, forms, config, checkpointer=recorder)
            outputs.append(result.mapping.to_json())

        durations, elapsed, failed = timed_rounds([op], seconds)
    metrics = {"setup_s": setup_s, **latency_metrics(durations, elapsed)}
    metrics["peak_rss_mb"] = own_peak_rss_mb()

    checks = Checks()
    mismatched = sum(text != expected for text in outputs)
    checks.expect(
        mismatched == 0,
        f"islands-zen: {mismatched} of {len(outputs)} workers={inputs.ZEN_WORKERS} "
        "mappings differ from the workers=1 run",
    )
    _check_result(checks, reference, forms, "islands-zen")
    _check_lower_bound(checks, machine, reference.measurements, {}, "islands-zen")
    info = {
        "benchmarking_s": median(measure_times),
        "inference_s": reference.inference_seconds,
        "train_davg": reference.evolution.davg,
    }
    if tracer is not None:
        metrics.update(inference_layers(tracer, plans=len(measure_times)))
    return {"attempted": len(durations) + failed, "failed": failed,
            "metrics": metrics, "checks": checks, "info": info}


def inference_probe(seed: int) -> dict[str, float]:
    """Per-layer metrics of one small, serial, two-island pipeline run.

    Traced runs of workloads that do not reach some inference layer report
    that layer from this run, so every traced run reports every layer.
    """
    tracer = Tracer()
    noise_seed, evolution_seed = inputs.seeds("probe", seed, 2)
    forms = inputs.class_forms(skl_machine(), inputs.PROBE_CLASSES)
    config = inputs.pmevo_config(inputs.PROBE_EVOLUTION, evolution_seed)
    with traced_inference(tracer):
        infer_port_mapping(
            _noisy(skl_machine, noise_seed), forms, config, checkpointer=EpochRecorder(tracer)
        )
    return inference_layers(tracer, plans=1)

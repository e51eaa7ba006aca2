"""Per-layer tracing from outside the program.

A traced run wraps the public entry points of each layer in place — class
methods and the names the pipeline module calls — records how long each
call took and what it did, and restores the originals afterwards.  Nothing
inside ``src/`` is edited; the wrappers only observe, so a traced run
computes the same outputs as an untraced one.  The difference between the
two runs' ``ops_per_s`` is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import statistics
import time

from repro.machine.measurement import Machine
from repro.pmevo import EvolutionState, PackedPopulation, PortMappingEvolver
from repro.pmevo import pipeline as pipeline_module

#: Per-layer metric names and units, in the order ``BENCHMARK.json`` lists them.
LAYER_UNITS = {
    "machine.measure_ms": "ms",
    "machine.busy_s": "s",
    "machine.calls": "count",
    "machine.sim_kips": "1000/s",
    "expgen.ms": "ms",
    "congruence.ms": "ms",
    "evolution.gen_ms": "ms",
    "evolution.evals_per_s": "1/s",
    "evolution.generations": "count",
    "kernel.genomes_per_s": "1/s",
    "kernel.pack_ms": "ms",
    "localsearch.ms": "ms",
    "islands.epoch_ms": "ms",
    "islands.epochs": "count",
    "transport.state_kb": "KiB",
    "transport.pickle_kb": "KiB",
    "transport.encode_ms": "ms",
    "transport.decode_ms": "ms",
    "protocol.parse_ms": "ms",
    "cache.hit_ratio": "ratio",
    "cache.lookups": "count",
    "cache.misses_per_req": "count",
    "eval.us_per_seq": "us",
    "serve.batch_mean": "count",
    "serve.server_p50_ms": "ms",
}

#: Generations between two extra, separately timed kernel evaluations.
KERNEL_EVERY = 5

#: Name prefixes of the serving layers' metrics.
SERVING_LAYERS = ("protocol.", "cache.", "eval.", "serve.")


def median(values) -> float:
    return float(statistics.median(values))


class Tracer:
    """Samples and counters of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {}
        self.totals: dict[str, float] = {}
        self.pid = os.getpid()

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def add(self, name: str, value: float) -> None:
        self.totals[name] = self.totals.get(name, 0.0) + value

    def local(self) -> bool:
        """Whether the caller runs in the traced process (not a forked worker,
        whose records would be lost when it exits)."""
        return os.getpid() == self.pid


@contextlib.contextmanager
def patched(owner, name: str, make_wrapper):
    """Replace ``owner.name`` by ``make_wrapper(original)`` for the block."""
    original = getattr(owner, name)
    setattr(owner, name, make_wrapper(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


def _timed(tracer: Tracer, total: str):
    """Wrapper factory adding each call's seconds to ``tracer.totals[total]``."""

    def make(original):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                tracer.add(total, time.perf_counter() - start)
                tracer.add(f"{total}.calls", 1)

        return wrapper

    return make


def _measure_wrapper(tracer: Tracer):
    def make(original):
        def measure(self, experiment):
            before = self.simulated_instructions
            start = time.perf_counter()
            value = original(self, experiment)
            elapsed = time.perf_counter() - start
            simulated = self.simulated_instructions - before
            if simulated:  # a cold call: the experiment was simulated
                tracer.sample("machine.measure_ms", 1000.0 * elapsed)
                tracer.add("machine.busy", elapsed)
                tracer.add("machine.calls", 1)
                tracer.add("machine.simulated", simulated)
            return value

        return measure

    return make


def _advance_wrapper(tracer: Tracer):
    """Runs ``advance(state, n)`` as n timed ``advance(state, 1)`` calls.

    The generation loop checks its stop conditions before every generation,
    so stepping one generation at a time computes exactly what one call
    would.  After every ``KERNEL_EVERY``-th generation the population is
    packed and evaluated once more, outside the timed generation, to time
    the kernel alone.
    """

    def make(original):
        def advance(self, state, generations=None):
            if not tracer.local():
                return original(self, state, generations)
            budget = generations if generations is not None else self.config.max_generations
            workspace = None
            for _ in range(budget):
                if state.stopped or state.generation >= self.config.max_generations:
                    break
                evaluations = state.evaluations
                start = time.perf_counter()
                original(self, state, 1)
                elapsed = time.perf_counter() - start
                tracer.sample("evolution.gen_ms", 1000.0 * elapsed)
                tracer.add("evolution.generations", 1)
                tracer.add("evolution.busy", elapsed)
                tracer.add("evolution.evaluations", state.evaluations - evaluations)

                if state.generation % KERNEL_EVERY:
                    continue
                start = time.perf_counter()
                packed = PackedPopulation.from_genomes(state.population, self.names)
                tracer.sample("kernel.pack_ms", 1000.0 * (time.perf_counter() - start))
                if workspace is None:  # sized for this evolver; dropped with the call
                    workspace = self.evaluator.packed_workspace(self.config.batch_chunk)
                start = time.perf_counter()
                self.evaluator.throughputs_from_packed(packed, workspace=workspace)
                tracer.add("kernel.busy", time.perf_counter() - start)
                tracer.add("kernel.genomes", len(packed))
            return state

        return advance

    return make


@contextlib.contextmanager
def traced_inference(tracer: Tracer):
    """Wrap the machine, experiment-generation, congruence, evolution and
    local-search entry points that ``infer_port_mapping`` reaches."""
    with contextlib.ExitStack() as stack:
        stack.enter_context(patched(Machine, "measure", _measure_wrapper(tracer)))
        for name in ("singleton_experiments", "pair_experiments"):
            stack.enter_context(patched(pipeline_module, name, _timed(tracer, "expgen")))
        stack.enter_context(
            patched(pipeline_module, "find_congruence_classes", _timed(tracer, "congruence"))
        )
        stack.enter_context(
            patched(PortMappingEvolver, "advance", _advance_wrapper(tracer))
        )
        stack.enter_context(
            patched(PortMappingEvolver, "finalize", _timed(tracer, "localsearch"))
        )
        yield


class EpochRecorder:
    """An ``after_epoch`` recorder for ``infer_port_mapping(checkpointer=...)``.

    It writes nothing.  At each epoch barrier it records the time since the
    previous barrier, then sizes every island state as the transports ship
    it (``to_json`` for the socket transport and checkpoints, pickle for the
    process pool) and times the JSON codec both ways.  Its own work is left
    out of the next barrier-to-barrier interval.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._last: float | None = None
        tracer.add("islands.runs", 1)

    def after_epoch(self, snapshot) -> None:
        now = time.perf_counter()
        tracer = self.tracer
        if self._last is not None:
            tracer.sample("islands.epoch_ms", 1000.0 * (now - self._last))
        tracer.add("islands.epochs", 1)
        for state in snapshot.states:
            start = time.perf_counter()
            text = state.to_json()
            tracer.sample("transport.encode_ms", 1000.0 * (time.perf_counter() - start))
            start = time.perf_counter()
            EvolutionState.from_json(text)
            tracer.sample("transport.decode_ms", 1000.0 * (time.perf_counter() - start))
            tracer.sample("transport.state_kb", len(text.encode()) / 1024.0)
            tracer.sample("transport.pickle_kb", len(pickle.dumps(state)) / 1024.0)
        self._last = time.perf_counter()


def inference_layers(tracer: Tracer, plans: int) -> dict[str, float]:
    """Per-layer metrics of the inference layers.

    ``plans`` is the number of experiment plans measured cold: machine
    metrics are per plan.  Experiment generation and congruence are per
    pipeline run, local search per ``finalize`` call and epochs per island
    run.
    """
    s, t = tracer.samples, tracer.totals
    out: dict[str, float] = {}
    if s.get("machine.measure_ms"):
        out["machine.measure_ms"] = median(s["machine.measure_ms"])
        out["machine.busy_s"] = t["machine.busy"] / plans
        out["machine.calls"] = t["machine.calls"] / plans
        out["machine.sim_kips"] = t["machine.simulated"] / t["machine.busy"] / 1000.0
    runs = t.get("congruence.calls", 0)
    if runs:
        out["expgen.ms"] = 1000.0 * t["expgen"] / runs
        out["congruence.ms"] = 1000.0 * t["congruence"] / runs
    if s.get("evolution.gen_ms"):
        out["evolution.gen_ms"] = median(s["evolution.gen_ms"])
        out["evolution.evals_per_s"] = t["evolution.evaluations"] / t["evolution.busy"]
        out["evolution.generations"] = t["evolution.generations"]
        out["kernel.genomes_per_s"] = t["kernel.genomes"] / t["kernel.busy"]
        out["kernel.pack_ms"] = median(s["kernel.pack_ms"])
        out["localsearch.ms"] = 1000.0 * t["localsearch"] / t["localsearch.calls"]
    if s.get("islands.epoch_ms"):
        out["islands.epoch_ms"] = median(s["islands.epoch_ms"])
        out["islands.epochs"] = t["islands.epochs"] / t["islands.runs"]
        for name in ("state_kb", "pickle_kb", "encode_ms", "decode_ms"):
            out[f"transport.{name}"] = median(s[f"transport.{name}"])
    return out

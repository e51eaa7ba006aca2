"""Inputs of the benchmark: form subsets, configs, seeds and the key stream.

Everything the benchmark feeds the program is defined here, so edits to the
paper-reproduction suite under ``benchmarks/`` cannot change what this
benchmark measures.  Form subsets, configs and measurement-noise seeds are
fixed; evolution seeds, the key universe and the request stream come from
``--seed``, so every seed asks for the same amount of work.
"""

from __future__ import annotations

import numpy as np

from repro.core.experiment import Experiment
from repro.pmevo import EvolutionConfig, PMEvoConfig

#: Tags that keep the seed streams of different workloads apart.
_TAGS = {"infer-skl": 1, "islands-zen": 2, "serve-zipf": 3, "probe": 4}

# -- infer-skl -----------------------------------------------------------------

#: One form from each of these semantic classes (integer, divider, memory
#: and vector pipes).
SKL_CLASSES = (
    "int_alu", "int_shift", "int_mul", "int_div",
    "load_gpr", "store_gpr", "vec_fp_add@256", "vec_shuffle@256",
)
SKL_EVOLUTION = dict(population_size=40, max_generations=30, patience=1000)
#: Measurement-noise seeds of the fresh machines; operations cycle through
#: them, so every run repeats each one and can check that repeats agree byte
#: for byte.  They are fixed, not drawn from ``--seed``: noise near the
#: congruence tolerance changes the number of representatives, and with it
#: the evolution's problem size, so seed-drawn noise would change the amount
#: of work from run to run.  ``--seed`` draws the evolution seeds.
SKL_NOISE_SEEDS = (11, 12)
#: Size and count of the held-out random experiments (Section 5.3 style).
HELDOUT_SIZE = 5
HELDOUT_COUNT = 16

# -- islands-zen ---------------------------------------------------------------

ZEN_CLASSES = (
    "int_alu", "int_mul", "load_gpr", "store_gpr",
    "vec_fp_add@128", "vec_fp_mul@256", "vec_logic@256", "vec_shuffle@128",
)
ZEN_EVOLUTION = dict(
    population_size=48,
    max_generations=30,
    patience=1000,
    islands=4,
    migration_interval=5,
    migration_size=2,
)
ZEN_WORKERS = 2

# -- serve-zipf ----------------------------------------------------------------

UNIVERSE = 16384
SEQUENCE_SIZE = 5
BATCH = 5
ZIPF_S = 1.0
CACHE_SIZE = 2048
WARMUP_REQUESTS = 800
#: Batches the Zipf stream draws at a time.
ZIPF_CHUNK = 4096
#: Every key whose universe index is a multiple of this is checked against
#: ``bottleneck_throughput_reference`` after the timed phase.
ORACLE_STRIDE = 16

# -- trace-mode probe of layers a workload does not reach ----------------------

PROBE_CLASSES = ("int_alu", "int_mul", "load_gpr", "store_gpr", "vec_fp_add@128", "vec_shuffle@128")
PROBE_EVOLUTION = dict(
    population_size=16,
    max_generations=10,
    patience=1000,
    islands=2,
    migration_interval=5,
    migration_size=2,
    workers=1,
)


def seeds(workload: str, seed: int, count: int) -> list[int]:
    """``count`` 31-bit seeds derived from (workload, --seed)."""
    state = np.random.SeedSequence([_TAGS[workload], seed]).generate_state(count)
    return [int(v) & 0x7FFFFFFF for v in state]


def class_forms(machine, classes: tuple[str, ...]) -> list[str]:
    """The first instruction form (in ISA order) of each semantic class."""
    first: dict[str, str] = {}
    for form in machine.isa:
        first.setdefault(form.semantic_class, form.name)
    return [first[c] for c in classes]


def pmevo_config(evolution: dict, seed: int, **overrides) -> PMEvoConfig:
    return PMEvoConfig(
        evolution=EvolutionConfig(**{**evolution, **overrides, "seed": seed})
    )


def key_universe(names: list[str], seed: int) -> list[Experiment]:
    """``UNIVERSE`` distinct random size-5 multisets over ``names``."""
    rng = np.random.default_rng(seed)
    seen: set[Experiment] = set()
    keys: list[Experiment] = []
    while len(keys) < UNIVERSE:
        picks = rng.integers(0, len(names), size=SEQUENCE_SIZE)
        experiment = Experiment.from_sequence(names[i] for i in picks)
        if experiment not in seen:
            seen.add(experiment)
            keys.append(experiment)
    return keys


class ZipfStream:
    """Batches of key indices, Zipf(``ZIPF_S``)-distributed over the universe.

    Ranks are assigned to keys by a seeded permutation, so the hot keys differ
    between seeds while the popularity curve stays the same.
    """

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)
        weights = np.arange(1, UNIVERSE + 1, dtype=np.float64) ** -ZIPF_S
        self._cdf = np.cumsum(weights / weights.sum())
        self._by_rank = self._rng.permutation(UNIVERSE)
        self._buffer = np.empty((0, BATCH), dtype=np.int64)
        self._next = 0

    def batch(self) -> np.ndarray:
        if self._next == len(self._buffer):
            draws = self._rng.random((ZIPF_CHUNK, BATCH))
            ranks = np.minimum(np.searchsorted(self._cdf, draws), UNIVERSE - 1)
            self._buffer = self._by_rank[ranks]
            self._next = 0
        row = self._buffer[self._next]
        self._next += 1
        return row

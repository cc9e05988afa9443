"""Seeded inputs of the benchmark workloads.

Every input is derived from the ``--seed`` argument alone, through
``ScenarioSpec.with_overrides`` on registered built-in specs, so the same
seed always yields the same specs and the same request sequence.  The
parameters that set a spec's cost (ONI count for ``sweep_cold``, ring
length for ``serve_mixed``) are stratified rather than drawn freely: each
block of inputs holds the same mix, so a run's total work does not swing
with the seed while the specs themselves (exact ring length, workload,
operating point, trace seed) stay distinct.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator, List, Tuple

from repro.campaigns import golden_representative_specs
from repro.scenarios import ScenarioSpec, builtin_scenarios, default_registry
from repro.scenarios.spec import TRACE_KINDS, WORKLOAD_KINDS

WORKLOADS = ("sweep_cold", "serve_mixed")

#: ONI counts of one block of generated ``sweep_cold`` specs (shuffled per block).
SWEEP_ONI_COUNTS = (4, 5, 6, 7, 8, 9, 10, 12)

#: Lower edges of the 0.5 mm ring-length strata of ``serve_mixed`` specs:
#: each block of 8 pool or fresh specs draws one length from each stratum.
SERVE_RING_STRATA_MM = (7.5, 8.0, 8.5, 9.0, 9.5, 10.0, 10.5, 11.0)

#: Pre-seeded ``serve_mixed`` pool size and Zipf exponent of its popularity.
#: Neither comes from measured traffic; README.md says why they were chosen.
SERVE_POOL_SIZE = len(SERVE_RING_STRATA_MM)
SERVE_ZIPF_EXPONENT = 1.1
#: Requests per block; each block holds one adjacent fresh-spec pair (0.25%),
#: few enough that computing fresh specs takes about a quarter of the wall
#: time and HTTP, hashing and store reads the rest (see README.md).
SERVE_BLOCK = 800

def _rng(workload: str, seed: int, stream: str) -> random.Random:
    # A string seed is hashed with SHA-512, independent of PYTHONHASHSEED.
    return random.Random(f"perfbench:{workload}:{stream}:{seed}")


def golden_specs() -> List[ScenarioSpec]:
    """The 9 specs pinned under ``tests/golden/``."""
    return builtin_scenarios() + golden_representative_specs()


def sweep_specs(seed: int) -> Iterator[ScenarioSpec]:
    """Endless stream of distinct SCC-die specs, most with their own mesh."""
    rng = _rng("sweep_cold", seed, "specs")
    base = default_registry().get("scc_uniform_18mm")
    index = 0
    while True:
        counts = list(SWEEP_ONI_COUNTS)
        rng.shuffle(counts)
        for oni_count in counts:
            yield base.with_overrides(
                {
                    "name": f"sweep_cold-{seed}-{index:04d}",
                    "description": "perfbench sweep_cold generated spec",
                    "network.ring_length_mm": round(rng.uniform(14.0, 46.0), 1),
                    "network.oni_count": oni_count,
                    "workload.kind": rng.choice(WORKLOAD_KINDS),
                    "workload.seed": rng.randrange(1000),
                    "power.vcsel_power_mw": round(rng.uniform(2.0, 6.0), 2),
                    "power.heater_ratio": round(rng.uniform(0.0, 0.8), 2),
                    "trace.kind": rng.choice(TRACE_KINDS),
                    "trace.seed": rng.randrange(1000),
                }
            )
            index += 1


def _small_die_specs(rng: random.Random, prefix: str) -> Iterator[ScenarioSpec]:
    """Endless stream of distinct small-die specs named ``<prefix><index>``."""
    base = default_registry().get("small_die_uniform")
    index = 0
    while True:
        strata = list(SERVE_RING_STRATA_MM)
        rng.shuffle(strata)
        for lower in strata:
            yield _small_die_spec(base, rng, f"{prefix}{index:04d}", lower)
            index += 1


def _small_die_spec(base: ScenarioSpec, rng: random.Random, name: str, ring_lower_mm: float) -> ScenarioSpec:
    return base.with_overrides(
        {
            "name": name,
            "description": "perfbench serve_mixed spec",
            "network.ring_length_mm": round(ring_lower_mm + rng.uniform(0.0, 0.5), 2),
            "workload.kind": rng.choice(WORKLOAD_KINDS),
            "workload.seed": rng.randrange(1000),
            "power.vcsel_power_mw": round(rng.uniform(2.0, 6.0), 2),
            "power.heater_ratio": round(rng.uniform(0.0, 0.8), 2),
            "trace.seed": rng.randrange(1000),
        }
    )


def serve_pool(seed: int) -> List[ScenarioSpec]:
    """The small-die specs pre-seeded into the store (popularity order)."""
    specs = _small_die_specs(_rng("serve_mixed", seed, "pool"), f"serve_mixed-{seed}-pool")
    return list(itertools.islice(specs, SERVE_POOL_SIZE))


def serve_fresh(seed: int) -> Iterator[ScenarioSpec]:
    """Endless stream of small-die specs that are not in the pool."""
    return _small_die_specs(_rng("serve_mixed", seed, "fresh"), f"serve_mixed-{seed}-fresh")


def serve_requests(seed: int) -> Iterator[Tuple[str, int]]:
    """Endless request sequence: ``("pool", rank)`` or ``("fresh", index)``.

    Each block of :data:`SERVE_BLOCK` requests holds one fresh spec sent
    twice in adjacent slots, so the two clients coalesce on it, and Zipf
    draws over the pool elsewhere.  The pair never touches a block edge, so
    two pairs are always separated by pool requests.
    """
    rng = _rng("serve_mixed", seed, "requests")
    weights = [1.0 / (rank + 1) ** SERVE_ZIPF_EXPONENT for rank in range(SERVE_POOL_SIZE)]
    fresh = 0
    while True:
        pair_at = rng.randrange(1, SERVE_BLOCK - 2)
        ranks = rng.choices(range(SERVE_POOL_SIZE), weights=weights, k=SERVE_BLOCK - 2)
        block: List[Tuple[str, int]] = [("pool", rank) for rank in ranks]
        block[pair_at:pair_at] = [("fresh", fresh), ("fresh", fresh)]
        fresh += 1
        yield from block

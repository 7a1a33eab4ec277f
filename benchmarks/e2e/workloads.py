"""The four workloads: query kinds and the seeded inputs the benchmark builds.

Every input is made here from the run's ``--seed`` with NumPy alone, so
the same seed gives the same queries on every commit and the program
receives only the generated values.  The one exception is the Theorem 2
select, whose rank is the adversary's ``hardest_rank`` of the generated
sizes: that is a parameter of the paper's lower bound, not of the code
being timed.

A workload is an endless cyclic list of queries.  Query ``i`` has kind
``kinds[i % len(kinds)]`` and its own seed, a hash of ``(run seed,
workload, i % distinct)``; a window of measurement runs a prefix of it.
The first queries, the model sample, ignore the run seed: their MCB
cycle and message counts are the ``model_*`` metrics, which must then
read the same on every run and every seed, so that any change in them
is the program's.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Optional

import numpy as np

WORKLOADS = ("sim-generator", "sim-vector", "svc-cold", "svc-cached")

@dataclass(frozen=True)
class Kind:
    """One query shape of a simulator workload."""

    name: str
    op: str  # "sort" | "select" | "batch"
    p: int
    k: int
    n: int
    dist: str = "even"  # even | skewed | thm3 | duplicates
    rank: str = "median"  # median | hardest (select only)
    engine: str = "generator"
    backend: str = "columnsort"
    lanes: int = 1  # batch only


@dataclass(frozen=True)
class JobKind:
    """One job shape of a service workload (the POST /jobs body)."""

    name: str
    spec: dict


SIM_KINDS = {
    "sim-generator": (
        Kind("sort.even_pk", "sort", 8, 8, 512),            # §5.2
        Kind("sort.virtual", "sort", 16, 4, 1024),          # §6.1
        Kind("sort.skewed", "sort", 8, 4, 256, "skewed"),   # §7.2
        Kind("sort.thm3", "sort", 8, 4, 256, "thm3"),       # Thm 3
        Kind("sort.duplicates", "sort", 8, 8, 512, "duplicates"),  # §3
        Kind("select.median", "select", 8, 2, 256),         # §8
        Kind("select.skewed", "select", 16, 4, 2048, "skewed"),
        Kind("select.thm2", "select", 8, 2, 256, "skewed", "hardest"),
    ),
    "sim-vector": (
        Kind("batch.columnsort", "batch", 16, 16, 4096, lanes=16),
        Kind("batch.batcher", "batch", 8, 8, 512, backend="batcher",
             lanes=32),
        Kind("sort.vector_auto", "sort", 16, 16, 4096, engine="vector",
             backend="auto"),
        Kind("select.vector", "select", 8, 2, 40000, engine="vector"),
    ),
}

SERVICE_KINDS = (
    JobKind("sort.generator",
            {"algorithm": "sort", "p": 8, "k": 8, "n": 512}),
    JobKind("select.generator",
            {"algorithm": "select", "p": 8, "k": 2, "n": 256}),
    JobKind("sort.vector_batch",
            {"algorithm": "sort", "p": 8, "k": 8, "n": 512,
             "engine": "vector", "batch": 8}),
    JobKind("sort.batcher",
            {"algorithm": "sort", "p": 8, "k": 8, "n": 64,
             "engine": "vector", "backend": "batcher"}),
    JobKind("select.vector",
            {"algorithm": "select", "p": 8, "k": 2, "n": 20000,
             "engine": "vector"}),
)

#: Plan shapes the service compiles at boot (``repro serve --prewarm``).
SERVICE_PREWARM = ("64x8", "batcher:8x8")

#: Distinct queries per workload before the list repeats.  svc-cold is
#: long enough that no run wraps into its own cache entries; svc-cached
#: is the pool filled during setup and then read over and over.
DISTINCT = {
    "sim-generator": 1500,
    "sim-vector": 1500,
    "svc-cold": 40000,
    "svc-cached": 64,
}

#: Full passes over the kinds that every workload process completes,
#: however slow: the model_* metrics average over exactly these
#: queries.  Each takes about half of a process's 5 s share of the
#: window when the host runs at half speed.
MODEL_ROUNDS = {
    "sim-generator": 10,
    "sim-vector": 30,
    "svc-cold": 20,
}


def model_size(workload: str, quick: bool = False) -> int:
    """Queries in the model sample; ``--quick`` cuts it 20x.  svc-cached
    runs only its pool, which is its model sample."""
    if workload == "svc-cached":
        return DISTINCT[workload]
    rounds = max(1, MODEL_ROUNDS[workload] // (20 if quick else 1))
    return rounds * len(SIM_KINDS.get(workload, SERVICE_KINDS))


def query_seed(seed: int, workload: str, index: int,
               warmup: bool = False) -> int:
    """Seed of query ``index``: a stable hash, spaced so batch lanes
    (seed .. seed + batch - 1) never meet another query's seed.
    Warm-up queries draw from their own seed space; the model sample
    (the first ``model_size`` queries) from one that no run seed moves."""
    index %= DISTINCT[workload]
    if warmup:
        key = f"{seed}/{workload}/warmup/{index}"
    elif index < model_size(workload):
        key = f"model/{workload}/{index}"
    else:
        key = f"{seed}/{workload}/query/{index}"
    digest = hashlib.blake2b(key.encode(), digest_size=5).digest()
    return int.from_bytes(digest, "big") * 64


# ---------------------------------------------------------------------------
# input generators (NumPy only)


def even_values(n: int, seed: int) -> list[int]:
    """``n`` distinct values, as ``repro serve`` derives them from a job
    seed: ``default_rng(seed).choice(max(4n, 1024), n, replace=False)``."""
    rng = np.random.default_rng(seed)
    return rng.choice(max(4 * n, 1024), size=n, replace=False).tolist()


def split(values: list, sizes: list[int]) -> dict[int, list]:
    """Processor id (1-based) -> consecutive slice of ``values``."""
    parts, at = {}, 0
    for pid, size in enumerate(sizes, start=1):
        parts[pid] = values[at:at + size]
        at += size
    return parts


def even_parts(n: int, p: int, seed: int) -> dict[int, list]:
    """The even distribution a service job with this seed sorts."""
    return split(even_values(n, seed), [n // p] * p)


def skewed_sizes(n: int, p: int, rng: np.random.Generator) -> list[int]:
    """Uneven sizes >= 1 summing to ``n`` (Dirichlet, concentration 1/2)."""
    weights = rng.dirichlet([0.5] * p)
    sizes = 1 + np.floor(weights * (n - p)).astype(np.int64)
    sizes[int(np.argmax(weights))] += n - int(sizes.sum())
    return sizes.tolist()


def theorem3_parts(sizes: list[int], values: list) -> dict[int, list]:
    """Theorem 3 placement: deal the values in descending order round
    robin over processors with room left, so no two sorted neighbours
    share a processor while every processor has room."""
    ordered = sorted(values, reverse=True)
    parts = {pid: [] for pid in range(1, len(sizes) + 1)}
    at = 0
    while at < len(ordered):
        for pid, size in enumerate(sizes, start=1):
            if at < len(ordered) and len(parts[pid]) < size:
                parts[pid].append(ordered[at])
                at += 1
    return parts


@dataclass
class SimQuery:
    """One simulator query with its inputs."""

    index: int
    kind: Kind
    parts: Any  # dict pid -> values; a list of such dicts for "batch"
    rank: Optional[int] = None


def sim_query(workload: str, seed: int, index: int,
              warmup: bool = False) -> SimQuery:
    """Build query ``index`` of a simulator workload."""
    table = SIM_KINDS[workload]
    kind = table[index % len(table)]
    qseed = query_seed(seed, workload, index, warmup)
    rng = np.random.default_rng(qseed)
    n, p = kind.n, kind.p
    if kind.op == "batch":
        lanes = [even_parts(n, p, qseed + b) for b in range(kind.lanes)]
        return SimQuery(index, kind, lanes)
    if kind.dist == "even":
        parts = even_parts(n, p, qseed)
    elif kind.dist == "duplicates":
        values = rng.choice(np.arange(1, 17) * 1000, size=n).tolist()
        parts = split(values, [n // p] * p)
    else:
        sizes = skewed_sizes(n, p, rng)
        values = rng.choice(4 * n, size=n, replace=False).tolist()
        parts = (
            theorem3_parts(sizes, values) if kind.dist == "thm3"
            else split(values, sizes)
        )
    rank = None
    if kind.op == "select":
        if kind.rank == "hardest":
            from repro.bounds import hardest_rank

            rank = hardest_rank([len(parts[pid]) for pid in sorted(parts)])
        else:
            rank = (n + 1) // 2
    return SimQuery(index, kind, parts, rank)


def job_spec(workload: str, seed: int, index: int,
             warmup: bool = False) -> tuple[str, dict]:
    """Kind name and POST body of job ``index`` of a service workload."""
    kind = SERVICE_KINDS[index % len(SERVICE_KINDS)]
    qseed = query_seed(seed, workload, index, warmup)
    return kind.name, {**kind.spec, "seed": qseed}


def pool_order(seed: int, size: int, index: int) -> int:
    """Which pool entry svc-cached draws as its ``index``-th job: each
    pass over the pool visits every entry once, in an order the run
    seed shuffles."""
    rounds, at = divmod(index, size)
    return _permutation(seed, rounds, size)[at]


@lru_cache(maxsize=4)
def _permutation(seed: int, rounds: int, size: int) -> tuple[int, ...]:
    return tuple(np.random.default_rng([seed, rounds]).permutation(size)
                 .tolist())

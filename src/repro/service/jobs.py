"""Job specs, lifecycle states, and validation for the MCB job service.

A *job* is one sort/select workload — the paper's Θ(max{n/k, n_max})
sort or O(n/k + log n · log log n) selection (§6–8) — expressed as the
same ``(algorithm, p, k, n, seed, engine, backend)`` tuple the benchmark
harness uses, plus an optional ``batch`` width for the vector engine and
an optional list of per-job sink configs for lifecycle events.

Validation happens at admission (``POST /jobs``), with the same
:class:`~repro.mcb.errors.ConfigurationError` rules the engines enforce
at run time: a spec that would be rejected by ``mcb_sort`` /
``MCBNetwork`` is refused with HTTP 400 before it ever touches the
queue, so workers only see runnable jobs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Sequence

from ..bench.cache import CacheKey
from ..bench.runner import ALGORITHMS, BenchSpec
from ..columnsort.matrix import dims_valid
from ..mcb.errors import ConfigurationError

#: Engines a job may request.  For sorting, ``vector`` is restricted to
#: the fully oblivious even p=k columnsort, exactly as ``mcb_sort``
#: enforces; for selection it vectorizes the data plane of the §8
#: filtering loop and runs on any valid network.
ENGINES = ("generator", "vector")


class JobState(str, enum.Enum):
    """Lifecycle of an admitted job (rejected jobs are never stored)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    ABORTED = "aborted"

    def is_terminal(self) -> bool:
        """True once the job can no longer change state."""
        return self in (JobState.DONE, JobState.FAILED, JobState.ABORTED)


@dataclass(frozen=True)
class JobSpec:
    """One validated workload request (immutable once admitted).

    ``batch`` > 1 asks the vector engine to sort ``batch`` independent
    instances — seeds ``seed .. seed+batch-1`` — in a single columnar
    pass (:func:`repro.sort.vector.sort_even_pk_batch`); each lane is
    cached individually under its own seed.

    ``sinks`` is a tuple of sink configs (see
    :func:`repro.service.sinks.build_sink`) that receive this job's
    lifecycle events in addition to the service-wide sink.
    """

    algorithm: str
    p: int
    k: int
    n: int
    seed: int = 0
    engine: str = "generator"
    batch: int = 1
    sinks: tuple = ()
    backend: str = "columnsort"

    #: Fields accepted from a JSON payload (everything else is a 400).
    FIELDS = (
        "algorithm", "p", "k", "n", "seed", "engine", "batch", "sinks",
        "backend",
    )

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "JobSpec":
        """Build and validate a spec from a decoded JSON body."""
        if not isinstance(payload, Mapping):
            raise ConfigurationError(
                f"job spec must be a JSON object, got {type(payload).__name__}"
            )
        unknown = sorted(set(payload) - set(cls.FIELDS))
        if unknown:
            raise ConfigurationError(
                f"unknown job spec field(s) {unknown}; "
                f"accepted: {list(cls.FIELDS)}"
            )
        if "algorithm" not in payload:
            raise ConfigurationError("job spec needs an 'algorithm' field")
        kwargs: dict[str, Any] = {"algorithm": str(payload["algorithm"])}
        for name in ("p", "k", "n", "seed", "batch"):
            if name in payload:
                value = payload[name]
                if isinstance(value, bool) or not isinstance(value, int):
                    raise ConfigurationError(
                        f"job spec field {name!r} must be an integer, "
                        f"got {value!r}"
                    )
                kwargs[name] = value
        for name in ("p", "k", "n"):
            if name not in kwargs:
                raise ConfigurationError(f"job spec needs an {name!r} field")
        if "engine" in payload:
            kwargs["engine"] = str(payload["engine"])
        if "backend" in payload:
            backend = str(payload["backend"])
            if backend == "auto":
                # Resolve at admission so the cache key, the status
                # payload and the worker all see the tuner's choice.
                from ..sort.backends import choose_backend

                backend = choose_backend(
                    kwargs["p"], kwargs["k"], kwargs["n"]
                )
            kwargs["backend"] = backend
        if "sinks" in payload:
            sinks = payload["sinks"]
            if not isinstance(sinks, Sequence) or isinstance(sinks, (str, bytes)):
                raise ConfigurationError(
                    "job spec field 'sinks' must be a list of sink configs"
                )
            kwargs["sinks"] = tuple(sinks)
        spec = cls(**kwargs)
        spec.validate()
        return spec

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` unless the engines would run
        this spec — the admission-time mirror of the run-time rules."""
        if self.algorithm not in ALGORITHMS:
            raise ConfigurationError(
                f"unknown algorithm {self.algorithm!r}; "
                f"known: {sorted(ALGORITHMS)}"
            )
        if self.p < 1:
            raise ConfigurationError(
                f"need at least one processor, got p={self.p}"
            )
        if self.k < 1:
            raise ConfigurationError(
                f"need at least one channel, got k={self.k}"
            )
        if self.k > self.p:
            raise ConfigurationError(
                f"the model requires k <= p, got k={self.k} > p={self.p}"
            )
        if self.n < 1:
            raise ConfigurationError(f"need n >= 1 elements, got n={self.n}")
        if self.n % self.p != 0:
            raise ConfigurationError(
                f"the service runs even distributions: p | n required, "
                f"got n={self.n}, p={self.p}"
            )
        if self.engine not in ENGINES:
            raise ConfigurationError(
                f"unknown engine {self.engine!r}; expected one of {ENGINES}"
            )
        if self.batch < 1:
            raise ConfigurationError(f"batch must be >= 1, got {self.batch}")
        from ..sort.backends import BACKENDS, backend_unavailable_reason

        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; "
                f"known: {sorted(BACKENDS)} (or 'auto')"
            )
        if self.backend != "columnsort":
            if self.algorithm != "sort":
                raise ConfigurationError(
                    f"backend {self.backend!r} is a sorting schedule "
                    f"family; algorithm {self.algorithm!r} has no "
                    "backend axis"
                )
            reason = backend_unavailable_reason(
                self.backend, self.p, self.k, self.n // self.p
            )
            if reason is not None:
                raise ConfigurationError(reason)
        if self.engine == "vector" and self.algorithm == "sort":
            if self.p != self.k:
                raise ConfigurationError(
                    "engine='vector' executes only the oblivious even-pk "
                    f"schedules, which require p == k; got p={self.p}, "
                    f"k={self.k}"
                )
            m = self.n // self.p
            if self.backend == "columnsort" and not dims_valid(m, self.k):
                raise ConfigurationError(
                    "engine='vector' requires valid Columnsort dimensions "
                    f"(m >= k(k-1) and k | m); got m={m}, k={self.k}"
                )
        elif self.batch > 1:
            raise ConfigurationError(
                "batch > 1 is a vector-sort feature (one columnar pass "
                "over all lanes); other jobs run one instance per job"
            )

    def bench_spec(self, seed: Optional[int] = None) -> BenchSpec:
        """The benchmark configuration this job runs (at ``seed``, which
        defaults to the job's own)."""
        return BenchSpec(
            algorithm=self.algorithm, p=self.p, k=self.k, n=self.n,
            seed=self.seed if seed is None else seed,
            engine=self.engine, backend=self.backend,
        )

    def lane_keys(self) -> list[CacheKey]:
        """Result-cache identities, one per batch lane.

        Lane ``b`` of a batch job is exactly the solo job with seed
        ``seed + b``, so its cache entry is shared with solo runs — a
        warm cache serves any re-slicing of the same seeds.
        """
        return [
            self.bench_spec(self.seed + b).key for b in range(self.batch)
        ]

    def to_dict(self) -> dict[str, Any]:
        """The spec as it appears in job status payloads."""
        return {
            "algorithm": self.algorithm,
            "p": self.p,
            "k": self.k,
            "n": self.n,
            "seed": self.seed,
            "engine": self.engine,
            "batch": self.batch,
            "backend": self.backend,
        }


@dataclass
class Job:
    """One admitted job: spec + mutable lifecycle bookkeeping."""

    id: str
    spec: JobSpec
    state: JobState = JobState.QUEUED
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    worker: Optional[int] = None
    cache_hits: int = 0
    cache_misses: int = 0
    result: Optional[dict[str, Any]] = None
    error: Optional[str] = None
    abort_reason: Optional[str] = None
    #: Per-job sink (built from ``spec.sinks`` at admission), closed when
    #: the job reaches a terminal state.  Not part of the status payload.
    sink: Any = field(default=None, repr=False, compare=False)

    @property
    def wall_s(self) -> Optional[float]:
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def to_dict(self) -> dict[str, Any]:
        """The ``GET /jobs/{id}`` status payload."""
        out: dict[str, Any] = {
            "id": self.id,
            "state": self.state.value,
            "spec": self.spec.to_dict(),
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
        }
        if self.wall_s is not None:
            out["wall_s"] = round(self.wall_s, 6)
        if self.result is not None:
            out["result"] = self.result
        if self.error is not None:
            out["error"] = self.error
        if self.abort_reason is not None:
            out["abort_reason"] = self.abort_reason
        return out

    def summary(self) -> dict[str, Any]:
        """The one-line ``GET /jobs`` listing entry."""
        return {
            "id": self.id,
            "state": self.state.value,
            "algorithm": self.spec.algorithm,
            "engine": self.spec.engine,
            "batch": self.spec.batch,
        }

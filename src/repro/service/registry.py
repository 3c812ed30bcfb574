"""Named workloads and schedulers the scenario service will build.

Requests name workloads and schedulers by string; this module maps
those names to constructors with a typed parameter whitelist, so a
malformed request fails validation with a structured message instead
of an arbitrary ``TypeError`` deep inside a worker process.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.kernel.asym_scheduler import AsymmetryAwareScheduler
from repro.kernel.sync import LOCK_KINDS
from repro.runtime.jvm import VM_PRESETS, GCKind
from repro.workloads.base import SchedulerFactory, Workload
from repro.workloads.lockstress import LockStress
from repro.workloads.specjbb import SpecJBB
from repro.workloads.specomp import (
    BENCHMARK_NAMES,
    OMP_SCHEDULES,
    VARIANTS,
    SpecOmpBenchmark,
)
from repro.workloads.tpch.workload import TpchPowerRun


def _gc_kind(value: Any) -> GCKind:
    if isinstance(value, GCKind):
        return value
    for kind in GCKind:
        if value in (kind.name.lower(), kind.value):
            return kind
    names = sorted(kind.name.lower() for kind in GCKind)
    raise ValueError(f"unknown gc {value!r}; expected one of {names}")


def _int(value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def _float(value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _int_list(value: Any) -> List[int]:
    if not isinstance(value, list) or not value:
        raise ValueError(f"expected a non-empty list, got {value!r}")
    return [_int(item) for item in value]


def _bool(value: Any) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"expected a boolean, got {value!r}")
    return value


def _choice(options: Tuple[str, ...]) -> Callable[[Any], str]:
    """A string converter restricted to a fixed vocabulary.

    A name no model knows would otherwise fail inside a worker (an
    unknown VM preset or lock kind) or raise a
    :class:`repro.errors.WorkloadError` the protocol layer does not
    translate; validating here keeps malformed requests on the
    structured-rejection path.
    """
    def convert(value: Any) -> str:
        if not isinstance(value, str) or value not in options:
            raise ValueError(
                f"expected one of {sorted(options)}, got {value!r}")
        return value
    return convert


#: workload name -> (constructor, {param name -> converter}).  The
#: whitelist is the service's public parameter surface; anything not
#: listed is rejected at validation time.
WORKLOADS: Dict[str, Tuple[Callable[..., Workload],
                           Dict[str, Callable[[Any], Any]]]] = {
    "specjbb": (SpecJBB, {
        "warehouses": _int,
        "vm": _choice(tuple(VM_PRESETS)),
        "gc": _gc_kind,
        "measurement_seconds": _float,
        "warmup_seconds": _float,
        "lock_kind": _choice(LOCK_KINDS),
        "log_batch": _int,
    }),
    "tpch": (TpchPowerRun, {
        "parallel_degree": _int,
        "optimization_degree": _int,
        "queries": _int_list,
        "lock_kind": _choice(LOCK_KINDS),
        "latch_cycles": _float,
    }),
    "specomp": (SpecOmpBenchmark, {
        "benchmark": _choice(tuple(BENCHMARK_NAMES)),
        "variant": _choice(VARIANTS),
        "pin": _bool,
        "omp_schedule": _choice(OMP_SCHEDULES),
        "omp_chunk": _int,
    }),
    "lockstress": (LockStress, {
        "n_threads": _int,
        "lock_kind": _choice(LOCK_KINDS),
        "outside_cycles": _float,
        "critical_cycles": _float,
        "duration": _float,
        "jitter": _float,
    }),
}

#: scheduler name -> factory passed to RunTask (None = the kernel's
#: stock symmetric scheduler).
SCHEDULERS: Dict[str, Optional[SchedulerFactory]] = {
    "stock": None,
    "asym": AsymmetryAwareScheduler,
}


def build_workload(name: str, params: Dict[str, Any]) -> Workload:
    """Construct a named workload from request parameters.

    Raises :class:`ValueError` with a client-presentable message on an
    unknown name, an unknown parameter, or a parameter of the wrong
    shape; constructor range checks (``warehouses >= 1`` etc.) also
    surface as :class:`ValueError`.
    """
    try:
        constructor, converters = WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; expected one of "
            f"{sorted(WORKLOADS)}") from None
    kwargs = {}
    for param, value in params.items():
        converter = converters.get(param)
        if converter is None:
            raise ValueError(
                f"unknown parameter {param!r} for workload {name!r}; "
                f"allowed: {sorted(converters)}")
        try:
            kwargs[param] = converter(value)
        except ValueError as exc:
            raise ValueError(f"parameter {param!r}: {exc}") from None
    return constructor(**kwargs)


def scheduler_factory(name: str) -> Optional[SchedulerFactory]:
    """Resolve a scheduler name; raises ValueError when unknown."""
    try:
        return SCHEDULERS[name]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; expected one of "
            f"{sorted(SCHEDULERS)}") from None

"""Declarative scenario specs: what a workload *is*, as pure data.

SODA's evaluation (§5) drives siege-style open/closed loops and one
DDoS campaign; a hosting utility's actual tenants bring diurnal cycles,
flash crowds, heavy-tailed payloads, correlated bursts, and batch jobs
riding next to interactive traffic.  This module describes all of those
as **frozen dataclasses** — no RNG, no simulator, no side effects — so
a scenario is a value: hashable, comparable, serializable to and from
YAML-ish plain dicts, and compiled (see :mod:`repro.scenario.compile`)
to seeded arrival traces that are a pure function of ``(spec, seed)``.

The vocabulary
--------------
* :class:`SizeModel` — per-request dataset size: fixed, lognormal, or
  truncated Pareto.  Dataset MB drives both the CPU demand and the
  bytes moved (see :mod:`repro.workload.apps`), so heavy-tailed sizes
  *are* heavy-tailed service times.
* arrival models — :class:`ConstantArrivals` (homogeneous Poisson),
  :class:`DiurnalArrivals` (sinusoidal day cycle),
  :class:`FlashCrowdArrivals` (ramp / hold / decay spike), and
  :class:`ReplayArrivals` (a recorded :class:`ArrivalTrace`, offsets
  and sizes replayed verbatim).
* :class:`BurstEnvelope` — a scenario-wide calm/burst modulation that
  multiplies *every* load's rate inside the same seeded burst windows:
  correlated multi-tenant bursts, the case independent per-tenant
  randomness cannot produce.
* :class:`TenantLoad` — one tenant's traffic: an arrival model, a size
  model, an SLA class, and a kind (``interactive`` | ``batch``).
* :class:`ScenarioSpec` — the scenario: named, bounded in time, a
  tuple of loads, an optional burst envelope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from repro.workload.replay import ArrivalTrace

__all__ = [
    "SizeModel",
    "ConstantArrivals",
    "DiurnalArrivals",
    "FlashCrowdArrivals",
    "ReplayArrivals",
    "ArrivalModel",
    "BurstEnvelope",
    "TenantLoad",
    "ScenarioSpec",
]

SLA_CLASSES = ("gold", "silver", "bronze")
LOAD_KINDS = ("interactive", "batch")


def _require_finite(name: str, value: float, positive: bool = True) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if positive and value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")


@dataclass(frozen=True)
class SizeModel:
    """Per-request dataset size (MB) distribution.

    * ``fixed`` — every request moves ``mb``.
    * ``lognormal`` — median ``mb``, log-space spread ``sigma``.
    * ``pareto`` — scale ``mb`` (the minimum), tail index ``alpha``;
      smaller ``alpha`` means heavier tail.

    Random kinds are truncated at ``cap_mb`` so one pathological draw
    cannot occupy the simulated LAN for the rest of the run — the cap
    is part of the model, not a hidden safety valve.  A ``fixed`` size
    is never truncated, so ``cap_mb`` does not bound it.
    """

    kind: str = "fixed"
    mb: float = 0.1
    sigma: float = 0.5
    alpha: float = 1.5
    cap_mb: float = 8.0

    def __post_init__(self) -> None:
        if self.kind not in ("fixed", "lognormal", "pareto"):
            raise ValueError(f"unknown size model kind {self.kind!r}")
        _require_finite("mb", self.mb)
        _require_finite("sigma", self.sigma, positive=False)
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        _require_finite("alpha", self.alpha)
        _require_finite("cap_mb", self.cap_mb)
        if self.kind != "fixed" and self.cap_mb < self.mb:
            raise ValueError(
                f"cap_mb ({self.cap_mb}) must be >= mb ({self.mb})"
            )


class _RateShape:
    """An arrival model's rate curve.

    Each model writes its formula once, as the array method
    ``rates(t)`` the compiler evaluates over every candidate instant;
    :meth:`rate_at` is the one-point view of it.
    """

    def rates(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def rate_at(self, t: float) -> float:
        return float(self.rates(np.array([t], dtype=float))[0])


@dataclass(frozen=True)
class ConstantArrivals(_RateShape):
    """Homogeneous Poisson arrivals at ``rate_rps``."""

    rate_rps: float

    def __post_init__(self) -> None:
        _require_finite("rate_rps", self.rate_rps)

    def max_rate(self) -> float:
        return self.rate_rps

    def rates(self, t: np.ndarray) -> np.ndarray:
        return np.full(len(t), self.rate_rps, dtype=float)


@dataclass(frozen=True)
class DiurnalArrivals(_RateShape):
    """Sinusoidal day cycle between ``base_rps`` and ``base * peak``.

    ``phase_s`` shifts the cycle so multiple tenants can peak at
    different local times (follow-the-sun).
    """

    base_rps: float
    peak_factor: float = 2.0
    period_s: float = 86400.0
    phase_s: float = 0.0

    def __post_init__(self) -> None:
        _require_finite("base_rps", self.base_rps)
        _require_finite("peak_factor", self.peak_factor)
        if self.peak_factor < 1:
            raise ValueError(f"peak_factor must be >= 1, got {self.peak_factor}")
        _require_finite("period_s", self.period_s)
        _require_finite("phase_s", self.phase_s, positive=False)

    def max_rate(self) -> float:
        return self.base_rps * self.peak_factor

    def rates(self, t: np.ndarray) -> np.ndarray:
        swing = (self.peak_factor - 1.0) / 2.0
        phase = 2 * math.pi * (t + self.phase_s) / self.period_s
        # math.sin per element: np.sin's SIMD kernels vary by build and
        # CPU, and compiled digests must not.
        sin = np.array([math.sin(x) for x in phase.tolist()])
        return self.base_rps * (1.0 + swing * (1.0 + sin))


@dataclass(frozen=True)
class FlashCrowdArrivals(_RateShape):
    """A flash crowd: base load, then a ramp / hold / decay spike.

    Rate is ``base_rps`` until ``at_s``, climbs linearly to
    ``base * spike_factor`` over ``ramp_s``, holds for ``hold_s``, and
    decays linearly back to base over ``decay_s``.
    """

    base_rps: float
    spike_factor: float = 5.0
    at_s: float = 0.0
    ramp_s: float = 5.0
    hold_s: float = 10.0
    decay_s: float = 10.0

    def __post_init__(self) -> None:
        _require_finite("base_rps", self.base_rps)
        _require_finite("spike_factor", self.spike_factor)
        if self.spike_factor < 1:
            raise ValueError(
                f"spike_factor must be >= 1, got {self.spike_factor}"
            )
        _require_finite("at_s", self.at_s, positive=False)
        if self.at_s < 0:
            raise ValueError(f"at_s must be >= 0, got {self.at_s}")
        _require_finite("ramp_s", self.ramp_s)
        _require_finite("hold_s", self.hold_s, positive=False)
        if self.hold_s < 0:
            raise ValueError(f"hold_s must be >= 0, got {self.hold_s}")
        _require_finite("decay_s", self.decay_s)

    def max_rate(self) -> float:
        return self.base_rps * self.spike_factor

    def rates(self, t: np.ndarray) -> np.ndarray:
        peak = self.base_rps * self.spike_factor
        ramp_end = self.at_s + self.ramp_s
        hold_end = ramp_end + self.hold_s
        decay_end = hold_end + self.decay_s
        ramp = self.base_rps + (peak - self.base_rps) * ((t - self.at_s) / self.ramp_s)
        decay = peak - (peak - self.base_rps) * ((t - hold_end) / self.decay_s)
        return np.select(
            [(t < self.at_s) | (t >= decay_end), t < ramp_end, t < hold_end],
            [self.base_rps, ramp, peak],
            decay,
        )


@dataclass(frozen=True)
class ReplayArrivals(_RateShape):
    """Replay a recorded :class:`ArrivalTrace` verbatim.

    Offsets *and* dataset sizes come from the recording; the load's
    :class:`SizeModel` is ignored (recorded truth wins).  The trace
    must fit inside the scenario horizon — validated at compile time,
    when the horizon is known.
    """

    trace: ArrivalTrace

    def __post_init__(self) -> None:
        if not isinstance(self.trace, ArrivalTrace):
            raise ValueError(
                f"trace must be an ArrivalTrace, got {type(self.trace).__name__}"
            )

    def max_rate(self) -> float:
        if not len(self.trace):
            return 0.0
        span = self.trace.duration or 1.0
        return len(self.trace) / span

    def rates(self, t: np.ndarray) -> np.ndarray:  # pragma: no cover - unused shape
        return np.full(len(t), self.max_rate())


ArrivalModel = Union[
    ConstantArrivals, DiurnalArrivals, FlashCrowdArrivals, ReplayArrivals
]

_ARRIVAL_KINDS: Dict[str, type] = {
    "constant": ConstantArrivals,
    "diurnal": DiurnalArrivals,
    "flash-crowd": FlashCrowdArrivals,
    "replay": ReplayArrivals,
}


@dataclass(frozen=True)
class BurstEnvelope:
    """Correlated calm/burst modulation shared by every load.

    The envelope alternates exponential calm and burst episodes drawn
    from one scenario-level stream; inside a burst window *every*
    tenant's instantaneous rate is multiplied by ``factor`` — bursts
    arrive together, which is what makes them dangerous.
    """

    factor: float = 3.0
    mean_calm_s: float = 60.0
    mean_burst_s: float = 15.0

    def __post_init__(self) -> None:
        _require_finite("factor", self.factor)
        if self.factor < 1:
            raise ValueError(f"factor must be >= 1, got {self.factor}")
        _require_finite("mean_calm_s", self.mean_calm_s)
        _require_finite("mean_burst_s", self.mean_burst_s)


@dataclass(frozen=True)
class TenantLoad:
    """One tenant's traffic shape."""

    tenant: str
    arrivals: ArrivalModel
    sizes: SizeModel = SizeModel()
    sla_class: str = "bronze"
    kind: str = "interactive"

    def __post_init__(self) -> None:
        if not self.tenant or not self.tenant.replace("-", "").isalnum():
            raise ValueError(f"bad tenant name {self.tenant!r}")
        if not isinstance(
            self.arrivals,
            (ConstantArrivals, DiurnalArrivals, FlashCrowdArrivals, ReplayArrivals),
        ):
            raise ValueError(
                f"arrivals must be an arrival model, got {self.arrivals!r}"
            )
        if self.sla_class not in SLA_CLASSES:
            raise ValueError(f"unknown SLA class {self.sla_class!r}")
        if self.kind not in LOAD_KINDS:
            raise ValueError(f"unknown load kind {self.kind!r}")


@dataclass(frozen=True)
class ScenarioSpec:
    """A named, bounded, multi-tenant workload scenario."""

    name: str
    duration_s: float
    loads: Tuple[TenantLoad, ...]
    bursts: Optional[BurstEnvelope] = None
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name or any(c.isspace() for c in self.name):
            raise ValueError(f"bad scenario name {self.name!r}")
        _require_finite("duration_s", self.duration_s)
        if not isinstance(self.loads, tuple):
            object.__setattr__(self, "loads", tuple(self.loads))
        if not self.loads:
            raise ValueError("a scenario needs at least one load")
        names = [load.tenant for load in self.loads]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names: {names}")
        for load in self.loads:
            if isinstance(load.arrivals, ReplayArrivals):
                trace = load.arrivals.trace
                if len(trace) and trace.duration > self.duration_s:
                    raise ValueError(
                        f"load {load.tenant!r}: recorded trace runs to "
                        f"{trace.duration}s, past the {self.duration_s}s horizon"
                    )

    # -- YAML-ish (de)serialization --------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A plain-dict form (inverse of :meth:`from_dict`)."""

        def model_dict(model: ArrivalModel) -> Dict[str, Any]:
            for kind, cls in _ARRIVAL_KINDS.items():
                if type(model) is cls:
                    break
            if kind == "replay":
                return {"kind": "replay", "arrivals": [list(a) for a in model.trace.arrivals]}
            d = {"kind": kind}
            d.update({f.name: getattr(model, f.name) for f in fields(model)})
            return d

        doc: Dict[str, Any] = {
            "name": self.name,
            "duration_s": self.duration_s,
            "loads": [
                {
                    "tenant": load.tenant,
                    "sla_class": load.sla_class,
                    "kind": load.kind,
                    "arrivals": model_dict(load.arrivals),
                    "sizes": {f.name: getattr(load.sizes, f.name) for f in fields(SizeModel)},
                }
                for load in self.loads
            ],
        }
        if self.bursts is not None:
            doc["bursts"] = {
                f.name: getattr(self.bursts, f.name) for f in fields(BurstEnvelope)
            }
        if self.description:
            doc["description"] = self.description
        return doc

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "ScenarioSpec":
        """Build a spec from a YAML-ish plain dict.

        The inverse of :meth:`to_dict`; validation is exactly the
        dataclass validation, so a loaded spec is as trustworthy as a
        constructed one.
        """
        if not isinstance(doc, dict):
            raise ValueError(f"scenario document must be a dict, got {type(doc).__name__}")
        unknown = set(doc) - {"name", "duration_s", "loads", "bursts", "description"}
        if unknown:
            raise ValueError(f"unknown scenario keys: {sorted(unknown)}")

        def parse_model(d: Dict[str, Any]) -> ArrivalModel:
            d = dict(d)
            kind = d.pop("kind", None)
            if kind not in _ARRIVAL_KINDS:
                raise ValueError(f"unknown arrival kind {kind!r}")
            if kind == "replay":
                entries = d.pop("arrivals", [])
                if d:
                    raise ValueError(f"unknown replay keys: {sorted(d)}")
                return ReplayArrivals(
                    ArrivalTrace(tuple((float(t), float(mb)) for t, mb in entries))
                )
            return _ARRIVAL_KINDS[kind](**d)

        loads = []
        for entry in doc.get("loads", []):
            entry = dict(entry)
            arrivals = parse_model(entry.pop("arrivals"))
            sizes = SizeModel(**entry.pop("sizes", {}))
            loads.append(TenantLoad(arrivals=arrivals, sizes=sizes, **entry))
        bursts = doc.get("bursts")
        return cls(
            name=doc.get("name", ""),
            duration_s=float(doc.get("duration_s", 0.0)),
            loads=tuple(loads),
            bursts=BurstEnvelope(**bursts) if bursts is not None else None,
            description=doc.get("description", ""),
        )

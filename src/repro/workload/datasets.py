"""The paper's datasets DS1, DS2 and DS3 (Section IV-2), with scaling.

Full-scale parameters:

=====  =====  ====  =====  ======  =========  ========  =========
name   nS     nC    nTr    nEv     dEv        t_max     ingestion
=====  =====  ====  =====  ======  =========  ========  =========
DS1    400    100   20     2000    uniform    150K      ME
DS2    400    100   20     2000    zipf       150K      ME
DS3    15     5     2      2000    uniform    150K      SE
=====  =====  ====  =====  ======  =========  ========  =========

Two scales, each in ``(0, 1]``, keep laptop benchmarks tractable while
preserving the paper's geometry:

* ``scale`` multiplies ``nEv`` and ``t_max`` together (interval lengths
  ``u`` and query windows must be scaled identically by the caller --
  the bench harness does);
* ``entity_scale`` multiplies the entity counts (the paper's GHFK call
  counts are proportional to the key count, so scaled counts follow).

Both default to :data:`DEFAULT_SCALE` (DS3's ``entity_scale`` to 1).  They
are set by argument only -- ``repro``'s ``--scale`` / ``--entity-scale``
pass them through -- and ``--scale 1 --entity-scale 1`` gives the paper's
full-size datasets.
"""

from __future__ import annotations

from typing import Optional

from repro.common.errors import ConfigError
from repro.workload.generator import WorkloadConfig

#: Full-scale timeline length shared by all three datasets.
FULL_T_MAX = 150_000
#: Full-scale events per key.
FULL_EVENTS_PER_KEY = 2_000
#: ``scale`` and ``entity_scale`` when the caller gives none.
DEFAULT_SCALE = 0.1


def _scaled(value: int, scale: float, minimum: int = 1) -> int:
    return max(minimum, round(value * scale))


def _scaled_t_max(scale: float, minimum: int) -> int:
    """Timeline length rounded to a multiple of 150.

    The paper's interval lengths are 150K/75 (u=2K), 150K/15 (10K),
    150K/6 (25K), 150K/3 (50K) and 150K/2 (75K); keeping ``t_max``
    divisible by 150 keeps every scaled ``u`` integral and every indexing
    range u-aligned.
    """
    t_max = max(minimum, round(FULL_T_MAX * scale))
    return max(150, round(t_max / 150) * 150)


def _build(
    name: str,
    n_shipments: int,
    n_containers: int,
    n_trucks: int,
    distribution: str,
    ingestion: str,
    scale: Optional[float],
    entity_scale: Optional[float],
    seed: int,
) -> WorkloadConfig:
    scale = DEFAULT_SCALE if scale is None else scale
    entity_scale = DEFAULT_SCALE if entity_scale is None else entity_scale
    for what, value in (("scale", scale), ("entity_scale", entity_scale)):
        if not 0 < value <= 1:
            raise ConfigError(f"{what} must be in (0, 1], got {value}")
    events_per_key = _scaled(FULL_EVENTS_PER_KEY, scale, minimum=2)
    if events_per_key % 2:
        events_per_key += 1
    return WorkloadConfig(
        name=name,
        n_shipments=_scaled(n_shipments, entity_scale),
        n_containers=_scaled(n_containers, entity_scale),
        n_trucks=_scaled(n_trucks, entity_scale),
        events_per_key=events_per_key,
        t_max=_scaled_t_max(scale, minimum=events_per_key * 2),
        distribution=distribution,
        ingestion=ingestion,
        seed=seed,
    )


def ds1(
    scale: Optional[float] = None,
    entity_scale: Optional[float] = None,
    seed: int = 11,
) -> WorkloadConfig:
    """DS1: 400/100/20 entities, uniform events, ME ingestion."""
    return _build("DS1", 400, 100, 20, "uniform", "me", scale, entity_scale, seed)


def ds2(
    scale: Optional[float] = None,
    entity_scale: Optional[float] = None,
    seed: int = 23,
) -> WorkloadConfig:
    """DS2: like DS1 but zipf-distributed load times."""
    return _build("DS2", 400, 100, 20, "zipf", "me", scale, entity_scale, seed)


def ds3(
    scale: Optional[float] = None,
    entity_scale: Optional[float] = None,
    seed: int = 37,
) -> WorkloadConfig:
    """DS3: 15/5/2 entities, uniform events, SE ingestion.

    Entity counts are already small; ``entity_scale`` defaults to 1 here
    (the paper's DS3 is itself the small dataset).
    """
    if entity_scale is None:
        entity_scale = 1.0
    return _build("DS3", 15, 5, 2, "uniform", "se", scale, entity_scale, seed)

"""Per-qtype amplification factors: the DNS threat of section II-C.

The paper argues that the mere existence of open resolvers enables
bandwidth-amplification DDoS: 'ANY' queries with a spoofed source
concentrate large responses on the victim. This subpackage measures
how much larger each query type's response is than its query, against
a record-rich zone (:mod:`repro.amplification.factor`). The spoofed
attack itself lives in :mod:`repro.attacks.reflection`.
"""

from repro.amplification.factor import (
    AmplificationMeasurement,
    build_rich_zone,
    measure_amplification,
    sweep_qtypes,
)

__all__ = [
    "AmplificationMeasurement",
    "build_rich_zone",
    "measure_amplification",
    "sweep_qtypes",
]

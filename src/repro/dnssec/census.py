"""The DO-probe validator census."""

from __future__ import annotations

import dataclasses
import random

from repro.dnslib.edns import add_edns
from repro.dnslib.message import make_query
from repro.dnslib.zone import Zone
from repro.dnssrv.auth import AuthoritativeServer
from repro.netsim.network import Network
from repro.prober.targets import TargetScan
from repro.resolvers.population import SampledPopulation
from repro.resolvers.profiles import PROFILE_2013, PROFILE_2018

#: Published-estimate validating shares by measurement year, calibrated
#: alongside the transparent-forwarder shares in
#: :mod:`repro.resolvers.profiles` (same values: changing a profile's
#: ``validator_share`` moves this census too).
_VALIDATOR_SHARES = {
    2013: PROFILE_2013.validator_share,
    2018: PROFILE_2018.validator_share,
}


def validator_share_for_year(year: int) -> float:
    """The calibrated share of validating resolvers for ``year``."""
    return _VALIDATOR_SHARES.get(year, 0.10)


def assign_validators(
    population: SampledPopulation, year: int, seed: int = 0
) -> set[str]:
    """Deterministically pick which hosts validate DNSSEC."""
    rng = random.Random((seed, "dnssec", year).__str__())
    share = validator_share_for_year(year)
    return {
        assignment.ip
        for assignment in population.assignments
        if rng.random() < share
    }


@dataclasses.dataclass
class ValidatorCensus:
    """Outcome of a DO-probe scan."""

    targets: int
    answered: int
    validating: set[str]
    non_validating: set[str]

    @property
    def validating_count(self) -> int:
        return len(self.validating)

    @property
    def validating_share(self) -> float:
        """Share among resolvers that answered the signed query."""
        return self.validating_count / self.answered if self.answered else 0.0


class ValidatorScanner(TargetScan):
    """Probes a target list with DO-flagged queries for a signed name.

    The scanner installs its own tiny signed-probe zone beneath the
    measurement SLD at the authoritative server, so resolving targets
    can genuinely fetch the record.
    """

    PROBE_LABEL = "dnssec-probe"

    def __init__(
        self,
        network: Network,
        auth: AuthoritativeServer,
        sld: str,
        scanner_ip: str = "132.170.3.18",
        source_port: int = 31339,
    ) -> None:
        super().__init__(network, scanner_ip, source_port)
        self.auth = auth
        self.sld = sld
        self.probe_qname = f"{self.PROBE_LABEL}.{sld}"

    def scan(self, targets: list[str]) -> ValidatorCensus:
        self._answers: dict[str, bool] = {}  # target -> AD bit
        zone = Zone(self.probe_qname)
        zone.add_a(self.probe_qname, self.auth.ip, ttl=0)  # uncacheable
        self.probe(targets, self.auth, zone)
        validating = {ip for ip, ad in self._answers.items() if ad}
        return ValidatorCensus(
            targets=len(targets),
            answered=len(self._answers),
            validating=validating,
            non_validating=self._answers.keys() - validating,
        )

    def queries(self, index: int, target: str):
        query = make_query(self.probe_qname, msg_id=index & 0xFFFF)
        add_edns(query, dnssec_ok=True)
        return [query]

    def on_answer(self, target, source, response, now) -> None:
        if response.first_a_record() is None:
            return  # refusals and empty answers don't count as resolution
        self._answers[target] = response.header.flags.ad


def render_validator_census(census: ValidatorCensus, year: int) -> str:
    """Text summary comparable to the published estimates."""
    expected = validator_share_for_year(year)
    return "\n".join(
        [
            f"DNSSEC validator census ({year})",
            f"  targets probed (DO):     {census.targets:,}",
            f"  resolved the probe:      {census.answered:,}",
            f"  validating (AD=1):       {census.validating_count:,} "
            f"({census.validating_share:.1%} of resolvers)",
            f"  calibrated share:        {expected:.0%}",
        ]
    )

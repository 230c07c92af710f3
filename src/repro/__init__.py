"""repro — reproduction of "Where Are You Taking Me? Behavioral Analysis
of Open DNS Resolvers" (Park et al., DSN 2019).

The package provides, from scratch:

- ``repro.dnslib``     — a DNS protocol implementation (wire format,
  messages, records, EDNS(0), zones).
- ``repro.netsim``     — a discrete-event simulated IPv4 internet.
- ``repro.dnssrv``     — authoritative / root / TLD / recursive servers.
- ``repro.resolvers``  — calibrated open-resolver behavior populations.
- ``repro.prober``     — a ZMap-style scanner plus the paper's subdomain
  generation and flow-join methodology.
- ``repro.threatintel``— Cymon-like threat intel, geolocation and whois
  substrates.
- ``repro.analysis``   — the analyzers that regenerate Tables II-X.
- ``repro.amplification`` — per-qtype DNS amplification factors.
- ``repro.attacks``    — the attack × defense matrix and the one
  spoofed-source reflection attack.
- ``repro.core``       — the end-to-end ``Campaign`` API.

Quickstart::

    from repro.core import Campaign, CampaignConfig

    campaign = Campaign(CampaignConfig(year=2018, scale=4096, seed=7))
    result = campaign.run()
    print(result.summary())
"""

__version__ = "1.0.0"

__all__ = ["Campaign", "CampaignConfig", "CampaignResult", "__version__"]


def __getattr__(name: str):
    # Lazy re-export so that `import repro.dnslib` does not pull in the
    # whole campaign stack.
    if name in ("Campaign", "CampaignConfig", "CampaignResult"):
        from repro.core import campaign

        return getattr(campaign, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")

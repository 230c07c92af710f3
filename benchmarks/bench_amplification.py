"""Section II-C: DNS amplification through open resolvers.

Regenerates the threat quantification the paper motivates: per-qtype
bandwidth amplification factors (ANY dominating, EDNS lifting the
512-byte cap) and an end-to-end spoofed-source attack through a fleet
of simulated open resolvers.
"""

from repro.amplification import (
    build_rich_zone,
    measure_amplification,
    sweep_qtypes,
)
from repro.attacks import AmplificationAttack
from repro.dnslib.constants import QueryType
from repro.dnssrv.auth import AuthoritativeServer
from repro.dnssrv.hierarchy import build_hierarchy
from repro.dnssrv.recursive import RecursiveResolver
from repro.netsim.network import Network
from benchmarks.conftest import write_result

ORIGIN = "amp.example"


def run_attack(resolver_count: int = 25, rounds: int = 4):
    network = Network(seed=3)
    hierarchy = build_hierarchy(network, sld=ORIGIN, auth_ip="198.51.100.53")
    hierarchy.auth.load_zone(build_rich_zone(ORIGIN))
    ips = []
    for index in range(resolver_count):
        ip = f"93.184.{index // 250}.{index % 250 + 1}"
        RecursiveResolver(ip, hierarchy.root_servers).attach(network)
        ips.append(ip)
    attack = AmplificationAttack(
        network, "6.6.6.6", "203.0.113.9", ips, ORIGIN
    )
    return attack.launch(rounds=rounds)


def test_amplification_factors_and_attack(benchmark, results_dir):
    server = AuthoritativeServer("198.51.100.53")
    server.load_zone(build_rich_zone(ORIGIN))
    sweep = sweep_qtypes(server, ORIGIN)
    no_edns = measure_amplification(server, ORIGIN, QueryType.ANY, use_edns=False)

    report = benchmark(run_attack)

    by_type = {m.qtype: m for m in sweep}
    assert by_type[QueryType.ANY].factor == max(m.factor for m in sweep)
    assert by_type[QueryType.ANY].factor > 10.0
    assert no_edns.response_bytes <= 512
    assert report.amplification_factor > 3.0
    assert report.victim_packets == report.queries_sent

    lines = ["Section II-C: amplification quantification", ""]
    for measurement in sweep:
        name = QueryType(measurement.qtype).name
        lines.append(
            f"  {name:>5} (EDNS): {measurement.query_bytes:>3} B -> "
            f"{measurement.response_bytes:>5} B  ({measurement.factor:5.1f}x)"
        )
    lines.append(
        f"    ANY (no EDNS): capped at {no_edns.response_bytes} B "
        f"({no_edns.factor:.1f}x, truncated={no_edns.truncated})"
    )
    lines += [
        "",
        f"  spoofed attack: {report.queries_sent} queries, "
        f"{report.attacker_bytes:,} B spent -> victim absorbed "
        f"{report.victim_bytes:,} B ({report.amplification_factor:.1f}x)",
    ]
    write_result(results_dir, "amplification.txt", "\n".join(lines))

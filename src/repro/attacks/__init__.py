"""Adversarial workloads against the resolver fabric (ROADMAP item 3).

Three seeded, deterministic attack families — NXNSAttack delegation
amplification, random-subdomain water torture, and population-scale
spoofed-source reflection — each run against a ladder of defense
postures (RRL, per-client quotas, negative caching, glueless fan-out
caps, bounded pending queues), producing the attack × defense matrix
reported alongside Tables II–X. The reflection family's attack,
:class:`AmplificationAttack`, is also what ``repro amplify`` runs.
"""

from repro.attacks.defense import (
    DEFENSE_POSTURES,
    POLICY_POSTURE,
    DefensePosture,
    posture_by_name,
    postures_with_policy,
)
from repro.attacks.matrix import (
    ATTACK_FAMILIES,
    ATTACK_LANE,
    AttackCell,
    AttackMatrix,
    AttackSuiteConfig,
    run_attack_matrix,
)
from repro.attacks.reflection import AmplificationAttack, AttackReport
from repro.attacks.report import (
    MATRIX_HEADER,
    POLICY_HEADER,
    attack_markdown,
    render_attack_matrix,
)
from repro.attacks.zones import (
    NXNS_ZONE,
    VICTIM_SLD,
    NxnsAuthServer,
    build_attack_world,
)

__all__ = [
    "ATTACK_FAMILIES",
    "ATTACK_LANE",
    "AmplificationAttack",
    "AttackCell",
    "AttackMatrix",
    "AttackReport",
    "AttackSuiteConfig",
    "DEFENSE_POSTURES",
    "DefensePosture",
    "MATRIX_HEADER",
    "NXNS_ZONE",
    "NxnsAuthServer",
    "POLICY_HEADER",
    "POLICY_POSTURE",
    "VICTIM_SLD",
    "attack_markdown",
    "build_attack_world",
    "posture_by_name",
    "postures_with_policy",
    "render_attack_matrix",
    "run_attack_matrix",
]

"""Rule modules; importing this package registers every shipped rule."""

from repro.analysis.rules.contracts import RegistrySignatureRule, ScenarioAxesRule
from repro.analysis.rules.determinism import (
    GlobalRngRule,
    UnorderedIterationRule,
    WallClockRule,
)
from repro.analysis.rules.seeds import RngEscapeRule, SeedProvenanceRule
from repro.analysis.rules.structure import (
    ParseFailureRule,
    SuppressionHygieneRule,
    UnguardedEmitterRule,
    UnusedSuppressionRule,
)
from repro.analysis.rules.threads import EmitterCaptureRule, UnlockedSharedStateRule

__all__ = [
    "GlobalRngRule",
    "UnorderedIterationRule",
    "WallClockRule",
    "UnguardedEmitterRule",
    "SuppressionHygieneRule",
    "UnusedSuppressionRule",
    "ParseFailureRule",
    "SeedProvenanceRule",
    "RngEscapeRule",
    "UnlockedSharedStateRule",
    "EmitterCaptureRule",
    "RegistrySignatureRule",
    "ScenarioAxesRule",
]

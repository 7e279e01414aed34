"""Rule modules; importing this package registers every shipped rule."""

from repro.analysis.rules.determinism import (
    GlobalRngRule,
    UnorderedIterationRule,
    WallClockRule,
)
from repro.analysis.rules.seeds import RngEscapeRule, SeedProvenanceRule
from repro.analysis.rules.structure import ParseFailureRule, UnguardedEmitterRule
from repro.analysis.rules.threads import EmitterCaptureRule, UnlockedSharedStateRule

__all__ = [
    "GlobalRngRule",
    "UnorderedIterationRule",
    "WallClockRule",
    "UnguardedEmitterRule",
    "ParseFailureRule",
    "SeedProvenanceRule",
    "RngEscapeRule",
    "UnlockedSharedStateRule",
    "EmitterCaptureRule",
]

"""The project rule catalogue (stable IDs; see ``docs/analysis.md``).

==========  ===========================================================
ID          Invariant
==========  ===========================================================
SBL-DET     No ambient nondeterminism (clocks, global RNGs, fs order,
            ``id()`` ordering, set iteration) inside the bit-identity
            core (``repro.sim``/``rl``/``hss``/``store``).
SBL-HOOK    ``place_begin``/``place_commit`` and ``train_begin``/
            ``train_commit`` balance on every non-raising path.
SBL-FPR     Sweep-cell functions stay addressable and canonicalisable
            so the durable store can fingerprint them.
SBL-ENV     ``SIBYL_*`` knobs route through the shared parsing
            contract and have a ``docs/configuration.md`` row.
SBL-FORK    Pool worker functions touch no mutable module-level state.
SBL-PARSE   (framework) the file must parse at all.
==========  ===========================================================

Rule IDs are append-only: never renumber or reuse one, because
``# sibyl: ignore[...]`` suppressions in the tree reference them.
Retired IDs are never reused either: SBL-ABI, SBL-DTYPE, SBL-CONST.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..core import Rule
from .determinism import DeterminismRule
from .envknobs import EnvKnobRule
from .fingerprint import FingerprintRule
from .forksafety import ForkSafetyRule
from .hookpairs import HookPairRule

__all__ = [
    "DeterminismRule",
    "EnvKnobRule",
    "FingerprintRule",
    "ForkSafetyRule",
    "HookPairRule",
    "default_rules",
]


def default_rules(only: Optional[Sequence[str]] = None) -> List[Rule]:
    """Instantiate the full rule set, optionally filtered by rule ID.

    ``only`` is a sequence of rule IDs (case-insensitive); unknown IDs
    raise ``ValueError`` so a typo'd ``--rules SBL-DTE`` cannot
    silently lint nothing.
    """
    rules: List[Rule] = [
        DeterminismRule(),
        HookPairRule(),
        FingerprintRule(),
        EnvKnobRule(),
        ForkSafetyRule(),
    ]
    if only is None:
        return rules
    wanted = {token.strip().upper() for token in only if token.strip()}
    known = {rule.id for rule in rules}
    unknown = wanted - known
    if unknown:
        raise ValueError(
            f"unknown rule ID(s): {', '.join(sorted(unknown))} "
            f"(known: {', '.join(sorted(known))})"
        )
    return [rule for rule in rules if rule.id in wanted]

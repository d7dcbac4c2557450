"""Check reports shared by the verification entry points.

A report records one executed check: which statement was tested, on
which instance (``serialize.json_digest`` of the check's inputs), the
outcome, and an optional witness.  ``fail`` is reserved for genuine
falsifications and must carry an exact certificate; preconditions
that do not hold produce ``hypotheses-not-met`` instead, and
degenerate instances where the statement holds vacuously produce
``trivial-pass``.

Wall-clock duration is carried for profiling but is deliberately not
part of the serialized payload, which must be reproducible byte for
byte across runs.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Mapping


class CheckStatus(str, Enum):
    PASS = "pass"
    FAIL = "fail"
    HYPOTHESES_NOT_MET = "hypotheses-not-met"
    TRIVIAL_PASS = "trivial-pass"


@dataclass(frozen=True)
class CheckReport:
    identity: str
    instance_digest: str
    status: CheckStatus
    witness: Any = None
    details: Mapping[str, Any] | None = None
    elapsed: float = 0.0

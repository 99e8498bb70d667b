"""Diagnostic records emitted by reprolint rules."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Diagnostic:
    """One finding: a rule violated at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        """The canonical ``file:line:col RULE message`` form."""
        return f"{self.path}:{self.line}:{self.col} {self.rule} {self.message}"

    def fingerprint(self) -> str:
        """Stable identity for SARIF's ``partialFingerprints``.

        Deliberately excludes line/col so code scanning tracks a finding
        across unrelated edits that shift it around; moving it to a
        different file or changing its message makes it a new alert.
        """
        digest = hashlib.sha256(
            f"{self.path}::{self.rule}::{self.message}".encode())
        return digest.hexdigest()[:16]

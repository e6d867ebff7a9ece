"""Tuning ledger: a JSONL journal of completed trials.

Same discipline as the run ledger (:mod:`repro.dist.ledger`): one
header line pinning the search space (content digest), the runner
parameters that shape objectives, and the code-version salt; then one
line per completed trial evaluation, appended and flushed as each one
finishes. ``repro tune --resume`` replays the file and schedules only
trials with no journaled result at their trace length — a SIGKILL
mid-search costs at most the one in-flight trial, and re-running a
finished search schedules nothing.

The file is a :class:`~repro.exec.journal.Journal` of kind ``tune``
(format, torn-line handling and durability are described there).
Duplicate records are idempotent (last wins), and a header whose space
digest or salt disagrees with the current invocation is refused —
results computed by different code or for a different space must never
silently leak into a frontier.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Any, Dict, Tuple

from repro.exec.journal import Journal, JournalError, replay

from .evaluate import TrialEval

TUNE_LEDGER_VERSION = 1

#: Unusable tuning ledger: bad header, version skew, or a space/salt
#: mismatch against the resuming invocation.
TuneLedgerError = JournalError


class TuneLedger(Journal):
    """Append-only journal of trial evaluations for one search."""

    @staticmethod
    def _header(space_digest: str, salt: str,
                runner: Dict[str, Any]) -> Dict[str, Any]:
        return {"type": "tune", "version": TUNE_LEDGER_VERSION,
                "created": time.time(), "space": space_digest,
                "salt": salt, "runner": dict(runner)}

    @classmethod
    def create(cls, path: os.PathLike, space_digest: str, salt: str,
               runner: Dict[str, Any]) -> "TuneLedger":
        """Start a fresh ledger (truncating any previous file)."""
        return cls.start(path, cls._header(space_digest, salt, runner))

    @classmethod
    def resume(cls, path: os.PathLike, space_digest: str, salt: str,
               runner: Dict[str, Any]
               ) -> Tuple["TuneLedger", Dict[Tuple[str, int], TrialEval]]:
        """Reopen ``path`` and replay completed trials.

        Returns ``(ledger, completed)`` where ``completed`` maps
        ``(trial_id, rung)`` to its journaled evaluation. Raises
        :class:`TuneLedgerError` when the file's header pins a
        different space, salt, or runner parameter set — those results
        are not comparable and must not be reused.
        """
        header, records = replay(path, "tune", TUNE_LEDGER_VERSION)
        for field, ours in (("space", space_digest), ("salt", salt),
                            ("runner", dict(runner))):
            if header.get(field) != ours:
                raise TuneLedgerError(
                    f"tuning ledger {path} was written for a different "
                    f"{field} ({header.get(field)!r} != {ours!r}); "
                    "start a fresh ledger")
        completed: Dict[Tuple[str, int], TrialEval] = {}
        for record in records:
            if record.get("type") != "trial":
                continue
            try:
                entry = TrialEval.from_doc(record)
            except (KeyError, TypeError, ValueError):
                continue        # foreign record
            completed[(entry.trial_id, entry.rung)] = entry
        return cls.append_to(path, header), completed

    @classmethod
    def open(cls, path: os.PathLike, space_digest: str, salt: str,
             runner: Dict[str, Any], resume: bool
             ) -> Tuple["TuneLedger", Dict[Tuple[str, int], TrialEval]]:
        """``resume`` semantics of ``repro tune``: reuse when asked and
        the file exists, otherwise start fresh."""
        if resume and Path(path).exists():
            return cls.resume(path, space_digest, salt, runner)
        return cls.create(path, space_digest, salt, runner), {}

    # -- journaling -----------------------------------------------------------

    def record(self, entry: TrialEval) -> None:
        """Journal one completed trial evaluation."""
        self.append({"type": "trial", "t": time.time(), **entry.to_doc()})

"""Append-only JSONL journals: the one file format of the run ledger,
the tuning ledger and the serve job queue.

The first line is a header, ``{"type": <kind>, "version": N, ...}``;
every later line is one JSON object record. A writer killed mid-line
leaves a torn last line: :func:`replay` skips it (and any other blank,
unparseable or non-object line), and :meth:`Journal.append_to` truncates
it away before appending, so the next record is never glued onto it.

Durability: records are flushed, not fsynced. A journal survives the
death of its writer (SIGKILL, an OOM kill), losing at most the line
being written. It does not survive power loss or a kernel crash.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, IO, Iterable, List, Tuple

from .store import _atomic_write


class JournalError(RuntimeError):
    """Unusable journal, or a ledger's refusal to use one."""


def _line(record: Dict[str, Any]) -> str:
    return json.dumps(record, sort_keys=True) + "\n"


class Journal:
    """An append handle on a journal file and its ``header``.

    The run and tuning ledgers subclass it to add their record types.
    """

    def __init__(self, path: os.PathLike, header: Dict[str, Any],
                 handle: IO[str]):
        self.path = Path(path)
        self.header = header
        self._handle = handle

    @classmethod
    def start(cls, path: os.PathLike, header: Dict[str, Any]):
        """Start a fresh journal at ``path`` (truncating any old file)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        journal = cls(path, header, open(path, "w", encoding="utf-8"))
        journal.append(header)
        return journal

    @classmethod
    def append_to(cls, path: os.PathLike, header: Dict[str, Any]):
        """Open ``path`` for append, dropping a torn last line first.

        A missing or empty file (nothing complete survived) is started
        afresh with ``header``.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "ab+") as handle:
            handle.seek(0)
            data = handle.read()
            complete = data.rfind(b"\n") + 1
            if complete < len(data):
                handle.truncate(complete)
        if complete == 0:
            return cls.start(path, header)
        return cls(path, header, open(path, "a", encoding="utf-8"))

    def append(self, record: Dict[str, Any]) -> None:
        self._handle.write(_line(record))
        self._handle.flush()

    def close(self) -> None:
        try:
            self._handle.close()
        except OSError:
            pass

    def __enter__(self):
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def replay(path: os.PathLike, kind: str, version: int
           ) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Read a journal back: ``(header, records)``.

    The header is the first record; it must have type ``kind`` and
    version ``version``.
    """
    try:
        lines = Path(path).read_text(encoding="utf-8",
                                     errors="replace").splitlines()
    except OSError as error:
        raise JournalError(
            f"cannot read {kind} journal {path}: {error}") from error
    records = []
    for line in lines:
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue            # torn line from a killed writer
        if isinstance(record, dict):
            records.append(record)
    if not records or records[0].get("type") != kind:
        raise JournalError(
            f"{path} has no {kind} header — not a {kind} journal")
    header = records[0]
    if header.get("version") != version:
        raise JournalError(
            f"{kind} journal version {header.get('version')!r} != "
            f"{version} (start a fresh one)")
    return header, records[1:]


def compact(path: os.PathLike, header: Dict[str, Any],
            records: Iterable[Dict[str, Any]]) -> None:
    """Atomically replace ``path`` with ``header`` plus ``records``."""
    text = _line(header) + "".join(_line(record) for record in records)
    _atomic_write(Path(path), text.encode("utf-8"))

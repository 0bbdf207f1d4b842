"""Content-hash incremental cache for warm lint runs.

A cache entry maps a file's resolved path to the SHA-256 of its bytes,
the per-file findings it produced, and its whole-program
:class:`~repro.lint.project.ModuleSummary`.  On a warm run an unchanged
file is served entirely from the entry — no re-read beyond hashing, no
re-parse, no rule dispatch — while the project *findings* always
recompute from the (possibly cached) summaries, because graph queries
are cheap and any changed module can shift reachability for its reverse
dependencies.  The rendered ``shardplan.json`` certificate is the one
project-phase artifact that *is* memoised (:func:`project_key` over the
per-module content digests): on a fully warm run the byte-identical
text is served without re-deriving the call graph.

The whole store is guarded by a *signature* combining
:data:`~repro.lint.registry.ANALYZER_VERSION`, a hash of the analyzer's
own source files, and the exact rule selection: editing any rule, or
linting with a different ``--select``/``--ignore`` set, invalidates
everything rather than ever serving findings a different analyzer or
configuration produced.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from repro.lint.findings import Finding
from repro.lint.project import ModuleSummary
from repro.lint.registry import ANALYZER_VERSION

__all__ = ["CacheEntry", "LintCache", "cache_signature", "content_digest",
           "project_key"]

_FORMAT = 1

#: The analyzer's source directory; its ``*.py`` bytes key the cache.
_ANALYZER_DIR = Path(__file__).resolve().parent


def _analyzer_digest() -> str:
    """SHA-256 over the name and bytes of every analyzer source file."""
    digest = hashlib.sha256()
    for source in sorted(_ANALYZER_DIR.glob("*.py")):
        digest.update(source.name.encode("utf-8") + b"\0")
        digest.update(source.read_bytes())
    return digest.hexdigest()


def cache_signature(rule_ids: Iterable[str],
                    project_rule_ids: Iterable[str]) -> str:
    """The invalidation key: analyzer version and source + rule selection.

    The source hash means a rule edit without an
    :data:`~repro.lint.registry.ANALYZER_VERSION` bump still never
    replays findings the old rule code produced.
    """
    return (f"v{_FORMAT}:a{ANALYZER_VERSION}:s{_analyzer_digest()}"
            f":{','.join(sorted(rule_ids))}"
            f":{','.join(sorted(project_rule_ids))}")


def content_digest(data: bytes) -> str:
    """SHA-256 hex digest of a file's bytes."""
    return hashlib.sha256(data).hexdigest()


def project_key(module_digests: Dict[str, str]) -> str:
    """One hash over every module's content digest.

    The project-phase facts (call graph → shard plan) are a pure
    function of the module summaries, which are a pure function of the
    file contents — so a memo keyed on the sorted
    ``module:content-digest`` pairs is exact: any changed, added, or
    removed module changes the key, and nothing else does.
    """
    joined = "\n".join(
        f"{module}:{module_digests[module]}"
        for module in sorted(module_digests)
    )
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()


@dataclass
class CacheEntry:
    """Everything a warm run needs to skip one unchanged file."""

    digest: str
    findings: List[Finding]
    summary: Optional[ModuleSummary]  # None when the file did not parse

    def to_dict(self) -> dict:
        """JSON-serialisable view."""
        return {
            "digest": self.digest,
            "findings": [f.to_dict() for f in self.findings],
            "summary": self.summary.to_dict() if self.summary else None,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CacheEntry":
        """Inverse of :meth:`to_dict`."""
        return cls(
            digest=d["digest"],
            findings=[
                Finding(path=f["path"], line=int(f["line"]), col=int(f["col"]),
                        rule_id=f["rule_id"], message=f["message"])
                for f in d["findings"]
            ],
            summary=(ModuleSummary.from_dict(d["summary"])
                     if d.get("summary") else None),
        )


class LintCache:
    """On-disk store of :class:`CacheEntry` keyed by resolved path."""

    def __init__(self, path: Optional[Path], signature: str):
        self.path = path
        self.signature = signature
        self.entries: Dict[str, CacheEntry] = {}
        #: project-phase memo: :func:`project_key` -> rendered
        #: ``shardplan.json`` text.  One slot — the latest tree state —
        #: because the memo only ever serves the warm-run fast path.
        self._project_key: Optional[str] = None
        self._project_plan: Optional[str] = None
        self._dirty = False

    @classmethod
    def load(cls, path: Optional[Path], signature: str) -> "LintCache":
        """Read the store; a missing/corrupt/stale-signature file yields
        an empty cache instead of an error."""
        cache = cls(path, signature)
        if path is None or not path.is_file():
            return cache
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return cache
        if payload.get("signature") != signature:
            return cache
        try:
            cache.entries = {
                key: CacheEntry.from_dict(entry)
                for key, entry in payload.get("entries", {}).items()
            }
        except (KeyError, TypeError, ValueError):
            cache.entries = {}
        project = payload.get("project")
        if (isinstance(project, dict)
                and isinstance(project.get("key"), str)
                and isinstance(project.get("shard_plan"), str)):
            cache._project_key = project["key"]
            cache._project_plan = project["shard_plan"]
        return cache

    def get_project(self, key: str) -> Optional[str]:
        """The memoised shard-plan text for an identical summary set."""
        if self._project_key == key:
            return self._project_plan
        return None

    def put_project(self, key: str, shard_plan: str) -> None:
        """Record the freshly derived project-phase certificate."""
        self._project_key = key
        self._project_plan = shard_plan
        self._dirty = True

    def get(self, key: str, digest: str) -> Optional[CacheEntry]:
        """The entry for ``key`` when its content hash still matches."""
        entry = self.entries.get(key)
        if entry is not None and entry.digest == digest:
            return entry
        return None

    def put(self, key: str, entry: CacheEntry) -> None:
        """Record a freshly analyzed file."""
        self.entries[key] = entry
        self._dirty = True

    def prune(self, live_keys: Iterable[str]) -> None:
        """Drop entries for files no longer part of the linted tree."""
        live = set(live_keys)
        dead = [key for key in self.entries if key not in live]
        for key in dead:
            del self.entries[key]
            self._dirty = True

    def save(self) -> None:
        """Write the store back if anything changed."""
        if self.path is None or not self._dirty:
            return
        payload = {
            "signature": self.signature,
            "entries": {key: self.entries[key].to_dict()
                        for key in sorted(self.entries)},
        }
        if self._project_key is not None and self._project_plan is not None:
            payload["project"] = {
                "key": self._project_key,
                "shard_plan": self._project_plan,
            }
        self.path.write_text(
            json.dumps(payload, indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        self._dirty = False

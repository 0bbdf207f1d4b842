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

import functools
import hashlib
import json
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path
from typing import (Any, Callable, Dict, Iterable, List, Optional, Tuple,
                    Union, get_args, get_origin, get_type_hints)

from repro.lint.findings import Finding
from repro.lint.project import ModuleSummary
from repro.lint.registry import ANALYZER_VERSION

__all__ = ["CacheEntry", "LintCache", "cache_signature", "content_digest",
           "decode", "encode", "project_key"]

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


def encode(value: Any) -> Any:
    """The JSON form of a cache entry or any value inside one.

    A dataclass becomes an object keyed by its field names, a set a
    sorted list, a tuple a list, and a dict key a string; :func:`decode`
    reads each back by the type hint of the field that holds it.
    """
    if is_dataclass(value):
        return {name: encode(getattr(value, name))
                for name, _ in _fields(type(value))}
    if isinstance(value, (set, frozenset)):
        return sorted(encode(item) for item in value)
    if isinstance(value, (list, tuple)):
        return [encode(item) for item in value]
    if isinstance(value, dict):
        return {str(key): encode(item) for key, item in value.items()}
    return value


def decode(hint: Any, data: Any) -> Any:
    """Rebuild a value of type ``hint`` from its :func:`encode` form.

    Data that does not fit the hint raises :class:`KeyError`,
    :class:`TypeError` or :class:`ValueError`, which
    :meth:`LintCache.load` reads as a corrupt cache.
    """
    return _decoder(hint)(data)


@functools.lru_cache(maxsize=None)
def _decoder(hint: Any) -> Callable[[Any], Any]:
    """The :func:`decode` function of one hint, built once."""
    # Not isinstance(): on 3.10 a generic alias like set[str] passes it.
    if type(hint) is type:
        if hint in (int, str, bool):
            return lambda data: _expect(data, hint)
        fields = [(name, _decoder(field_hint))
                  for name, field_hint in _fields(hint)]

        def read_fields(data: Any) -> Any:
            values = _expect(data, dict)
            return hint(**{name: read(values[name]) for name, read in fields})
        return read_fields
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union:  # only Optional[X] occurs
        inner = _decoder(args[0])
        return lambda data: None if data is None else inner(data)
    if origin is tuple and args[-1] is not Ellipsis:
        items = [_decoder(arg) for arg in args]

        def read_items(data: Any) -> tuple:
            if len(_expect(data, list)) != len(items):
                raise ValueError(f"expected {len(items)} items, got {data!r}")
            return tuple(read(item) for read, item in zip(items, data))
        return read_items
    if origin in (list, set, tuple):
        item = _decoder(args[0])
        return lambda data: origin(map(item, _expect(data, list)))
    if origin is dict:
        value = _decoder(args[1])
        if args[0] is int:
            return lambda data: {int(k): value(v)
                                 for k, v in _expect(data, dict).items()}
        return lambda data: {k: value(v) for k, v in _expect(data, dict).items()}
    raise TypeError(f"no decoding for {hint!r}")


def _expect(data: Any, kind: type) -> Any:
    """``data``, when its type is exactly ``kind``."""
    if type(data) is not kind:
        raise TypeError(f"expected {kind.__name__}, got {data!r}")
    return data


@functools.lru_cache(maxsize=None)
def _fields(cls: type) -> Tuple[Tuple[str, Any], ...]:
    """``(name, resolved type hint)`` of each field of a dataclass."""
    hints = get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in fields(cls))


class LintCache:
    """On-disk store of :class:`CacheEntry` keyed by resolved path."""

    def __init__(self, path: Optional[Path], signature: str):
        self.path = path
        self.signature = signature
        self.entries: Dict[str, CacheEntry] = {}
        #: project-phase memo: (:func:`project_key`, rendered
        #: ``shardplan.json`` text).  One slot — the latest tree state —
        #: because the memo only ever serves the warm-run fast path.
        self._project: Optional[Tuple[str, str]] = None
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
            if payload["signature"] == signature:
                cache.entries = decode(Dict[str, CacheEntry],
                                       payload["entries"])
                cache._project = decode(Optional[Tuple[str, str]],
                                        payload["project"])
        except (OSError, KeyError, TypeError, ValueError):
            cache.entries, cache._project = {}, None
        return cache

    def get_project(self, key: str) -> Optional[str]:
        """The memoised shard-plan text for an identical summary set."""
        if self._project is not None and self._project[0] == key:
            return self._project[1]
        return None

    def put_project(self, key: str, shard_plan: str) -> None:
        """Record the freshly derived project-phase certificate."""
        self._project = (key, shard_plan)
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
            "entries": encode(self.entries),
            "project": encode(self._project),
        }
        self.path.write_text(
            json.dumps(payload, indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        self._dirty = False

"""Strict reader/writer for the ``.cgtrace`` JSON-lines format.

Layout of a trace file::

    {"record":"header","schema":"cocg-trace/1", ...}
    {"record":"arrival", ...}     # body, sorted (see _sort_key)
    {"record":"stage", ...}
    {"record":"fault", ...}
    {"record":"trailer","records":N,"payload_digest":...,"fleet_digest":...}

Every line is canonical JSON (sorted keys, no whitespace), the body is
written in a deterministic total order, and the trailer carries a sha256
over the body lines — so ``write -> read -> write`` is byte-identity and
any corruption fails by name:

* :class:`TraceSchemaError` — unknown ``schema`` (lists the known ones);
* :class:`TraceFormatError` — malformed/unknown record kind or field,
  a field of the wrong JSON type, out-of-order body, trailing garbage —
  always naming the line, the record kind and the offender;
* :class:`TraceTruncatedError` — missing trailer or a record-count
  mismatch (the file was cut short);
* :class:`TraceDigestError` — the body does not hash to the trailer's
  ``payload_digest`` (the file was edited or corrupted).

Replay *divergence* (the engine not reproducing ``fleet_digest``) is a
different failure and lives in :class:`repro.trace.replayer.ReplayDivergence`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple, Union

from repro.trace.events import (
    KNOWN_SCHEMAS,
    ArrivalEvent,
    FaultScheduleEvent,
    StageEvent,
    TraceHeader,
    TraceTrailer,
)

__all__ = [
    "TraceError",
    "TraceSchemaError",
    "TraceFormatError",
    "TraceTruncatedError",
    "TraceDigestError",
    "canonical",
    "digest",
    "config_fingerprint",
    "TraceDocument",
]

BodyEvent = Union[ArrivalEvent, StageEvent, FaultScheduleEvent]


class TraceError(Exception):
    """Base of every ``.cgtrace`` read/write failure."""


class TraceSchemaError(TraceError):
    """The header declares a schema version this reader does not know."""


class TraceFormatError(TraceError):
    """A malformed record: unknown kind/field, bad JSON, wrong order."""


class TraceTruncatedError(TraceError):
    """The trace ends before its trailer (or counts fewer records)."""


class TraceDigestError(TraceError):
    """The body does not hash to the trailer's ``payload_digest``."""


def canonical(obj: object) -> str:
    """Canonical JSON: sorted keys, no whitespace — byte-stable."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(lines: Sequence[str]) -> str:
    """sha256 over newline-terminated body lines (the payload digest)."""
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def config_fingerprint(config: Dict) -> str:
    """sha256 over the canonical config JSON (the header fingerprint)."""
    return hashlib.sha256(canonical(config).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Record schemas: kind -> (required fields, optional fields)
# ---------------------------------------------------------------------------

_RECORD_FIELDS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "header": (
        ("record", "schema", "scenario", "seed", "config", "fingerprint",
         "meta"),
        (),
    ),
    "arrival": (
        ("record", "t", "id", "game", "script", "player", "behaviour",
         "category"),
        (),
    ),
    "stage": (
        ("record", "t", "session", "stage", "start", "end"),
        ("node",),
    ),
    "fault": (("record", "t", "index", "spec"), ()),
    "trailer": (("record", "records", "payload_digest", "fleet_digest"), ()),
}

# The JSON type of every field but the ``record`` discriminator.  A name
# means the same thing in every record kind; a bool is never a number.
_NUMBER = ((int, float), "a number")
_INTEGER = ((int,), "an integer")
_STRING = ((str,), "a string")
_OBJECT = ((dict,), "an object")
_FIELD_TYPES: Dict[str, Tuple[Tuple[type, ...], str]] = {
    "schema": _STRING, "scenario": _STRING, "seed": _INTEGER,
    "config": _OBJECT, "fingerprint": _STRING, "meta": _OBJECT,
    "t": _NUMBER, "id": _INTEGER, "game": _STRING, "script": _STRING,
    "player": _STRING, "behaviour": _STRING, "category": _STRING,
    "session": _STRING, "stage": _STRING, "start": _NUMBER,
    "end": _NUMBER, "node": _STRING, "index": _INTEGER, "spec": _OBJECT,
    "records": _INTEGER, "payload_digest": _STRING,
    "fleet_digest": _STRING,
}

# Same-time body ordering: arrivals, then the fault schedule, then the
# observed stage timeline.
_KIND_RANK = {"arrival": 0, "fault": 1, "stage": 2}


def _sort_key(event: BodyEvent) -> Tuple:
    """The total order body records are written (and verified) in."""
    if isinstance(event, ArrivalEvent):
        return (event.time, 0, event.request_id, "", "", 0.0, 0.0)
    if isinstance(event, FaultScheduleEvent):
        return (event.time, 1, event.index, "", "", 0.0, 0.0)
    return (
        event.time, 2, 0, event.session, event.stage, event.start, event.end,
        event.node,
    )


def _check_fields(kind: str, payload: Dict, lineno: int) -> None:
    required, optional = _RECORD_FIELDS[kind]
    missing = sorted(set(required) - set(payload))
    if missing:
        raise TraceFormatError(
            f"line {lineno}: {kind} record is missing field(s) "
            f"{missing}; required: {', '.join(required)}"
        )
    unknown = sorted(set(payload) - set(required) - set(optional))
    if unknown:
        known = ", ".join(required + optional)
        raise TraceFormatError(
            f"line {lineno}: {kind} record has unknown field(s) "
            f"{unknown}; known fields: {known}"
        )
    for name in required + optional:
        if name not in payload or name not in _FIELD_TYPES:
            continue
        types, noun = _FIELD_TYPES[name]
        value = payload[name]
        if isinstance(value, bool) or not isinstance(value, types):
            raise TraceFormatError(
                f"line {lineno}: {kind} field {name!r} must be {noun}, "
                f"got {canonical(value)}"
            )


@dataclass
class TraceDocument:
    """A fully parsed (or about-to-be-written) ``.cgtrace`` trace."""

    header: TraceHeader
    arrivals: List[ArrivalEvent] = field(default_factory=list)
    stages: List[StageEvent] = field(default_factory=list)
    faults: List[FaultScheduleEvent] = field(default_factory=list)
    trailer: TraceTrailer = TraceTrailer(0, "", "")

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def body_events(self) -> List[BodyEvent]:
        """Every body record in the canonical written order."""
        events: List[BodyEvent] = [*self.arrivals, *self.faults, *self.stages]
        return sorted(events, key=_sort_key)

    def body_lines(self) -> List[str]:
        """Canonical JSON lines of the body (the payload-digest input)."""
        return [canonical(e.to_dict()) for e in self.body_events()]

    def payload_digest(self) -> str:
        """sha256 of :meth:`body_lines` — what the trailer must carry."""
        return digest(self.body_lines())

    def sealed(self, fleet_digest: str) -> "TraceDocument":
        """A copy with a freshly computed, consistent trailer."""
        body = self.body_lines()
        return TraceDocument(
            header=self.header,
            arrivals=list(self.arrivals),
            stages=list(self.stages),
            faults=list(self.faults),
            trailer=TraceTrailer(
                records=len(body),
                payload_digest=digest(body),
                fleet_digest=fleet_digest,
            ),
        )

    def dumps(self) -> str:
        """The complete trace text (header + sorted body + trailer)."""
        lines = [canonical(self.header.to_dict())]
        lines.extend(self.body_lines())
        lines.append(canonical(self.trailer.to_dict()))
        return "\n".join(lines) + "\n"

    def save(self, path: Union[str, Path]) -> Path:
        """Write the trace to ``path`` (conventionally ``*.cgtrace``)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.dumps(), encoding="utf-8")
        return path

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @staticmethod
    def loads(text: str) -> "TraceDocument":
        """Parse a trace, strictly.  See module docstring for failures."""
        raw_lines = [ln for ln in text.split("\n") if ln.strip()]
        if not raw_lines:
            raise TraceTruncatedError("empty trace: no header record")
        header = _parse_header(raw_lines[0])
        arrivals: List[ArrivalEvent] = []
        stages: List[StageEvent] = []
        faults: List[FaultScheduleEvent] = []
        body_lines: List[str] = []
        trailer: TraceTrailer = None  # type: ignore[assignment]
        last_key: Tuple = ()
        for lineno, line in enumerate(raw_lines[1:], start=2):
            payload = _parse_json(line, lineno)
            kind = payload.get("record")
            if kind == "trailer":
                _check_fields("trailer", payload, lineno)
                trailer = TraceTrailer(
                    records=payload["records"],
                    payload_digest=payload["payload_digest"],
                    fleet_digest=payload["fleet_digest"],
                )
                if lineno != len(raw_lines):
                    raise TraceFormatError(
                        f"line {lineno}: trailer is not the last record "
                        f"({len(raw_lines) - lineno} line(s) follow)"
                    )
                break
            event = _parse_body(kind, payload, lineno)
            key = _sort_key(event)
            if last_key and key < last_key:
                raise TraceFormatError(
                    f"line {lineno}: body records out of order "
                    f"(t={_event_time(event)} after t={last_key[0]}; "
                    f"the writer emits a sorted body)"
                )
            last_key = key
            body_lines.append(canonical(event.to_dict()))
            if isinstance(event, ArrivalEvent):
                arrivals.append(event)
            elif isinstance(event, StageEvent):
                stages.append(event)
            else:
                faults.append(event)
        if trailer is None:
            raise TraceTruncatedError(
                f"trace ends after {len(raw_lines)} line(s) without a "
                f"trailer record — the file is truncated"
            )
        if trailer.records != len(body_lines):
            raise TraceTruncatedError(
                f"trailer counts {trailer.records} body record(s) but the "
                f"trace holds {len(body_lines)} — the file is truncated or "
                f"spliced"
            )
        actual = digest(body_lines)
        if actual != trailer.payload_digest:
            raise TraceDigestError(
                f"payload digest mismatch: trailer says "
                f"{trailer.payload_digest[:16]}…, body hashes to "
                f"{actual[:16]}… — the trace was edited or corrupted"
            )
        return TraceDocument(
            header=header,
            arrivals=arrivals,
            stages=stages,
            faults=faults,
            trailer=trailer,
        )

    @staticmethod
    def load(path: Union[str, Path]) -> "TraceDocument":
        """Read and parse one ``.cgtrace`` file."""
        return TraceDocument.loads(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Parse helpers
# ---------------------------------------------------------------------------

def _parse_json(line: str, lineno: int) -> Dict:
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"line {lineno}: not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise TraceFormatError(
            f"line {lineno}: record must be a JSON object, got "
            f"{type(payload).__name__}"
        )
    return payload


def _parse_header(line: str) -> TraceHeader:
    payload = _parse_json(line, 1)
    if payload.get("record") != "header":
        raise TraceFormatError(
            f"line 1: first record must be 'header', got "
            f"{payload.get('record')!r}"
        )
    _check_fields("header", payload, 1)
    schema = payload["schema"]
    if schema not in KNOWN_SCHEMAS:
        raise TraceSchemaError(
            f"unknown trace schema {schema!r}; this reader understands: "
            f"{', '.join(KNOWN_SCHEMAS)}"
        )
    config = payload["config"]
    fingerprint = payload["fingerprint"]
    expected = config_fingerprint(config)
    if fingerprint != expected:
        raise TraceDigestError(
            f"header fingerprint {fingerprint[:16]}… does not match the "
            f"config (expected {expected[:16]}…) — the configuration was "
            f"edited after recording"
        )
    return TraceHeader(
        schema=schema,
        scenario=payload["scenario"],
        seed=payload["seed"],
        config=config,
        fingerprint=fingerprint,
        meta={str(k): str(v) for k, v in sorted(payload["meta"].items())},
    )


def _parse_body(kind: object, payload: Dict, lineno: int) -> BodyEvent:
    if kind not in _KIND_RANK:
        known = ", ".join(sorted(_RECORD_FIELDS))
        raise TraceFormatError(
            f"line {lineno}: unknown record kind {kind!r}; known kinds: "
            f"{known}"
        )
    _check_fields(str(kind), payload, lineno)
    if kind == "arrival":
        return ArrivalEvent(
            time=float(payload["t"]),
            request_id=payload["id"],
            game=payload["game"],
            script=payload["script"],
            player=payload["player"],
            behaviour=payload["behaviour"],
            category=payload["category"],
        )
    if kind == "stage":
        return StageEvent(
            time=float(payload["t"]),
            session=payload["session"],
            stage=payload["stage"],
            start=float(payload["start"]),
            end=float(payload["end"]),
            node=payload.get("node", ""),
        )
    return FaultScheduleEvent(
        time=float(payload["t"]),
        index=payload["index"],
        spec=payload["spec"],
    )


def _event_time(event: BodyEvent) -> float:
    return event.time

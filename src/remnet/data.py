"""Loading, validation, and summary of dyadic event sequences; the writers.

Input formats:
  events CSV: header ``network_id,order,sender,receiver``; order strictly
    increasing integers within a network.
  actors CSV: header ``network_id,actor_id,icr`` with icr in {0,1}; an
    optional trailing ``specialist`` column (0/1; an empty cell is not
    given, and a network's given flags must agree) goes into NetworkMeta.
  JSON alternative: a single object (or list of objects) per network with
    keys ``network_id``, ``actors`` and ``events`` mirroring the CSV fields;
    ids (network, actor, sender, receiver) must be strings, as in CSV, and
    UTF-8 text (no lone surrogate from an escape such as ``"\\ud800"``).

Timing is ordinal: the event order is the clock, no timestamps are kept.
The actor table is authoritative for the risk set; actors with no events
are still at risk. Inputs are read as UTF-8; a path that cannot be opened
is a DataError. ``write_csv`` and ``write_json`` write every output file of
the package, as UTF-8.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


class DataError(Exception):
    """Raised for malformed or inconsistent network input."""


@dataclass(frozen=True)
class ActorTable:
    """Fixed actor set for one network, with the ICR covariate."""

    network_id: str
    actor_ids: tuple[str, ...]
    icr: tuple[bool, ...]
    specialist: bool | None = None

    def __post_init__(self):
        if len(self.actor_ids) < 2:
            raise DataError(
                f"network {self.network_id!r}: need at least 2 actors, "
                f"got {len(self.actor_ids)}"
            )
        if len(set(self.actor_ids)) != len(self.actor_ids):
            dupes = {a for a in self.actor_ids if self.actor_ids.count(a) > 1}
            raise DataError(
                f"network {self.network_id!r}: duplicate actor_id {sorted(dupes)}"
            )
        if len(self.icr) != len(self.actor_ids):
            raise DataError("icr flags do not align with actor_ids")

    @property
    def n(self) -> int:
        return len(self.actor_ids)

    def index(self, actor_id: str) -> int:
        try:
            return self._index[actor_id]
        except AttributeError:
            object.__setattr__(
                self, "_index", {a: k for k, a in enumerate(self.actor_ids)}
            )
            return self._index[actor_id]

    def icr_array(self) -> np.ndarray:
        return np.asarray(self.icr, dtype=np.float64)


@dataclass(frozen=True)
class EventSequence:
    """Ordered dyadic events for one network (ordinal timing)."""

    network_id: str
    events: tuple[tuple[str, str], ...]

    def __post_init__(self):
        if len(self.events) < 1:
            raise DataError(f"network {self.network_id!r}: empty event sequence")
        for t, (s, r) in enumerate(self.events):
            if s == r:
                raise DataError(
                    f"network {self.network_id!r}: self-loop event at position {t} "
                    f"({s} -> {r})"
                )

    @property
    def m(self) -> int:
        return len(self.events)

    def index_pairs(self, actors: ActorTable) -> np.ndarray:
        """Events as an (m, 2) int array of actor indices."""
        out = np.empty((self.m, 2), dtype=np.intp)
        for t, (s, r) in enumerate(self.events):
            out[t, 0] = actors.index(s)
            out[t, 1] = actors.index(r)
        return out


@dataclass(frozen=True)
class NetworkMeta:
    network_id: str
    specialist: bool | None
    n_actors: int
    n_events: int
    pct_icr: float


def _check_consistency(actors: ActorTable, seq: EventSequence) -> None:
    known = set(actors.actor_ids)
    for t, (s, r) in enumerate(seq.events):
        for a in (s, r):
            if a not in known:
                raise DataError(
                    f"network {seq.network_id!r}: event at position {t} references "
                    f"unknown actor {a!r}"
                )


def _check_utf8(value: str, where: str, key: str) -> None:
    """An id must be UTF-8 text: a JSON escape such as ``"\\udc80"`` gives a
    lone surrogate, which no output file can hold or be named by."""
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        raise DataError(f"{where}: {key} is not UTF-8 text: {value!r}") from None


def _check_ids(row, keys, path, lineno) -> None:
    """Ids are UTF-8 strings, as CSV makes them; anything else is a DataError."""
    for key in keys:
        if not isinstance(row[key], str):
            raise DataError(f"{path}:{lineno}: {key} must be a string: {row[key]!r}")
        _check_utf8(row[key], f"{path}:{lineno}", key)


def _parse_actor_rows(rows, path) -> dict[str, tuple[list, list, bool | None]]:
    nets: dict[str, tuple[list, list, bool | None]] = {}
    for lineno, row in rows:
        try:
            net = row["network_id"]
            aid = row["actor_id"]
            icr_raw = row["icr"]
        except KeyError as exc:
            raise DataError(f"{path}:{lineno}: missing column {exc}") from None
        _check_ids(row, ("actor_id",), path, lineno)
        if icr_raw not in ("0", "1", 0, 1, True, False):
            raise DataError(f"{path}:{lineno}: icr must be 0 or 1, got {icr_raw!r}")
        ids, flags, spec = nets.setdefault(net, ([], [], None))
        if aid in ids:
            raise DataError(f"{path}:{lineno}: duplicate actor_id {aid!r}")
        ids.append(aid)
        flags.append(bool(int(icr_raw)))
        sval = row.get("specialist")
        if sval not in (None, ""):  # an empty cell is "not given"
            if sval not in ("0", "1", 0, 1, True, False):
                raise DataError(
                    f"{path}:{lineno}: specialist must be 0 or 1, got {sval!r}"
                )
            if spec is not None and spec != bool(int(sval)):
                raise DataError(
                    f"{path}:{lineno}: network {net!r}: specialist {int(sval)} "
                    f"contradicts the earlier {int(spec)}"
                )
            nets[net] = (ids, flags, bool(int(sval)))
    return nets


def _parse_order(order_raw, path, lineno) -> int:
    """An event's order: an int, or text that spells one. A JSON float or
    bool is neither, though ``int()`` would truncate 1.5 and take true."""
    if not isinstance(order_raw, (bool, float)):
        try:
            return int(order_raw)
        except (TypeError, ValueError):
            pass
    raise DataError(f"{path}:{lineno}: order must be an integer, got {order_raw!r}")


def _parse_event_rows(rows, path) -> dict[str, list]:
    nets: dict[str, list] = {}
    last_order: dict[str, int] = {}
    for lineno, row in rows:
        try:
            net = row["network_id"]
            order_raw = row["order"]
            sender = row["sender"]
            receiver = row["receiver"]
        except KeyError as exc:
            raise DataError(f"{path}:{lineno}: missing column {exc}") from None
        _check_ids(row, ("sender", "receiver"), path, lineno)
        order = _parse_order(order_raw, path, lineno)
        if net in last_order and order <= last_order[net]:
            raise DataError(
                f"{path}:{lineno}: order not strictly increasing for network {net!r}"
            )
        last_order[net] = order
        nets.setdefault(net, []).append((sender, receiver))
    return nets


def _open_input(path: Path, **kwargs):
    """``open(path)`` for reading; a path that cannot be opened is a DataError."""
    try:
        return open(path, encoding="utf-8", **kwargs)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from None


def _read_csv(path: str | Path):
    path = Path(path)
    with _open_input(path, newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            # enumerate from 2: line 1 is the header
            yield from ((lineno, row) for lineno, row in enumerate(reader, start=2))
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text: {exc}") from None
        except csv.Error as exc:
            # line_num counts the lines of the records read before this one
            raise DataError(f"{path}:{reader.line_num + 1}: {exc}") from None


def _network(net, actor_entry, events) -> tuple[ActorTable, EventSequence]:
    ids, flags, spec = actor_entry
    actors = ActorTable(
        network_id=net, actor_ids=tuple(ids), icr=tuple(flags), specialist=spec
    )
    seq = EventSequence(network_id=net, events=tuple(events))
    _check_consistency(actors, seq)
    return actors, seq


def _json_rows(obj: dict, key: str, label: str, **fields) -> list[tuple[int, dict]]:
    """(list index, row) pairs of ``obj[key]``, each row extended by ``fields``."""
    rows = obj.get(key)
    if not isinstance(rows, list) or not all(isinstance(r, dict) for r in rows):
        raise DataError(f"{label}: {key!r} must be a list of objects")
    return [(idx, {**row, **fields}) for idx, row in enumerate(rows)]


def _load_json_networks(path: str | Path):
    """Networks of a JSON file, validated row by row like the CSV input.

    The list index of an actor or event stands in for the CSV line number;
    events may be listed in any order and are sorted by ``order``.
    """
    path = Path(path)
    try:
        with _open_input(path) as fh:
            payload = json.load(fh)
    except ValueError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from None
    objs = payload if isinstance(payload, list) else [payload]
    result, first = {}, {}
    for k, obj in enumerate(objs):
        label = f"{path}[{k}]"
        if not isinstance(obj, dict) or not isinstance(obj.get("network_id"), str):
            raise DataError(f"{label}: a network needs a string network_id")
        net = obj["network_id"]
        _check_utf8(net, label, "network_id")
        if net in first:
            raise DataError(f"{label}: network_id {net!r} repeats {path}[{first[net]}]")
        first[net] = k
        actor_rows = _json_rows(
            obj, "actors", label, network_id=net, specialist=obj.get("specialist")
        )
        actor_nets = _parse_actor_rows(actor_rows, f"{label}.actors")
        events_label = f"{label}.events"
        event_rows = sorted(
            _json_rows(obj, "events", label, network_id=net),
            key=lambda item: _parse_order(item[1].get("order"), events_label, item[0]),
        )
        event_nets = _parse_event_rows(event_rows, events_label)
        result[net] = _network(
            net, actor_nets.get(net, ([], [], None)), event_nets.get(net, [])
        )
    return result


def load_networks(
    events_path: str | Path, actors_path: str | Path | None = None
) -> dict[str, tuple[ActorTable, EventSequence]]:
    """Load every network found in the given files, keyed by network_id."""
    events_path = Path(events_path)
    if events_path.suffix.lower() == ".json":
        return _load_json_networks(events_path)
    if actors_path is None:
        raise DataError("actors_path is required for CSV input")
    actor_nets = _parse_actor_rows(_read_csv(actors_path), actors_path)
    event_nets = _parse_event_rows(_read_csv(events_path), events_path)
    result = {}
    for net, events in event_nets.items():
        if net not in actor_nets:
            raise DataError(f"network {net!r} has events but no actor rows")
        result[net] = _network(net, actor_nets[net], events)
    return result


def load_network(
    events_path: str | Path, actors_path: str | Path | None = None
) -> tuple[ActorTable, EventSequence]:
    """Load exactly one network; error if the files hold several."""
    nets = load_networks(events_path, actors_path)
    if len(nets) != 1:
        raise DataError(
            f"expected exactly one network, found {sorted(nets)} in {events_path}"
        )
    return next(iter(nets.values()))


def save_network(
    actors: ActorTable,
    seq: EventSequence,
    events_path: str | Path,
    actors_path: str | Path,
) -> None:
    """Write a network back to the canonical CSV pair (round-trip safe)."""
    spec = {} if actors.specialist is None else {"specialist": int(actors.specialist)}
    write_csv(
        actors_path,
        ["network_id", "actor_id", "icr", *spec],
        (
            [actors.network_id, aid, int(flag), *spec.values()]
            for aid, flag in zip(actors.actor_ids, actors.icr)
        ),
    )
    write_csv(
        events_path,
        ["network_id", "order", "sender", "receiver"],
        ([seq.network_id, t, s, r] for t, (s, r) in enumerate(seq.events, start=1)),
    )


def write_csv(path: str | Path, header, rows) -> None:
    """Write ``header``, then ``rows`` as they are drawn, as UTF-8 CSV in the
    default dialect; rows drawn before a failure stay in the file."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path: str | Path, obj) -> None:
    """Write ``obj`` as UTF-8 JSON, indented by 2, with a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def summarize(actors: ActorTable, seq: EventSequence) -> NetworkMeta:
    """Per-network summary: actor count, event count, %ICR, specialization."""
    if actors.network_id != seq.network_id:
        raise DataError(
            f"actor table is for {actors.network_id!r} but events are for "
            f"{seq.network_id!r}"
        )
    n_icr = sum(actors.icr)
    return NetworkMeta(
        network_id=actors.network_id,
        specialist=actors.specialist,
        n_actors=actors.n,
        n_events=seq.m,
        pct_icr=100.0 * n_icr / actors.n,
    )

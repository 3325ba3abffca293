import copy
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remnet.data import (
    ActorTable,
    DataError,
    EventSequence,
    load_network,
    load_networks,
    save_network,
    summarize,
)

from conftest import (
    corrupt_json,
    make_actors,
    random_sequence,
    sequence_from_pairs,
)

import numpy as np


def write_csv_pair(tmp_path, actor_rows, event_rows, actor_header="network_id,actor_id,icr"):
    actors_path = tmp_path / "actors.csv"
    events_path = tmp_path / "events.csv"
    actors_path.write_text(
        actor_header + "\n" + "\n".join(actor_rows) + "\n", encoding="utf-8"
    )
    events_path.write_text(
        "network_id,order,sender,receiver\n" + "\n".join(event_rows) + "\n",
        encoding="utf-8",
    )
    return events_path, actors_path


def test_load_minimal_network(tmp_path):
    events_path, actors_path = write_csv_pair(
        tmp_path,
        ["net,a,0", "net,b,1"],
        ["net,1,a,b"],
    )
    actors, seq = load_network(events_path, actors_path)
    assert actors.n == 2
    assert seq.m == 1
    assert seq.events == (("a", "b"),)
    assert actors.icr == (False, True)


def test_load_fixture_counts(tmp_path):
    # Newark-Maintenance-sized fixture: 27 actors, 77 events
    rng = np.random.default_rng(7)
    actors, seq = random_sequence(27, 77, rng, icr_indices=(0,), network_id="nm")
    e = tmp_path / "e.csv"
    a = tmp_path / "a.csv"
    save_network(actors, seq, e, a)
    actors2, seq2 = load_network(e, a)
    assert actors2.n == 27
    assert seq2.m == 77


def test_self_loop_rejected(tmp_path):
    events_path, actors_path = write_csv_pair(
        tmp_path, ["net,a,0", "net,b,0"], ["net,1,a,a"]
    )
    with pytest.raises(DataError, match="self-loop"):
        load_network(events_path, actors_path)


def test_unknown_actor_rejected(tmp_path):
    events_path, actors_path = write_csv_pair(
        tmp_path, ["net,a,0", "net,b,0"], ["net,1,a,zz"]
    )
    with pytest.raises(DataError, match="unknown actor"):
        load_network(events_path, actors_path)


def test_duplicate_actor_reports_line(tmp_path):
    events_path, actors_path = write_csv_pair(
        tmp_path, ["net,a,0", "net,a,1"], ["net,1,a,b"]
    )
    with pytest.raises(DataError, match=r":3: duplicate actor_id"):
        load_network(events_path, actors_path)


def test_malformed_icr_reports_line(tmp_path):
    events_path, actors_path = write_csv_pair(
        tmp_path, ["net,a,0", "net,b,7"], ["net,1,a,b"]
    )
    with pytest.raises(DataError, match=r":3: icr must be 0 or 1"):
        load_network(events_path, actors_path)


def test_order_must_increase(tmp_path):
    events_path, actors_path = write_csv_pair(
        tmp_path, ["net,a,0", "net,b,0"], ["net,2,a,b", "net,1,b,a"]
    )
    with pytest.raises(DataError, match="strictly increasing"):
        load_network(events_path, actors_path)


@pytest.mark.parametrize("which", ["events", "actors"])
def test_non_utf8_csv_is_data_error(tmp_path, which):
    events_path, actors_path = write_csv_pair(
        tmp_path, ["net,a,0", "net,b,0"], ["net,1,a,b"]
    )
    paths = {"events": events_path, "actors": actors_path}
    with open(paths[which], "ab") as fh:
        fh.write(b"net,2,\xff,a\n" if which == "events" else b"net,\xff,0\n")
    with pytest.raises(DataError, match=f"{paths[which].name}: not UTF-8"):
        load_networks(paths["events"], paths["actors"])


def test_oversized_csv_field_is_data_error(tmp_path):
    # the csv module refuses a field over 128 KiB
    events_path, actors_path = write_csv_pair(
        tmp_path, ["net,a,0", "net," + "b" * 200_000 + ",0"], ["net,1,a,b"]
    )
    with pytest.raises(DataError, match="actors.csv:3: field larger than field limit"):
        load_networks(events_path, actors_path)


def test_non_ascii_ids_round_trip(tmp_path):
    events_path, actors_path = write_csv_pair(
        tmp_path, ["net,Zoë,0", "net,Łukasz,1"], ["net,1,Zoë,Łukasz"]
    )
    actors, seq = load_network(events_path, actors_path)
    assert actors.actor_ids == ("Zoë", "Łukasz")
    save_network(actors, seq, tmp_path / "e2.csv", tmp_path / "a2.csv")
    assert load_network(tmp_path / "e2.csv", tmp_path / "a2.csv") == (actors, seq)


def test_at_least_two_actors(tmp_path):
    events_path, actors_path = write_csv_pair(tmp_path, ["net,a,0"], ["net,1,a,a"])
    with pytest.raises(DataError):
        load_network(events_path, actors_path)


def test_roundtrip_identical(tmp_path):
    rng = np.random.default_rng(3)
    actors, seq = random_sequence(6, 15, rng, icr_indices=(1, 4))
    e1, a1 = tmp_path / "e1.csv", tmp_path / "a1.csv"
    save_network(actors, seq, e1, a1)
    actors2, seq2 = load_network(e1, a1)
    assert actors2 == actors
    assert seq2 == seq
    e2, a2 = tmp_path / "e2.csv", tmp_path / "a2.csv"
    save_network(actors2, seq2, e2, a2)
    assert e1.read_text() == e2.read_text()
    assert a1.read_text() == a2.read_text()


def test_json_input(tmp_path):
    obj = {
        "network_id": "net",
        "specialist": True,
        "actors": [
            {"actor_id": "a", "icr": 1},
            {"actor_id": "b", "icr": 0},
            {"actor_id": "c", "icr": 0},
        ],
        "events": [
            {"order": 1, "sender": "a", "receiver": "b"},
            {"order": 2, "sender": "b", "receiver": "c"},
        ],
    }
    path = tmp_path / "net.json"
    path.write_text(json.dumps(obj))
    actors, seq = load_network(path)
    assert actors.specialist is True
    assert seq.events == (("a", "b"), ("b", "c"))


# two networks; the events of the second are listed out of order
VALID_JSON = [
    {
        "network_id": "n1",
        "specialist": 1,
        "actors": [
            {"actor_id": "a", "icr": 1},
            {"actor_id": "b", "icr": 0},
            {"actor_id": "c", "icr": "0"},
        ],
        "events": [
            {"order": 1, "sender": "a", "receiver": "b"},
            {"order": 2, "sender": "b", "receiver": "c"},
        ],
    },
    {
        "network_id": "n2",
        "actors": [{"actor_id": "x", "icr": 0}, {"actor_id": "y", "icr": 1}],
        "events": [
            {"order": 7, "sender": "y", "receiver": "x"},
            {"order": 3, "sender": "x", "receiver": "y"},
        ],
    },
]


def test_json_events_sorted_by_order(tmp_path):
    path = tmp_path / "nets.json"
    path.write_text(json.dumps(VALID_JSON))
    nets = load_networks(path)
    assert nets["n1"][0].specialist is True
    assert nets["n2"][0].specialist is None
    assert nets["n2"][1].events == (("x", "y"), ("y", "x"))


@pytest.mark.parametrize(
    "corrupt, match",
    [
        (lambda nets: nets[0]["actors"][0].update(icr="yes"), "icr must be 0 or 1"),
        (lambda nets: nets[0]["actors"][1].pop("icr"), "missing column 'icr'"),
        (lambda nets: nets[1]["events"][0].update(order="x"), "must be an integer"),
        (lambda nets: nets[1]["events"][0].update(order=3), "strictly increasing"),
        (
            lambda nets: nets[0]["events"][1].update(order=1.5),
            r"events:1: order must be an integer, got 1\.5",
        ),
        (
            lambda nets: nets[0]["events"][0].update(order=True),
            r"events:0: order must be an integer, got True",
        ),
        (lambda nets: nets[0].update(specialist="yes"), "specialist must be 0 or 1"),
        (lambda nets: nets[1].update(events=5), "must be a list of objects"),
        (lambda nets: nets[0].update(network_id=["q"]), "string network_id"),
        (lambda nets: nets[1].update(network_id=5), "string network_id"),
        (
            lambda nets: nets[0]["actors"][0].update(actor_id=["a"]),
            r"actors:0: actor_id must be a string",
        ),
        (
            lambda nets: nets[1]["events"][0].update(sender=5),
            r"events:0: sender must be a string",
        ),
        (
            lambda nets: nets[0]["events"][1].update(receiver=None),
            r"events:1: receiver must be a string",
        ),
        (
            lambda nets: nets[1].update(network_id="n\udc80"),
            r"nets.json\[1\]: network_id is not UTF-8 text",
        ),
        (
            lambda nets: nets[1]["events"][1].update(sender="\ud800"),
            r"events:1: sender is not UTF-8 text",
        ),
        (
            lambda nets: nets[1].update(network_id="n1"),
            r"nets.json\[1\]: network_id 'n1' repeats \S*nets.json\[0\]",
        ),
    ],
    ids=[
        "icr_yes",
        "icr_missing",
        "order_not_int",
        "order_duplicate",
        "order_float",
        "order_bool",
        "specialist_yes",
        "events_not_list",
        "network_id_list",
        "network_id_int",
        "actor_id_list",
        "sender_int",
        "receiver_null",
        "network_id_surrogate",
        "sender_surrogate",
        "network_id_repeated",
    ],
)
def test_json_malformed_rows_are_data_errors(tmp_path, corrupt, match):
    nets = copy.deepcopy(VALID_JSON)
    corrupt(nets)
    path = tmp_path / "nets.json"
    path.write_text(json.dumps(nets))
    with pytest.raises(DataError, match=match):
        load_networks(path)


def test_truncated_json_is_data_error(tmp_path):
    path = tmp_path / "nets.json"
    path.write_text(json.dumps(VALID_JSON)[:-20])
    with pytest.raises(DataError, match="invalid JSON"):
        load_networks(path)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_corrupted_json_loads_or_raises_data_error(data):
    """Drop any key or list item, or swap any value for a JSON scalar, list
    or object."""
    nets = corrupt_json(data, VALID_JSON)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "nets.json"
        path.write_text(json.dumps(nets))
        try:
            load_networks(path)
        except DataError:
            pass


VALID_CSV = {
    "actors": "network_id,actor_id,icr,specialist\n"
    "n1,a,0,1\nn1,b,1,1\nn1,c,0,1\nn2,x,1,\nn2,y,0,\n",
    "events": "network_id,order,sender,receiver\n"
    "n1,1,a,b\nn1,2,b,c\nn1,3,c,a\nn2,1,x,y\nn2,2,y,x\n",
}


def corrupt_csv(data, text: bytes) -> bytes:
    """``text`` with one cell or row dropped, one cell replaced by any text
    or bytes drawn from ``data``, or the file cut at any byte."""
    how = data.draw(st.sampled_from(["drop cell", "drop row", "text", "bytes", "cut"]))
    if how == "cut":
        return text[: data.draw(st.integers(0, len(text) - 1))]
    lines = text.split(b"\n")[:-1]
    row = data.draw(st.integers(0, len(lines) - 1))
    if how == "drop row":
        del lines[row]
    else:
        cells = lines[row].split(b",")
        col = data.draw(st.integers(0, len(cells) - 1))
        if how == "drop cell":
            del cells[col]
        elif how == "text":
            cells[col] = data.draw(st.text()).encode("utf-8")
        else:
            cells[col] = data.draw(st.binary())
        lines[row] = b",".join(cells)
    return b"".join(line + b"\n" for line in lines)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_corrupted_csv_loads_or_raises_data_error(data):
    """Corrupt one place of the actors or the events CSV."""
    which = data.draw(st.sampled_from(sorted(VALID_CSV)))
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: Path(tmp) / f"{name}.csv" for name in VALID_CSV}
        for name, text in VALID_CSV.items():
            content = text.encode("utf-8")
            if name == which:
                content = corrupt_csv(data, content)
            paths[name].write_bytes(content)
        try:
            load_networks(paths["events"], paths["actors"])
        except DataError:
            pass


def test_valid_csv_fuzz_input_loads(tmp_path):
    for name, text in VALID_CSV.items():
        (tmp_path / f"{name}.csv").write_text(text, encoding="utf-8")
    nets = load_networks(tmp_path / "events.csv", tmp_path / "actors.csv")
    assert {net: seq.m for net, (_, seq) in nets.items()} == {"n1": 3, "n2": 2}
    assert nets["n1"][0].specialist is True
    assert nets["n2"][0].specialist is None
    # the flags of one network must agree; an empty cell is "not given"
    for flags, line in [("1,0,1", 3), ("1,,0", 4), ("1,,1", None)]:
        rows = [f"n1,{a},0,{flag}\n" for a, flag in zip("abc", flags.split(","))]
        actors = "network_id,actor_id,icr,specialist\n" + "".join(rows) + "n2,x,1,\n"
        (tmp_path / "actors.csv").write_text(actors + "n2,y,0,\n", encoding="utf-8")
        if line is None:
            nets = load_networks(tmp_path / "events.csv", tmp_path / "actors.csv")
            assert nets["n1"][0].specialist is True
            continue
        match = f"actors.csv:{line}: network 'n1': specialist 0 contradicts the earlier 1"
        with pytest.raises(DataError, match=match):
            load_networks(tmp_path / "events.csv", tmp_path / "actors.csv")


def test_multiple_networks(tmp_path):
    events_path, actors_path = write_csv_pair(
        tmp_path,
        ["n1,a,0", "n1,b,0", "n2,x,1", "n2,y,0"],
        ["n1,1,a,b", "n2,1,x,y"],
    )
    nets = load_networks(events_path, actors_path)
    assert set(nets) == {"n1", "n2"}
    with pytest.raises(DataError, match="exactly one"):
        load_network(events_path, actors_path)


def test_summarize_pct_icr():
    # PATH-Radio-Comm-shaped: 32 actors, 70 events, 2 ICR -> 6.25%
    rng = np.random.default_rng(11)
    actors, seq = random_sequence(32, 70, rng, icr_indices=(0, 1))
    meta = summarize(actors, seq)
    assert (meta.n_actors, meta.n_events) == (32, 70)
    assert meta.pct_icr == pytest.approx(6.25)


def test_summarize_pct_icr_newark_police_shape():
    rng = np.random.default_rng(12)
    actors, seq = random_sequence(24, 83, rng, icr_indices=(3, 17))
    meta = summarize(actors, seq)
    assert meta.pct_icr == pytest.approx(8.33, abs=0.005)


def test_summarize_zero_icr():
    rng = np.random.default_rng(13)
    actors, seq = random_sequence(5, 4, rng)
    assert summarize(actors, seq).pct_icr == 0.0


def test_summarize_pure():
    rng = np.random.default_rng(14)
    actors, seq = random_sequence(8, 9, rng, icr_indices=(2,))
    assert summarize(actors, seq) == summarize(actors, seq)


def test_summarize_mismatched_networks():
    a1 = make_actors(3, network_id="one")
    a2 = make_actors(3, network_id="two")
    seq = sequence_from_pairs(a2, [(0, 1)])
    with pytest.raises(DataError):
        summarize(a1, seq)


def test_empty_sequence_rejected():
    with pytest.raises(DataError, match="empty"):
        EventSequence("net", ())


def test_duplicate_ids_rejected():
    with pytest.raises(DataError, match="duplicate"):
        ActorTable("net", ("a", "a"), (False, False))

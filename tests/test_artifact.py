"""The artifact container, and checkpoint round trips of both versions.

`data/checkpoint_v1.json` was written by the version 1 writer: an election
network on (1, 12, 12) images with two base branches, two transferred
branches and one grown (masked, frozen) branch, each added branch built on
a base branch's deeper layers.  Every layer has one nonzero weight per row,
so each output is one product plus a bias and the scores do not depend on
the BLAS kernel's summation order.  `data/checkpoint_v1_scores.json`
records the SHA-256 of its `network_scores` on a seeded input.
"""

import base64
import hashlib
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from namgrow import artifact
from namgrow.checkpoint import load_checkpoint, network_from_json, \
    network_to_json, save_checkpoint
from namgrow.clustering import source_digest
from namgrow.data_io import Dataset
from namgrow.nam_model import Branch, NamNetwork, branch_outputs, \
    network_scores
from namgrow.nn_core import BranchMlp

DATA = Path(__file__).parent / "data"
V1 = DATA / "checkpoint_v1.json"
SCORES = json.loads((DATA / "checkpoint_v1_scores.json").read_text())
# added branch -> the base branch whose deeper layers it was built on
SOURCES = {1: 0, 2: 0, 4: 3}


def _seeded_input() -> Dataset:
    n = SCORES["images"]
    pixels = np.random.default_rng(SCORES["seed"]).integers(
        0, 256, size=(1, 12, 12, n), dtype=np.uint8)
    return Dataset(pixels, np.zeros(n, dtype=np.int64), "seeded", 10)


def _scores_digest(net: NamNetwork) -> str:
    return hashlib.sha256(network_scores(net, _seeded_input())
                          .tobytes()).hexdigest()


def _shared(net: NamNetwork) -> NamNetwork:
    """`net` with each added branch on its source's deeper layer objects,
    as growth and transfer build them; the values are the same."""
    branches = list(net.branches)
    for k, s in SOURCES.items():
        own, source = net.branches[k].mlp, net.branches[s].mlp
        for a, b in zip([*own.hidden_layers[1:], own.output_layer],
                        [*source.hidden_layers[1:], source.output_layer]):
            np.testing.assert_array_equal(a.weights, b.weights)
        br = net.branches[k]
        branches[k] = Branch(
            BranchMlp([own.hidden_layers[0], *source.hidden_layers[1:]],
                      source.output_layer),
            br.input_range, br.branch_class, br.target_class, br.mask,
            br.origin, br.mask_frozen, br.election_stats)
    return NamNetwork(net.n_classes, net.input_shape, net.mode, net.tag,
                      branches)


# ------------------------------------------------------------- container

@pytest.mark.parametrize("values", [
    np.array([0.1, 1e-300, 5e-324, -0.0, np.nextafter(1.0, 2.0), -1e308]),
    np.arange(12.0).reshape(3, 4),
    np.arange(12.0).reshape(3, 4).T,   # not C-ordered
    np.zeros((0, 9)),
])
def test_array_round_trip_is_bit_exact(values):
    record = artifact.write(values)
    assert list(record) == ["dtype", "shape", "base64"]
    back = artifact.read(json.loads(artifact.dumps(record)), "x")
    assert back.shape == np.shape(values)
    assert back.tobytes() == np.ascontiguousarray(values).tobytes()
    assert back.flags.writeable and back.flags.c_contiguous


def _record(**changes):
    record = artifact.write(np.arange(6.0).reshape(2, 3))
    record.update(changes)
    return record


@pytest.mark.parametrize("record, message", [
    ([0.0, 1.0], "x is not an array record"),
    ({"dtype": "<f8", "shape": [1]}, "x has no 'base64' key"),
    (_record(dtype="<f4"), "x dtype '<f4' is not '<f8'"),
    (_record(dtype=">f8"), "x dtype '>f8' is not '<f8'"),
    (_record(shape=[2, 4]), "x holds 48 bytes, shape [2, 4] needs 64"),
    (_record(shape=[6.0]), "x shape [6.0] is not a list of sizes"),
    (_record(shape=[True, 6]), "x shape [True, 6] is not a list of sizes"),
    (_record(shape=[-2, -3]), "x shape [-2, -3] is not a list of sizes"),
    (_record(shape=6), "x shape 6 is not a list of sizes"),
    (_record(base64="AAAA*AAA"), "x is not valid base64"),
    (_record(base64="AAAAAAA"), "x is not valid base64"),
    (_record(base64="AAAAAAAé"), "x is not valid base64"),
    (_record(base64=7), "x is not valid base64"),
    (artifact.write([1.0, np.nan]), "x is not all finite"),
    (artifact.write([np.inf]), "x is not all finite"),
])
def test_read_checks_the_record_before_building_the_array(record, message):
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        artifact.read(record, "x")


def _replace(text: str, at: int, chars: str) -> str:
    return text[:at] + chars + text[at + len(chars):]


@pytest.mark.parametrize("edit", [
    lambda t: t,
    lambda t: _replace(t, 10, "*"),
    lambda t: _replace(t, 7, "="),
    lambda t: _replace(t, 6, "=="),
    lambda t: _replace(t, 16, "\n"),
    lambda t: _replace(t, 20, "é"),
    lambda t: _replace(t, len(t) - 1, "A"),
    lambda t: _replace(t, len(t) - 2, "=="),
    lambda t: _replace(t, len(t) - 3, "="),
    lambda t: t[4:],
    lambda t: t + "AAAA",
])
def test_chunked_read_reports_what_a_whole_decode_does(edit, monkeypatch):
    """Decoded 8 characters at a time, a payload gives the array, or the
    error or decoded length that decoding it whole gives, wherever the edit
    falls against the chunks."""
    monkeypatch.setattr(artifact, "_CHUNK", 8)
    values = np.arange(7.0) / 3.0          # 56 bytes: one '=' of padding
    record = artifact.write(values)
    record["base64"] = edit(record["base64"])
    try:
        raw = base64.b64decode(record["base64"], validate=True)
    except ValueError as exc:
        want = f"x is not valid base64: {exc}"
    else:
        if len(raw) == values.nbytes:
            assert artifact.read(record, "x").tobytes() == raw
            return
        want = f"x holds {len(raw)} bytes, shape [7] needs 56"
    with pytest.raises(ValueError) as info:
        artifact.read(record, "x")
    assert str(info.value) == want


def test_read_holds_the_array_and_one_chunk():
    """Above the record's text, a read peaks at the array plus one chunk:
    the chunk's text slice, its ASCII bytes and its decoded bytes take
    under three chunk lengths, and the bound allows four.  Decoding the
    whole payload and copying it took twice the array and more."""
    values = np.random.default_rng(0).normal(size=1 << 19)   # 4 MiB
    tracemalloc.start()
    try:
        record = artifact.write(values)
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        back = artifact.read(record, "x")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back.tobytes() == values.tobytes()
    assert peak - before <= values.nbytes + 4 * artifact._CHUNK


def test_document_keys_keep_their_order():
    doc = {"b": 1, "a": [artifact.write([1.0])], "c": None}
    text = artifact.dumps(doc)
    assert text.startswith('{"b":1,"a":[{"dtype":"<f8","shape":[1],')
    assert artifact.loads(text.replace('"b":1', '"format":"x"'), "x")
    for foreign in ('[]', '{"format":"y"}'):
        with pytest.raises(ValueError, match="^not a x document$"):
            artifact.loads(foreign, "x")


@pytest.mark.parametrize("value, least, want", [
    (0, 0, True), (3, 3, True), (np.int64(2), 1, True),
    (2, 3, False), (-1, 0, False), (np.int64(-1), 0, False),
    (True, 0, False), (False, 0, False), (np.bool_(True), 0, False),
    (1.0, 0, False), (np.float64(2.0), 1, False), ("1", 0, False),
    (None, 0, False),
])
def test_is_count_takes_only_integers_of_at_least_least(value, least, want):
    assert artifact.is_count(value, least) == want


def test_checked_names_the_record_in_both_message_forms():
    def build(rec, scale):
        return rec["x"] * scale

    assert artifact.checked("record 3", build, {"x": 2}, 5) == 10
    with pytest.raises(ValueError, match="^record 3 has no 'x' key$"):
        artifact.checked("record 3", build, {}, 5)
    for rec, scale, reason in [({"x": 2}, None, "unsupported operand"),
                               ({"x": 1e308}, 10 ** 400, "int too large")]:
        with pytest.raises(ValueError, match=f"^record 3: {reason}"):
            artifact.checked("record 3", build, rec, scale)
    with pytest.raises(ValueError, match="^record 3: not a x document$"):
        artifact.checked("record 3", artifact.loads, "{}", "x")


# ---------------------------------------------------------- checkpoints

def test_v1_fixture_loads_to_the_recorded_scores(tmp_path):
    """The version 1 fixture loads, scores the recorded bits, and re-saves
    as version 2, which loads to the same bits and the same source
    digest."""
    doc = json.loads(V1.read_text())
    assert doc["version"] == 1
    assert [rec["origin"] for rec in doc["branches"]] == [
        "base", "transferred", "grown", "base", "transferred"]
    net = load_checkpoint(V1)
    assert _scores_digest(net) == SCORES["network_scores_sha256"]
    save_checkpoint(net, tmp_path / "v2.json")
    doc = json.loads((tmp_path / "v2.json").read_text())
    assert doc["version"] == 2
    assert not any("activation" in rec for rec in doc["branches"])
    again = load_checkpoint(tmp_path / "v2.json")
    assert _scores_digest(again) == SCORES["network_scores_sha256"]
    mlps = [br.mlp for br in net.branches]
    assert source_digest([br.mlp for br in again.branches]) == \
        source_digest(mlps)


def test_v2_save_load_save_is_byte_identical(tmp_path):
    for net in (load_checkpoint(V1), _shared(load_checkpoint(V1))):
        save_checkpoint(net, tmp_path / "a.json")
        save_checkpoint(load_checkpoint(tmp_path / "a.json"),
                        tmp_path / "b.json")
        assert ((tmp_path / "a.json").read_bytes()
                == (tmp_path / "b.json").read_bytes())


def test_branch_outputs_are_bit_identical_after_a_round_trip():
    net = _shared(load_checkpoint(V1))
    loaded = network_from_json(network_to_json(net))
    data = _seeded_input()
    for (a, ya), (b, yb) in zip(branch_outputs(net.branches, data),
                                branch_outputs(loaded.branches, data),
                                strict=True):
        assert ya.tobytes() == yb.tobytes()
        assert a.mask == b.mask and a.mask_frozen == b.mask_frozen
        for sa, sb in zip(a.election_stats, b.election_stats):
            assert sa.tobytes() == sb.tobytes()
    assert _scores_digest(loaded) == SCORES["network_scores_sha256"]


def test_shared_layers_are_stored_once_and_shared_on_load():
    net = _shared(load_checkpoint(V1))
    doc = json.loads(network_to_json(net))
    # 2 base branches of 5 layers and 3 own first layers
    assert len(doc["layers"]) == 13
    assert doc["branches"][1]["layers"][1:] == doc["branches"][0]["layers"][1:]
    loaded = network_from_json(network_to_json(net))
    for k, s in SOURCES.items():
        own, source = loaded.branches[k].mlp, loaded.branches[s].mlp
        assert own.output_layer is source.output_layer
        assert all(a is b for a, b in zip(own.hidden_layers[1:],
                                          source.hidden_layers[1:]))
        assert own.hidden_layers[0] is not source.hidden_layers[0]
    # loaded layers are writable, like trained ones
    loaded.branches[0].mlp.hidden_layers[1].weights[0, 0] += 1.0
    assert loaded.branches[1].mlp.hidden_layers[1].weights[0, 0] == \
        loaded.branches[0].mlp.hidden_layers[1].weights[0, 0]


def test_v2_is_smaller_than_v1_for_shared_layers():
    v1_bytes = V1.stat().st_size
    v2 = network_to_json(_shared(load_checkpoint(V1)))
    assert len(v2) < v1_bytes
    doc = json.loads(v2)
    payload = base64.b64decode(doc["layers"][0]["weights"]["base64"])
    assert len(payload) == 9 * 9 * 8

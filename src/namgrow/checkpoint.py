"""Versioned JSON checkpoints for networks.

A version 2 checkpoint is an `artifact` document.  It holds a table of the
network's distinct layers, in order of first use, and each branch lists
the indices of its hidden layers and then its output layer.  A kept or
transferred branch shares its source's deeper layer objects, so those are
stored once, and loading gives every branch that lists a layer the same
object.  Arrays are stored as their float64 bytes, so a save -> load ->
save cycle is byte-identical and lossless.

Version 1 checkpoints, which hold each branch's layers inline as float
lists and an `"activation": "relu"` field, still load: their layers become
a table of the same kind and pass the same checks.  Only version 2 is
written.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import artifact
from .data_io import InputRange
from .nam_model import Branch, ClassMask, NamNetwork
from .nn_core import BranchMlp, DenseLayer

FORMAT_NAME = "nam-checkpoint"
FORMAT_VERSION = 2


def _branch_record(branch: Branch, layer_index) -> dict:
    mlp = branch.mlp
    rec = {
        "input_range": list(branch.input_range.as_tuple()),
        "branch_class": branch.branch_class,
        "target_class": branch.target_class,
        "origin": branch.origin,
        "layers": [layer_index(l) for l in (*mlp.hidden_layers,
                                            mlp.output_layer)],
        "mask": None,
        "election_stats": None,
    }
    if branch.mask is not None:
        rec["mask"] = {
            "a": float(branch.mask.a),
            "b": float(branch.mask.b),
            "thd": float(branch.mask.thd),
            "v_span": float(branch.mask.v_span),
            "frozen": bool(branch.mask_frozen),
        }
    if branch.election_stats is not None:
        mean, std = branch.election_stats
        rec["election_stats"] = {"mean": artifact.write(mean),
                                 "std": artifact.write(std)}
    return rec


def network_to_json(net: NamNetwork) -> str:
    table = []
    index = {}

    def layer_index(layer: DenseLayer) -> int:
        if id(layer) not in index:
            index[id(layer)] = len(table)
            table.append({"weights": artifact.write(layer.weights),
                          "bias": None if layer.bias is None
                          else artifact.write(layer.bias)})
        return index[id(layer)]

    branches = [_branch_record(br, layer_index) for br in net.branches]
    return artifact.dumps({
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "n_classes": net.n_classes,
        "input_shape": list(net.input_shape),
        "mode": net.mode,
        "tag": net.tag,
        "layers": table,
        "branches": branches,
    })


def _table_layer(rec: dict) -> DenseLayer:
    bias = rec["bias"]
    return DenseLayer(artifact.read(rec["weights"], "weights"),
                      None if bias is None else artifact.read(bias, "bias"))


def _v1_parts(rec: dict, table: list[DenseLayer]):
    """(layer indices, election stats) of a version 1 branch record, whose
    inline layers are appended to `table`."""
    if rec["activation"] != "relu":
        raise ValueError(f"activation {rec['activation']!r} is not 'relu'")
    start = len(table)
    table.extend(DenseLayer(np.array(l["weights"], dtype=np.float64),
                            np.array(l["bias"], dtype=np.float64))
                 for l in rec["hidden_layers"])
    table.append(DenseLayer(np.array(rec["output_weights"],
                                     dtype=np.float64), None))
    stats = rec["election_stats"]
    return (list(range(start, len(table))),
            None if stats is None else (stats["mean"], stats["std"]))


def _v2_parts(rec: dict, table: list[DenseLayer]):
    """(layer indices, election stats) of a version 2 branch record."""
    stats = rec["election_stats"]
    if stats is not None:
        stats = tuple(artifact.read(stats[name], f"election_stats {name}")
                      for name in ("mean", "std"))
    return rec["layers"], stats


def _mlp(indices, table: list[DenseLayer]) -> BranchMlp:
    """The branch MLP whose hidden layers and then output layer are the
    table's layers at `indices`."""
    if not isinstance(indices, list) or not indices:
        raise ValueError(f"layers {indices!r} is not a non-empty list")
    for j, i in enumerate(indices):
        if not artifact.is_count(i, 0):
            raise ValueError(f"layers[{j}] {i!r} is not a layer index")
        if i >= len(table):
            raise ValueError(f"layers[{j}] {i} is past the table's "
                             f"{len(table)} layers")
    *hidden, output = (table[i] for i in indices)
    return BranchMlp(hidden, output)


def _branch_from_record(rec: dict, table: list[DenseLayer], parts
                        ) -> Branch:
    indices, stats = parts(rec, table)
    mlp = _mlp(indices, table)
    mask = None
    frozen = False
    if rec["mask"] is not None:
        m = rec["mask"]
        mask = ClassMask(m["a"], m["b"], m["thd"], m["v_span"])
        frozen = bool(m["frozen"])
    return Branch(
        mlp,
        InputRange(*rec["input_range"]),
        rec["branch_class"],
        rec["target_class"],
        mask,
        rec["origin"],
        frozen,
        stats,
    )


def network_from_json(text: str) -> NamNetwork:
    """Parse and validate a checkpoint; any malformed record is a
    ValueError that names the branch or table layer and the field at
    fault.  A document that lacks a network field raises its KeyError, and
    one of the wrong type its TypeError."""
    doc = artifact.loads(text, FORMAT_NAME)
    version = doc.get("version")
    if type(version) is not int or version not in (1, FORMAT_VERSION):
        raise ValueError(f"unsupported checkpoint version {version!r}")
    if version == 1:
        table, parts = [], _v1_parts
    else:
        table = [artifact.checked(f"checkpoint layer {i}", _table_layer, rec)
                 for i, rec in enumerate(doc["layers"])]
        parts = _v2_parts
    branches = [artifact.checked(f"checkpoint branch {k}", _branch_from_record,
                                 rec, table, parts)
                for k, rec in enumerate(doc["branches"])]
    return NamNetwork(
        doc["n_classes"],
        doc["input_shape"],
        doc["mode"],
        doc["tag"],
        branches,
    )


def save_checkpoint(net: NamNetwork, path: str | Path) -> None:
    Path(path).write_text(network_to_json(net))


def load_checkpoint(path: str | Path) -> NamNetwork:
    """Read and check a checkpoint; a malformed one is a ValueError whose
    message ends by naming the file."""
    return artifact.load(path, "checkpoint", network_from_json)

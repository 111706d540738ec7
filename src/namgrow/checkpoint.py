"""Versioned JSON checkpoints for networks.

Floats are serialized via Python's shortest round-trip repr, so a
save -> load -> save cycle is byte-identical and lossless at 64-bit
precision.  Key order is fixed by construction.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .data_io import InputRange
from .nam_model import Branch, ClassMask, NamNetwork
from .nn_core import BranchMlp, DenseLayer

FORMAT_NAME = "nam-checkpoint"
FORMAT_VERSION = 1


def _array(a: np.ndarray):
    return np.asarray(a, dtype=np.float64).tolist()


def _branch_record(branch: Branch) -> dict:
    rec = {
        "input_range": list(branch.input_range.as_tuple()),
        "branch_class": branch.branch_class,
        "target_class": branch.target_class,
        "origin": branch.origin,
        "activation": "relu",
        "hidden_layers": [
            {"weights": _array(l.weights), "bias": _array(l.bias)}
            for l in branch.mlp.hidden_layers
        ],
        "output_weights": _array(branch.mlp.output_layer.weights),
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
        rec["election_stats"] = {"mean": _array(mean), "std": _array(std)}
    return rec


def network_to_json(net: NamNetwork) -> str:
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "n_classes": net.n_classes,
        "input_shape": list(net.input_shape),
        "mode": net.mode,
        "tag": net.tag,
        "branches": [_branch_record(br) for br in net.branches],
    }
    return json.dumps(doc, separators=(",", ":"), ensure_ascii=True)


def _branch_from_record(rec: dict) -> Branch:
    if rec["activation"] != "relu":
        raise ValueError(f"activation {rec['activation']!r} is not 'relu'")
    hidden = [
        DenseLayer(np.array(l["weights"], dtype=np.float64),
                   np.array(l["bias"], dtype=np.float64))
        for l in rec["hidden_layers"]
    ]
    mlp = BranchMlp(
        hidden,
        DenseLayer(np.array(rec["output_weights"], dtype=np.float64), None),
    )
    mask = None
    frozen = False
    if rec["mask"] is not None:
        m = rec["mask"]
        mask = ClassMask(m["a"], m["b"], m["thd"], m["v_span"])
        frozen = bool(m["frozen"])
    stats = rec["election_stats"]
    return Branch(
        mlp,
        InputRange(*rec["input_range"]),
        rec["branch_class"],
        rec["target_class"],
        mask,
        rec["origin"],
        frozen,
        None if stats is None else (stats["mean"], stats["std"]),
    )


def network_from_json(text: str) -> NamNetwork:
    """Parse and validate a checkpoint; any malformed record is a
    ValueError that names the branch and the field at fault."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise ValueError(f"not a {FORMAT_NAME} document")
    if doc.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint version {doc.get('version')!r}")
    try:
        return _network_from_doc(doc)
    except KeyError as exc:
        raise ValueError(f"checkpoint has no {exc} key") from exc
    except TypeError as exc:
        raise ValueError(f"malformed checkpoint: {exc}") from exc


def _network_from_doc(doc: dict) -> NamNetwork:
    branches = []
    for k, rec in enumerate(doc["branches"]):
        try:
            branches.append(_branch_from_record(rec))
        except KeyError as exc:
            raise ValueError(f"checkpoint branch {k} has no {exc} key"
                             ) from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"checkpoint branch {k}: {exc}") from exc
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
    try:
        return network_from_json(Path(path).read_text())
    except ValueError as exc:
        raise ValueError(f"{exc} (checkpoint {path})") from exc

"""On-disk persistence for block stores.

Each block is written as one ``.npz`` file (block-<bid>.npz) plus a
JSON catalog describing the schema, dictionaries, block descriptions and
row counts — the moral equivalent of a directory of Parquet files plus
a metastore entry.  Every file, ``.npz`` or JSON, is written to a temp
name and renamed into place, so no reader ever sees a torn one.
Loading reconstructs a fully functional
:class:`~repro.storage.blocks.BlockStore` (re-encoding chunks and
rebuilding min-max indexes from the raw data).
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Dict, Iterator, List, Mapping, Optional, Union

import numpy as np

from .blocks import Block, BlockStore, build_blocks
from .schema import Column, ColumnKind, Dictionary, Schema
from .table import Table, group_rows

__all__ = [
    "META_FILE",
    "SIGNATURE_KEY",
    "TREE_FILE",
    "layout_meta_path",
    "layout_tree_path",
    "load_layout_meta",
    "load_store",
    "load_table",
    "save_layout_meta",
    "save_store",
    "save_table",
    "write_json_atomic",
]

_CATALOG_NAME = "catalog.json"
_TABLE_NAME = "table.npz"

#: Canonical on-disk names of a layout directory's artifacts.  Both
#: the CLI and :class:`repro.db.Database` persistence go through these
#: (and the helpers below) so the two can never drift on what a saved
#: layout looks like: ``catalog.json`` + block npzs (the store),
#: ``TREE_FILE`` (the qd-tree, when the layout has one) and
#: ``META_FILE`` (strategy, generation and build workload).
TREE_FILE = "qdtree.json"
META_FILE = "layout-meta.json"

#: Key under which ``META_FILE`` carries the build-time workload
#: signature (:class:`repro.adapt.signature.WorkloadSignature` JSON).
#: Persisting it is what lets a reopened database's drift detector
#: know what mix the layout was built for.
SIGNATURE_KEY = "workload_signature"


@contextmanager
def _replacing(path: Path, mode: str) -> Iterator[IO]:
    """Open a temp file beside ``path`` for writing; a clean exit
    renames it over ``path`` (:func:`os.replace`), anything else
    removes it — so a crash mid-write leaves the old file or the new
    one under ``path``, never a torn one."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json_atomic(
    path: Union[str, Path], document: object, indent: Optional[int] = None
) -> None:
    """Write a JSON artifact atomically (see :func:`_replacing`)."""
    with _replacing(Path(path), "w") as f:
        json.dump(document, f, indent=indent)


def _savez_atomic(path: Path, columns: Mapping[str, np.ndarray]) -> None:
    """``np.savez_compressed`` to ``path`` atomically.  Handed the open
    temp file, not its name: numpy appends ``.npz`` to a bare path."""
    with _replacing(path, "wb") as f:
        np.savez_compressed(f, **columns)


def layout_tree_path(path: Union[str, Path]) -> Path:
    """Where a layout directory keeps its serialized qd-tree."""
    return Path(path) / TREE_FILE


def layout_meta_path(path: Union[str, Path]) -> Path:
    """Where a layout directory keeps its metadata document."""
    return Path(path) / META_FILE


def save_layout_meta(path: Union[str, Path], meta: Dict[str, object]) -> None:
    """Write a layout directory's metadata document."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    write_json_atomic(layout_meta_path(path), meta, indent=2)


def load_layout_meta(path: Union[str, Path]) -> Dict[str, object]:
    """Read a layout directory's metadata document."""
    meta_path = layout_meta_path(path)
    if not meta_path.exists():
        raise ValueError(f"no layout metadata ({META_FILE}) in {path}")
    return json.loads(meta_path.read_text())


def _schema_to_json(schema: Schema) -> List[Dict[str, object]]:
    out: List[Dict[str, object]] = []
    for col in schema:
        entry: Dict[str, object] = {"name": col.name, "kind": col.kind.value}
        if col.domain is not None:
            entry["domain"] = list(col.domain)
        if col.is_categorical:
            assert col.dictionary is not None
            entry["dictionary"] = [repr(v) for v in col.dictionary.values()]
            entry["dictionary_raw"] = [
                v if isinstance(v, (str, int, float, bool)) else repr(v)
                for v in col.dictionary.values()
            ]
        out.append(entry)
    return out


def _schema_from_json(data: List[Dict[str, object]]) -> Schema:
    columns = []
    for entry in data:
        kind = ColumnKind(entry["kind"])
        domain = tuple(entry["domain"]) if "domain" in entry else None  # type: ignore[arg-type]
        dictionary = None
        if kind is ColumnKind.CATEGORICAL:
            dictionary = Dictionary(entry.get("dictionary_raw", []))
        columns.append(
            Column(str(entry["name"]), kind, domain=domain, dictionary=dictionary)
        )
    return Schema(columns)


def save_table(table: Table, path: Union[str, Path]) -> None:
    """Persist a single table (schema + one npz of all columns)."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    write_json_atomic(
        path / _CATALOG_NAME, {"schema": _schema_to_json(table.schema)}, indent=2
    )
    _savez_atomic(path / _TABLE_NAME, table.columns())


def load_table(path: Union[str, Path]) -> Table:
    """Inverse of :func:`save_table`."""
    path = Path(path)
    with open(path / _CATALOG_NAME) as f:
        meta = json.load(f)
    schema = _schema_from_json(meta["schema"])
    with np.load(path / _TABLE_NAME) as data:
        cols = {name: data[name] for name in schema.column_names}
    return Table(schema, cols)


def save_store(store: BlockStore, path: Union[str, Path]) -> None:
    """Persist a block store as one npz per block + a JSON catalog."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    blocks_meta = []
    for block in store:
        fname = f"block-{block.block_id}.npz"
        _savez_atomic(path / fname, block.to_table().columns())
        blocks_meta.append(
            {
                "block_id": block.block_id,
                "file": fname,
                "num_rows": block.num_rows,
                "description": block.description,
            }
        )
    catalog = {
        "schema": _schema_to_json(store.schema),
        "logical_rows": store.logical_rows,
        "blocks": blocks_meta,
    }
    write_json_atomic(path / _CATALOG_NAME, catalog, indent=2)


def load_store(
    path: Union[str, Path], with_dictionaries: bool = True
) -> BlockStore:
    """Inverse of :func:`save_store`."""
    path = Path(path)
    with open(path / _CATALOG_NAME) as f:
        catalog = json.load(f)
    schema = _schema_from_json(catalog["schema"])
    metas, parts = catalog["blocks"], []
    for meta in metas:
        with np.load(path / str(meta["file"])) as data:
            parts.append(Table(schema, {name: data[name] for name in schema.column_names}))
    # Every block is rebuilt in one leaf-ordered pass over the files'
    # rows; a block saved without rows has no group and is built alone.
    bids = np.repeat([int(meta["block_id"]) for meta in metas], [len(t) for t in parts])
    blocks = build_blocks(
        schema,
        lambda name: np.concatenate([t.column(name) for t in parts] or [np.empty(0)]),
        group_rows(bids),
        {int(meta["block_id"]): meta.get("description") for meta in metas},
        with_dictionaries,
    )
    blocks += [
        Block(int(meta["block_id"]), t, meta.get("description"), with_dictionaries)
        for meta, t in zip(metas, parts)
        if not len(t)
    ]
    return BlockStore(schema, blocks, logical_rows=int(catalog["logical_rows"]))

"""Persistence: save and load trained MetaSQL pipelines, crash-safely.

``save_pipeline`` writes every learned component — the base model's
lexicon/sketch statistics (and demonstration pool for LLM sims), the
multi-label classifier, the composition index and both ranking stages —
as JSON plus one ``weights.npz``.  ``load_pipeline`` restores a pipeline
that translates identically to the saved one, without retraining.

Durability contract:

- **Atomic save.** The checkpoint is staged in a sibling temp directory
  (every file fsynced) and swapped into place with ``os.rename``; a crash
  at any point mid-write leaves the previous checkpoint loadable.  The
  swap moves the previous checkpoint aside first; a crash between that
  rename and the promotion leaves it displaced, and the next save or
  load renames it back.  Stale staging litter from an interrupted save
  is removed on the next save.
- **Verified load.** ``manifest.json`` carries a format version plus
  per-file SHA-256 checksums and sizes; ``load_pipeline`` verifies them
  before touching any component, so truncation, bit-flips and missing
  files surface as a typed :class:`CheckpointError`
  (:class:`CheckpointCorrupt` / :class:`CheckpointVersionError`) instead
  of a partially restored pipeline.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pathlib
import shutil
from collections import Counter, defaultdict

import numpy as np

from repro.core.pipeline import MetaSQL, MetaSQLConfig
from repro.core.resilience import fire
from repro.data.dataset import Example
from repro.models.llm import FewShotLLM
from repro.models.lexicon import Lexicon
from repro.models.registry import MODEL_PRESETS
from repro.models.sketch import Sketch, SketchModel
from repro.nn.layers import MLP, Linear
from repro.nn.text import TextFeaturizer
from repro.sqlkit.errors import (
    CheckpointCorrupt,
    CheckpointError,
    CheckpointVersionError,
)
from repro.sqlkit.parser import parse_sql

#: v1 wrote bare files with no checksums; v2 adds the ``files`` manifest
#: section (sha256 + byte size per file) and the atomic staging save.
FORMAT_VERSION = 2
SUPPORTED_VERSIONS: tuple[int, ...] = (FORMAT_VERSION,)

#: The component files every checkpoint must contain.
CHECKPOINT_FILES: tuple[str, ...] = (
    "model.json",
    "classifier.json",
    "composer.json",
    "weights.npz",
)


# ----------------------------------------------------------------------
# Sketch (de)serialisation.


def _sketch_to_json(sketch: Sketch) -> dict:
    return {
        "shape": sketch.shape,
        "n_tables": sketch.n_tables,
        "n_select": sketch.n_select,
        "select_aggs": list(sketch.select_aggs),
        "count_star": sketch.count_star,
        "distinct": sketch.distinct,
        "n_predicates": sketch.n_predicates,
        "predicate_kinds": list(sketch.predicate_kinds),
        "has_or": sketch.has_or,
        "has_group": sketch.has_group,
        "has_having": sketch.has_having,
        "order": sketch.order,
        "limit": sketch.limit,
        "order_on_agg": sketch.order_on_agg,
        "has_arith": sketch.has_arith,
    }


def _sketch_from_json(data: dict) -> Sketch:
    return Sketch(
        shape=data["shape"],
        n_tables=data["n_tables"],
        n_select=data["n_select"],
        select_aggs=tuple(data["select_aggs"]),
        count_star=data["count_star"],
        distinct=data["distinct"],
        n_predicates=data["n_predicates"],
        predicate_kinds=tuple(data["predicate_kinds"]),
        has_or=data["has_or"],
        has_group=data["has_group"],
        has_having=data["has_having"],
        order=data["order"],
        limit=data["limit"],
        order_on_agg=data["order_on_agg"],
        has_arith=data.get("has_arith", False),
    )


# ----------------------------------------------------------------------
# Model components.


def _lexicon_to_json(lexicon: Lexicon) -> dict:
    return {
        "smoothing": lexicon.smoothing,
        "pair_counts": {
            element: dict(counter)
            for element, counter in lexicon._pair_counts.items()
        },
        "element_counts": dict(lexicon._element_counts),
        "token_counts": dict(lexicon._token_counts),
        "total": lexicon._total_examples,
    }


def _lexicon_from_json(data: dict) -> Lexicon:
    lexicon = Lexicon(smoothing=data["smoothing"])
    lexicon._pair_counts = defaultdict(
        Counter,
        {e: Counter(c) for e, c in data["pair_counts"].items()},
    )
    lexicon._element_counts = Counter(data["element_counts"])
    lexicon._token_counts = Counter(data["token_counts"])
    lexicon._total_examples = data["total"]
    return lexicon


def _sketch_model_to_json(model: SketchModel) -> dict:
    signatures = []
    facet_records = []
    for sketch, count in model._signatures.items():
        signatures.append({"sketch": _sketch_to_json(sketch), "count": count})
    for (facet, value), counter in model._facet_token_counts.items():
        facet_records.append(
            {
                "facet": facet,
                "value": _json_value(value),
                "tokens": dict(counter),
                "total": model._facet_token_totals[(facet, value)],
                "count": model._facet_value_counts[facet][value],
            }
        )
    return {
        "smoothing": model.smoothing,
        "signatures": signatures,
        "facets": facet_records,
        "vocab": sorted(model._vocab),
        "total": model._total,
    }


def _json_value(value):
    if isinstance(value, tuple):
        return {"__tuple__": list(value)}
    return value


def _value_from_json(value):
    if isinstance(value, dict) and "__tuple__" in value:
        return tuple(value["__tuple__"])
    return value


def _sketch_model_from_json(data: dict) -> SketchModel:
    model = SketchModel(smoothing=data["smoothing"])
    for record in data["signatures"]:
        model._signatures[_sketch_from_json(record["sketch"])] = record["count"]
    for record in data["facets"]:
        key = (record["facet"], _value_from_json(record["value"]))
        model._facet_token_counts[key] = Counter(record["tokens"])
        model._facet_token_totals[key] = record["total"]
        model._facet_value_counts[record["facet"]][key[1]] = record["count"]
    model._vocab = set(data["vocab"])
    model._total = data["total"]
    return model


# ----------------------------------------------------------------------
# Trained layers.


def _named_layers(pipeline: MetaSQL) -> dict[str, Linear]:
    """Every trained layer of *pipeline* under its checkpoint key prefix.

    The two-layer MLPs of the classifier and the stage-1 towers name
    their layers ``hidden`` and ``output``; the stage-2 heads number theirs.
    """
    named = {}
    for prefix, net in (
        ("classifier", pipeline.classifier._net),
        ("stage1.query", pipeline.stage1._query_tower),
        ("stage1.sql", pipeline.stage1._sql_tower),
    ):
        named.update(
            zip((f"{prefix}.hidden", f"{prefix}.output"), net.layers)
        )
    for prefix, head in (
        ("stage2.coarse", pipeline.stage2._coarse_head),
        ("stage2.fine", pipeline.stage2._fine_head),
    ):
        for index, layer in enumerate(head.layers):
            named[f"{prefix}.{index}"] = layer
    return named


# ----------------------------------------------------------------------
# Durable file primitives.


def _write_file(path: pathlib.Path, data: bytes) -> None:
    """Write *data* and force it to stable storage before returning."""
    with open(path, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())


def _fsync_dir(path: pathlib.Path) -> None:
    """fsync a directory so renames inside it survive a power loss."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # platform without directory fds
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _sha256(path: pathlib.Path) -> tuple[str, int]:
    digest = hashlib.sha256()
    size = 0
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
            size += len(chunk)
    return digest.hexdigest(), size


def _staging_dir(root: pathlib.Path) -> pathlib.Path:
    return root.parent / f".{root.name}.staging"


def _displaced_dir(root: pathlib.Path) -> pathlib.Path:
    return root.parent / f".{root.name}.old"


def _restore_displaced(root: pathlib.Path) -> None:
    """Undo a swap cut between its two renames.

    :func:`_swap_into_place` moves the previous checkpoint aside before
    it promotes the staged one; a crash in between leaves no *root*, so
    the displaced checkpoint is renamed back.
    """
    displaced = _displaced_dir(root)
    if not root.exists() and displaced.is_dir():
        os.rename(displaced, root)
        _fsync_dir(root.parent)


# ----------------------------------------------------------------------
# Public API.


def save_pipeline(pipeline: MetaSQL, directory: str | pathlib.Path) -> None:
    """Persist every learned component of *pipeline* under *directory*.

    The write is atomic with respect to crashes: the checkpoint is
    staged in a sibling temp directory and renamed into place, so an
    interrupted save (crash, ``kill -9``, fault) leaves any previous
    checkpoint at *directory* complete and loadable.
    """
    root = pathlib.Path(directory)
    root.parent.mkdir(parents=True, exist_ok=True)
    _restore_displaced(root)
    staging = _staging_dir(root)
    if staging.exists():  # litter from an interrupted save
        shutil.rmtree(staging)
    staging.mkdir()
    try:
        _write_checkpoint(pipeline, staging)
        fire("persist.finalize")
        _swap_into_place(staging, root)
    except BaseException:  # repolint: allow[broad-except] — cleanup then re-raise
        shutil.rmtree(staging, ignore_errors=True)
        raise


def _write_checkpoint(pipeline: MetaSQL, root: pathlib.Path) -> None:
    """Write every checkpoint file (fsynced) plus the manifest into *root*."""
    model = pipeline.model
    weights: dict[str, np.ndarray] = {}

    manifest = {
        "version": FORMAT_VERSION,
        "model_name": model.name,
        "model_is_llm": isinstance(model, FewShotLLM),
        "metadata_trained": model.metadata_trained,
    }

    # Base model statistics.
    model_state = {
        "lexicon": _lexicon_to_json(model.lexicon),
        "sketch_model": _sketch_model_to_json(model.sketch_model),
    }
    if isinstance(model, FewShotLLM):
        model_state["pool"] = [
            {"question": e.question, "query": e.sql_text, "db_id": e.db_id}
            for e in model._pool
        ]
        weights["llm.featurizer.idf"] = model._featurizer._idf
    _write_file(root / "model.json", json.dumps(model_state).encode())

    # The mid-write failpoint: at this point some component files are on
    # disk but neither the weights nor the manifest are — the window an
    # interrupted save must not corrupt an existing checkpoint through.
    fire("persist.save")

    # Classifier.
    classifier = pipeline.classifier
    classifier_state = {
        "labels": [_json_value(label) for label in classifier._labels],
        "buckets": classifier.config.buckets,
    }
    weights["classifier.featurizer.idf"] = classifier._featurizer._idf
    _write_file(
        root / "classifier.json", json.dumps(classifier_state).encode()
    )

    # Composer.
    composer_state = [
        {"tags": sorted(tags), "rating": rating, "count": count}
        for (tags, rating), count in pipeline.composer._combos.items()
    ]
    _write_file(root / "composer.json", json.dumps(composer_state).encode())

    # Stage 1.
    weights["stage1.featurizer.idf"] = pipeline.stage1._featurizer._idf

    # Every trained layer: classifier, stage-1 towers, stage-2 heads.
    for name, layer in _named_layers(pipeline).items():
        weights[f"{name}.weight"] = layer.weight.data
        weights[f"{name}.bias"] = layer.bias.data

    buffer = io.BytesIO()
    np.savez(buffer, **weights)
    _write_file(root / "weights.npz", buffer.getvalue())

    # The manifest goes last, sealing the files it checksums.
    manifest["files"] = {
        name: dict(zip(("sha256", "bytes"), _sha256(root / name)))
        for name in CHECKPOINT_FILES
    }
    _write_file(root / "manifest.json", json.dumps(manifest).encode())
    _fsync_dir(root)


def _swap_into_place(staging: pathlib.Path, root: pathlib.Path) -> None:
    """Atomically promote the complete *staging* checkpoint to *root*."""
    displaced = _displaced_dir(root)
    if displaced.exists():
        shutil.rmtree(displaced)
    if root.exists():
        os.rename(root, displaced)
    os.rename(staging, root)
    _fsync_dir(root.parent)
    shutil.rmtree(displaced, ignore_errors=True)


def verify_checkpoint(directory: str | pathlib.Path) -> dict:
    """Validate a checkpoint's manifest and checksums; return the manifest.

    Raises :class:`CheckpointCorrupt` on a missing/truncated/bit-flipped
    file (including the manifest itself) and
    :class:`CheckpointVersionError` on a format-version mismatch.
    """
    root = pathlib.Path(directory)
    manifest_path = root / "manifest.json"
    if not manifest_path.is_file():
        raise CheckpointCorrupt(
            f"no checkpoint manifest at {manifest_path}", path=root
        )
    try:
        manifest = json.loads(manifest_path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointCorrupt(
            f"checkpoint manifest at {manifest_path} is unreadable: {exc}",
            path=root,
        ) from exc
    version = manifest.get("version")
    if version not in SUPPORTED_VERSIONS:
        raise CheckpointVersionError(version, SUPPORTED_VERSIONS, path=root)
    files = manifest.get("files")
    if not isinstance(files, dict) or not files:
        raise CheckpointCorrupt(
            f"checkpoint manifest at {manifest_path} lists no files",
            path=root,
        )
    for name, expected in files.items():
        path = root / name
        if not path.is_file():
            raise CheckpointCorrupt(
                f"checkpoint file {name!r} is missing from {root}", path=root
            )
        digest, size = _sha256(path)
        if size != expected.get("bytes"):
            raise CheckpointCorrupt(
                f"checkpoint file {name!r} is truncated or padded "
                f"({size} bytes, manifest says {expected.get('bytes')})",
                path=root,
            )
        if digest != expected.get("sha256"):
            raise CheckpointCorrupt(
                f"checkpoint file {name!r} fails its checksum "
                f"(bit-flip or partial write)",
                path=root,
            )
    return manifest


def load_pipeline(
    directory: str | pathlib.Path, config: MetaSQLConfig | None = None
) -> MetaSQL:
    """Restore a pipeline saved by :func:`save_pipeline`.

    The checkpoint is verified (format version, per-file checksums)
    before any component is restored, and any failure while restoring is
    wrapped, so the only outcomes are a fully restored pipeline or a
    typed :class:`CheckpointError` — never a partial load.
    """
    root = pathlib.Path(directory)
    _restore_displaced(root)
    manifest = verify_checkpoint(root)
    try:
        return _restore_pipeline(root, manifest, config)
    except CheckpointError:
        raise
    except Exception as exc:  # repolint: allow[broad-except] — typed-error boundary
        raise CheckpointCorrupt(
            f"checkpoint at {root} could not be restored: {exc!r}", path=root
        ) from exc


def _restore_pipeline(
    root: pathlib.Path, manifest: dict, config: MetaSQLConfig | None
) -> MetaSQL:
    # Eagerly materialise the arrays so the archive handle is closed
    # before any component restore runs (no file-handle leak).
    with np.load(root / "weights.npz") as archive:
        weights = {name: archive[name] for name in archive.files}

    model = MODEL_PRESETS[manifest["model_name"]]()
    model_state = json.loads((root / "model.json").read_text())
    model.lexicon = _lexicon_from_json(model_state["lexicon"])
    model.sketch_model = _sketch_model_from_json(model_state["sketch_model"])
    model.metadata_trained = manifest["metadata_trained"]
    model._fitted = True
    if isinstance(model, FewShotLLM):
        model._pool = [
            Example(
                question=record["question"],
                sql=parse_sql(record["query"]),
                db_id=record["db_id"],
            )
            for record in model_state["pool"]
        ]
        model._featurizer._idf = weights["llm.featurizer.idf"]
        model._pool_matrix = model._featurizer.transform_many(
            [e.question for e in model._pool]
        )
        model.metadata_trained = True

    pipeline = MetaSQL(model, config or MetaSQLConfig())

    # Classifier.
    classifier_state = json.loads((root / "classifier.json").read_text())
    classifier = pipeline.classifier
    classifier._labels = [
        _value_from_json(label) for label in classifier_state["labels"]
    ]
    classifier._label_index = {
        label: i for i, label in enumerate(classifier._labels)
    }
    classifier._featurizer = TextFeaturizer(
        buckets=classifier_state["buckets"]
    )
    classifier._featurizer._idf = weights["classifier.featurizer.idf"]
    rng = np.random.default_rng(0)
    classifier._net = MLP(
        [*weights["classifier.hidden.weight"].shape, len(classifier._labels)],
        rng,
    )

    # Composer.
    for record in json.loads((root / "composer.json").read_text()):
        key = (frozenset(record["tags"]), record["rating"])
        pipeline.composer._combos[key] = record["count"]
        pipeline.composer._tagsets[key[0]] += record["count"]

    # Stage 1.
    stage1 = pipeline.stage1
    stage1._featurizer._idf = weights["stage1.featurizer.idf"]
    tower_sizes = [
        *weights["stage1.query.hidden.weight"].shape,
        stage1.config.embed_dim,
    ]
    stage1._query_tower = MLP(tower_sizes, rng)
    stage1._sql_tower = MLP(tower_sizes, rng)

    # Every layer's trained weights (the stage-2 heads exist from birth).
    for name, layer in _named_layers(pipeline).items():
        layer.weight.data = weights[f"{name}.weight"]
        layer.bias.data = weights[f"{name}.bias"]
    pipeline.stage2._fitted = True

    pipeline._trained = True
    return pipeline

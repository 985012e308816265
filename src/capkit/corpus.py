"""Caption corpus ingestion: tokenization, loaders, vocabulary, and splits.

All structures returned here are immutable (or treated as such) after
construction, so they can be shared freely across worker threads.
"""

from __future__ import annotations

import json
import math
import re
import string
import struct
from collections import Counter
from dataclasses import dataclass
from random import Random

import numpy as np

from ._binio import atomic_write_bytes
from .errors import (
    DimensionMismatch,
    DuplicateAnnotationId,
    MalformedInput,
    SizeMismatch,
)

START_TOKEN = "<start>"
END_TOKEN = "<end>"
UNK_TOKEN = "<unk>"
START_ID, END_ID, UNK_ID = 0, 1, 2
RESERVED_TOKENS = (START_TOKEN, END_TOKEN, UNK_TOKEN)

# Delete every ASCII punctuation character except the hyphen, which is kept
# only between alphanumerics (so "well-known" survives but "- dash" loses it).
_PUNCT_TABLE = str.maketrans("", "", "".join(c for c in string.punctuation if c != "-"))
_LOOSE_HYPHEN = re.compile(r"(?<![0-9a-z])-|-(?![0-9a-z])")


def json_int(value, what: str) -> int:
    """``value``, an id or count read from JSON, if it is an integer.

    Booleans, floats (even integral ones) and strings raise MalformedInput.
    """
    if type(value) is not int:
        raise MalformedInput(f"{what} must be an integer, got {value!r}")
    return value


def tokenize(raw_text: str) -> list[str]:
    """Lowercase, delete ASCII punctuation (keeping intra-word hyphens), split.

    Deterministic, and idempotent on its own space-joined output. Empty
    input yields an empty list.
    """
    text = raw_text.lower().translate(_PUNCT_TABLE)
    text = _LOOSE_HYPHEN.sub("", text)
    return text.split()


@dataclass(frozen=True)
class CaptionRecord:
    """One image/caption pair with its tokenized text."""

    image_id: int
    raw_text: str
    tokens: tuple[str, ...]

    @classmethod
    def from_text(cls, image_id: int, raw_text: str) -> "CaptionRecord":
        return cls(int(image_id), raw_text, tuple(tokenize(raw_text)))


def load_captions(path) -> list[CaptionRecord]:
    """Read a captions JSON file: ``{"annotations": [{"id", "image_id", "caption"}, ...]}``.

    Raises MalformedInput for unreadable JSON, missing fields, or captions
    that tokenize to nothing; DuplicateAnnotationId for repeated annotation
    ids.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise MalformedInput(f"cannot read captions file {path}: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("annotations"), list):
        raise MalformedInput(f"{path}: expected an object with an 'annotations' list")
    records: list[CaptionRecord] = []
    seen: set[int] = set()
    for entry in doc["annotations"]:
        if not isinstance(entry, dict):
            raise MalformedInput(f"{path}: annotation entries must be objects")
        try:
            ann_id, image_id, caption = entry["id"], entry["image_id"], entry["caption"]
        except KeyError as exc:
            raise MalformedInput(f"{path}: annotation missing id/image_id/caption") from exc
        ann_id = json_int(ann_id, f"{path}: annotation id")
        image_id = json_int(image_id, f"{path}: annotation {ann_id} image_id")
        if not isinstance(caption, str):
            raise MalformedInput(f"{path}: annotation {ann_id} caption must be a string")
        if ann_id in seen:
            raise DuplicateAnnotationId(f"{path}: duplicate annotation id {ann_id}")
        seen.add(ann_id)
        record = CaptionRecord.from_text(image_id, caption)
        if not record.tokens:
            raise MalformedInput(f"{path}: annotation {ann_id} tokenizes to no tokens")
        records.append(record)
    return records


def captions_by_image(records) -> dict[int, list[tuple[str, ...]]]:
    """Group caption token sequences by image id, preserving file order."""
    grouped: dict[int, list[tuple[str, ...]]] = {}
    for rec in records:
        grouped.setdefault(rec.image_id, []).append(rec.tokens)
    return grouped


class FeatureStore:
    """Id-addressable dense float32 vectors sharing one dimension.

    Entry order is preserved, which makes save/load round-trips
    byte-identical.
    """

    def __init__(self, dim: int):
        if int(dim) <= 0:
            raise DimensionMismatch(f"feature dimension must be positive, got {dim}")
        self.dim = int(dim)
        self._entries: dict[int, np.ndarray] = {}

    def add(self, image_id: int, vector) -> None:
        vec = np.asarray(vector, dtype=np.float32)
        if vec.ndim != 1 or vec.shape[0] != self.dim:
            raise DimensionMismatch(
                f"vector for image {image_id} has shape {vec.shape}, expected ({self.dim},)"
            )
        if not np.all(np.isfinite(vec)):
            raise MalformedInput(f"vector for image {image_id} has non-finite components")
        key = int(image_id)
        if key in self._entries:
            raise MalformedInput(f"duplicate feature vector for image {image_id}")
        vec.flags.writeable = False
        self._entries[key] = vec

    def get(self, image_id: int) -> np.ndarray:
        return self._entries[int(image_id)]

    def ids(self) -> list[int]:
        return list(self._entries)

    def items(self):
        return self._entries.items()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, image_id: int) -> bool:
        return int(image_id) in self._entries

    def subset(self, image_ids) -> "FeatureStore":
        """New store holding only ``image_ids``, in the given order."""
        out = FeatureStore(self.dim)
        for image_id in image_ids:
            out.add(image_id, self.get(image_id))
        return out


_FVEC_MAGIC = b"FVEC"
_FVEC_VERSION = 1
_FVEC_HEADER = "<IIQ"  # version, dim, count


def save_features(store: FeatureStore, path) -> None:
    """Write a store in the FVEC binary format (see README); atomic."""
    payload = bytearray(_FVEC_MAGIC)
    payload += struct.pack(_FVEC_HEADER, _FVEC_VERSION, store.dim, len(store))
    for image_id, vec in store.items():
        payload += struct.pack("<Q", image_id)
        payload += vec.astype("<f4").tobytes()
    atomic_write_bytes(path, bytes(payload))


def load_features(path) -> FeatureStore:
    """Read an FVEC file; raises MalformedInput for any structural defect."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise MalformedInput(f"cannot read features file {path}: {exc}") from exc
    header_size = len(_FVEC_MAGIC) + struct.calcsize(_FVEC_HEADER)
    if len(data) < header_size:
        raise MalformedInput(f"{path}: shorter than the FVEC header")
    if data[: len(_FVEC_MAGIC)] != _FVEC_MAGIC:
        raise MalformedInput(f"{path}: bad magic bytes")
    version, dim, count = struct.unpack_from(_FVEC_HEADER, data, len(_FVEC_MAGIC))
    if version != _FVEC_VERSION:
        raise MalformedInput(f"{path}: unsupported FVEC version {version}")
    if dim == 0:
        raise MalformedInput(f"{path}: feature dimension 0")
    record_size = 8 + 4 * dim
    if len(data) != header_size + count * record_size:
        raise MalformedInput(f"{path}: payload size does not match declared count {count}")
    store = FeatureStore(dim)
    offset = header_size
    for _ in range(count):
        (image_id,) = struct.unpack_from("<Q", data, offset)
        vec = np.frombuffer(data, dtype="<f4", count=dim, offset=offset + 8)
        store.add(image_id, vec)
        offset += record_size
    return store


class Vocabulary:
    """Bijection between tokens and dense ids with fixed reserved tokens."""

    def __init__(self, word_tokens):
        self.id_of: dict[str, int] = {tok: i for i, tok in enumerate(RESERVED_TOKENS)}
        for tok in word_tokens:
            if tok in RESERVED_TOKENS:
                raise ValueError(f"token {tok!r} collides with a reserved token")
            if tok in self.id_of:
                raise ValueError(f"duplicate token {tok!r}")
            self.id_of[tok] = len(self.id_of)
        self.token_of: dict[int, str] = {i: t for t, i in self.id_of.items()}

    def __len__(self) -> int:
        return len(self.id_of)

    def __contains__(self, token: str) -> bool:
        return token in self.id_of

    def lookup(self, token: str) -> int:
        """Id of ``token``, or the UNK id when it is out of vocabulary."""
        return self.id_of.get(token, UNK_ID)

    def map_tokens(self, tokens) -> list[str]:
        """Replace out-of-vocabulary tokens with the UNK token."""
        return [tok if tok in self.id_of else UNK_TOKEN for tok in tokens]

    def candidate_tokens(self) -> list[str]:
        """Every emittable token (all but START), ordered by id; includes END."""
        return [self.token_of[i] for i in range(1, len(self.token_of))]

    def word_tokens(self) -> list[str]:
        return [self.token_of[i] for i in range(len(RESERVED_TOKENS), len(self.token_of))]


def build_vocabulary(records, min_count: int) -> Vocabulary:
    """Frequency-filtered vocabulary; ids ordered by count desc, then token."""
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    counts: Counter[str] = Counter()
    for rec in records:
        counts.update(rec.tokens)
    kept = sorted(
        (tok for tok, n in counts.items() if n >= min_count),
        key=lambda tok: (-counts[tok], tok),
    )
    return Vocabulary(kept)


@dataclass(frozen=True)
class DatasetSplit:
    train_ids: frozenset[int]
    val_ids: frozenset[int]
    testval_ids: frozenset[int]


def split_dataset(ids, sizes, seed: int) -> DatasetSplit:
    """Deterministic disjoint split of ``ids`` into train/val/testval.

    ``sizes`` must sum to the number of distinct ids, else SizeMismatch.
    """
    unique = sorted({int(i) for i in ids})
    n_train, n_val, n_testval = (int(s) for s in sizes)
    if n_train < 0 or n_val < 0 or n_testval < 0:
        raise SizeMismatch("split sizes must be non-negative")
    if n_train + n_val + n_testval != len(unique):
        raise SizeMismatch(
            f"split sizes sum to {n_train + n_val + n_testval}, have {len(unique)} ids"
        )
    rng = Random(seed)
    order = list(unique)
    rng.shuffle(order)
    return DatasetSplit(
        train_ids=frozenset(order[:n_train]),
        val_ids=frozenset(order[n_train:n_train + n_val]),
        testval_ids=frozenset(order[n_train + n_val:]),
    )


@dataclass(frozen=True)
class DetectionSet:
    """Detected caption words for one image, thresholded at ``threshold``.

    Word scores are deduplicated keeping the maximum; only words scoring at
    least the threshold are retained.
    """

    image_id: int
    words: dict[str, float]
    threshold: float

    @classmethod
    def from_scored_words(cls, image_id: int, scored, threshold: float) -> "DetectionSet":
        kept: dict[str, float] = {}
        for token, score in scored:
            score = float(score)
            if score >= threshold and score > kept.get(token, float("-inf")):
                kept[token] = score
        return cls(int(image_id), kept, float(threshold))

    def tokens(self) -> frozenset[str]:
        return frozenset(self.words)

    def __len__(self) -> int:
        return len(self.words)


def _detection_score(value, where: str) -> float:
    """A score read from JSON, if it is a finite int or float (never a bool)."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise MalformedInput(f"{where}: detection score must be a finite number, got {value!r}")
    return float(value)


def load_detections(path, threshold: float) -> dict[int, DetectionSet]:
    """Read detections from JSON-lines: one ``{"image_id", "words": [...]}`` per line."""
    detections: dict[int, DetectionSet] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedInput(f"cannot read detections file {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            doc = json.loads(line)
            where = f"{path}:{lineno}"
            image_id = json_int(doc["image_id"], f"{where}: image_id")
            words = [(w["token"], _detection_score(w["score"], where)) for w in doc["words"]]
        except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
            raise MalformedInput(f"{path}:{lineno}: bad detection record: {exc}") from exc
        if not all(isinstance(token, str) and token for token, _ in words):
            raise MalformedInput(f"{path}:{lineno}: detection tokens must be non-empty strings")
        if image_id in detections:
            raise MalformedInput(f"{path}:{lineno}: duplicate detections for image {image_id}")
        detections[image_id] = DetectionSet.from_scored_words(image_id, words, threshold)
    return detections

"""Caption corpus ingestion: tokenization, loaders, vocabulary, and splits.

All structures returned here are immutable (or treated as such) after
construction, so they can be shared freely across worker threads.
"""

from __future__ import annotations

import json
import math
import re
import reprlib
import string
import struct
import sys
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from random import Random

import numpy as np

from ._binio import atomic_write_bytes, read_file
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
# The pattern starts with the literal hyphen, so the engine skips straight to
# each hyphen instead of trying a lookbehind at every position.
_PUNCT_TABLE = str.maketrans("", "", "".join(c for c in string.punctuation if c != "-"))
_LOOSE_HYPHEN = re.compile(r"-(?:(?<![0-9a-z]-)|(?![0-9a-z]))")


_JSON_KINDS = {dict: "an object", list: "an array", str: "a string", int: "an integer"}


def json_typed(value, kind, what: str):
    """``value``, read from JSON, if its type is exactly ``kind``.

    Exactly, so a boolean is no integer, and neither is a float, even an
    integral one. Any other value raises MalformedInput naming ``what``.
    """
    if type(value) is not kind:
        raise MalformedInput(f"{what} must be {_JSON_KINDS[kind]}, got {reprlib.repr(value)}")
    return value


def _normalize(text: str) -> str:
    """``text`` lowercased, without ASCII punctuation or loose hyphens."""
    return _LOOSE_HYPHEN.sub("", text.lower().translate(_PUNCT_TABLE))


def tokenize(raw_text: str) -> list[str]:
    """Lowercase, delete ASCII punctuation (keeping intra-word hyphens), split.

    Deterministic, and idempotent on its own space-joined output. Empty
    input yields an empty list.
    """
    return _normalize(raw_text).split()


def tokenize_all(texts) -> list[tuple[str, ...]]:
    """``[tuple(tokenize(t)) for t in texts]``, normalizing all of them as one string.

    A newline inside a text becomes a space (``str.split`` treats the two
    alike), so a newline can separate the texts. Neither newline nor space
    is cased or case-ignorable, so lowercasing cannot see across it (the
    final-sigma rule stops there), and the hyphen rule reads a newline
    like the start or end of a text. Tokens are interned, so a word that
    recurs across the texts is held as one string object.
    """
    if not texts:
        return []
    joined = "\n".join([text.replace("\n", " ") for text in texts])
    return [tuple(map(sys.intern, line.split())) for line in _normalize(joined).split("\n")]


@dataclass(frozen=True)
class CaptionRecord:
    """One caption's image id and tokens."""

    image_id: int
    tokens: tuple[str, ...]


@dataclass(frozen=True)
class CaptionTable:
    """Captions as two parallel columns, in file order.

    ``len()`` counts the captions, and iterating yields one CaptionRecord
    per caption, built on demand; the columns themselves hold no records.
    """

    image_ids: list[int]
    tokens: list[tuple[str, ...]]

    def __len__(self) -> int:
        return len(self.image_ids)

    def __iter__(self):
        return map(CaptionRecord, self.image_ids, self.tokens)


def load_captions(path) -> CaptionTable:
    """Read a captions JSON file: ``{"annotations": [{"id", "image_id", "caption"}, ...]}``.

    Raises MalformedInput for unreadable JSON, missing fields, or captions
    that tokenize to nothing; DuplicateAnnotationId for repeated annotation
    ids. Of several faults, the one in the earliest annotation is raised.
    """
    doc = read_file(path, "captions file", json.loads)
    if not isinstance(doc, dict) or not isinstance(doc.get("annotations"), list):
        raise MalformedInput(f"{path}: expected an object with an 'annotations' list")
    ann_ids: list[int] = []
    image_ids: list[int] = []
    captions: list[str] = []
    seen: set[int] = set()
    fault = None  # raised once the captions before it are known to tokenize
    try:
        for entry in doc["annotations"]:
            if not isinstance(entry, dict):
                raise MalformedInput(f"{path}: annotation entries must be objects")
            try:
                ann_id, image_id, caption = entry["id"], entry["image_id"], entry["caption"]
            except KeyError as exc:
                raise MalformedInput(f"{path}: annotation missing id/image_id/caption") from exc
            if type(ann_id) is not int or type(image_id) is not int:  # json_typed raises
                ann_id = json_typed(ann_id, int, f"{path}: annotation id")
                json_typed(image_id, int, f"{path}: annotation {ann_id} image_id")
            if not isinstance(caption, str):
                raise MalformedInput(f"{path}: annotation {ann_id} caption must be a string")
            if ann_id in seen:
                raise DuplicateAnnotationId(f"{path}: duplicate annotation id {ann_id}")
            seen.add(ann_id)
            ann_ids.append(ann_id)
            image_ids.append(image_id)
            captions.append(caption)
    except (MalformedInput, DuplicateAnnotationId) as exc:
        fault = exc
    del doc  # frees the parsed objects before the captions are tokenized
    token_tuples = tokenize_all(captions)
    for ann_id, tokens in zip(ann_ids, token_tuples):
        if not tokens:
            raise MalformedInput(f"{path}: annotation {ann_id} tokenizes to no tokens")
    if fault is not None:
        raise fault
    return CaptionTable(image_ids, token_tuples)


def captions_by_image(table: CaptionTable) -> dict[int, list[tuple[str, ...]]]:
    """Group the table's token sequences by image id, preserving file order."""
    grouped: dict[int, list[tuple[str, ...]]] = {}
    for image_id, tokens in zip(table.image_ids, table.tokens):
        grouped.setdefault(image_id, []).append(tokens)
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


_FVEC_MAGIC = b"FVEC"
_FVEC_VERSION = 1
_FVEC_HEADER = "<IIQ"  # version, dim, count


def _fvec_records(dim: int) -> np.dtype:
    """One FVEC payload record: a little-endian u64 id, then ``dim`` f32s."""
    return np.dtype([("id", "<u8"), ("vec", "<f4", (dim,))])


def save_features(store: FeatureStore, path) -> None:
    """Write a store in the FVEC binary format (see README); atomic."""
    payload = b""
    if len(store):  # numpy cannot describe a record over 2 GiB, even for zero rows
        ids, vectors = zip(*store.items())
        records = np.empty(len(store), dtype=_fvec_records(store.dim))
        records["id"] = ids
        records["vec"] = np.stack(vectors)
        payload = records.tobytes()
    header = _FVEC_MAGIC + struct.pack(_FVEC_HEADER, _FVEC_VERSION, store.dim, len(store))
    atomic_write_bytes(path, header + payload)


def load_features(path) -> FeatureStore:
    """Read an FVEC file; raises MalformedInput for any structural defect.

    The vectors are read-only row views of one matrix over the file's bytes.
    """
    data = read_file(path, "features file", binary=True)
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
    if count == 0:  # the dim may be too large for a numpy record type
        return store
    records = np.frombuffer(data, dtype=_fvec_records(dim), count=count, offset=header_size)
    vectors = records["vec"]
    non_finite = np.flatnonzero(~np.isfinite(vectors).all(axis=1))
    n_good = int(non_finite[0]) if non_finite.size else count
    entries = store._entries
    for image_id, vec in zip(records["id"][:n_good].tolist(), vectors):
        if image_id in entries:
            raise MalformedInput(f"duplicate feature vector for image {image_id}")
        entries[image_id] = vec
    if n_good < count:
        raise MalformedInput(
            f"vector for image {int(records['id'][n_good])} has non-finite components"
        )
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


def build_vocabulary(token_seqs, min_count: int) -> Vocabulary:
    """Frequency-filtered vocabulary over an iterable of token sequences;
    ids ordered by count desc, then token."""
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    counts = Counter(chain.from_iterable(token_seqs))
    kept = sorted(
        (tok for tok, n in counts.items() if n >= min_count),
        key=lambda tok: (-counts[tok], tok),
    )
    return Vocabulary(kept)


def split_dataset(ids, sizes, seed: int) -> dict[str, list[int]]:
    """Deterministic disjoint split of ``ids`` into ``{"train", "val",
    "testval"}`` lists of sorted image ids, the document of ``split.json``.

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
    order = list(unique)
    Random(seed).shuffle(order)
    return {"train": sorted(order[:n_train]), "val": sorted(order[n_train:n_train + n_val]),
            "testval": sorted(order[n_train + n_val:])}


def coverable(detections: frozenset[str] | None, candidates) -> frozenset[str]:
    """The detected words a caption can cover: those among the model's candidates, END excluded.

    ``candidates`` is the model's Vocabulary, or any container of its
    candidate tokens that answers ``in``; START is never a candidate.
    ``detections`` None gives the empty set. Coverage training, search and
    scoring all start from this set and strike off each token as it is
    emitted. The cost is one membership test per detected word.
    """
    return frozenset(tok for tok in detections or ()
                     if tok in candidates and tok != END_TOKEN and tok != START_TOKEN)


_SCORE_TYPES = frozenset((int, float))  # JSON numbers; bool is neither


def load_detections(path, threshold: float) -> dict[int, frozenset[str]]:
    """Read detections from JSON-lines: one ``{"image_id", "words": [...]}`` per line.

    An image's detections are the tokens of its words scoring at least
    ``threshold``; the scores are not kept. Every token must be a caption
    token, one that ``tokenize`` leaves as it is, else MalformedInput names
    its line; each distinct token is checked once.
    """
    detections: dict[int, frozenset[str]] = {}
    checked: set[str] = set()
    lines = read_file(path, "detections file").split("\n")
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            doc = json.loads(line)
            image_id = json_typed(doc["image_id"], int, f"{path}:{lineno}: image_id")
            words = [(w["token"], w["score"]) for w in doc["words"]]
            scores = [score for _, score in words]
            if not (set(map(type, scores)) <= _SCORE_TYPES and all(map(math.isfinite, scores))):
                bad = next(
                    s for s in scores if type(s) not in _SCORE_TYPES or not math.isfinite(s)
                )
                raise MalformedInput(
                    f"{path}:{lineno}: detection score must be a finite number, got {bad!r}"
                )
        except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
            raise MalformedInput(f"{path}:{lineno}: bad detection record: {exc}") from exc
        tokens = [token for token, _ in words]
        if not (set(map(type, tokens)) <= {str} and all(tokens)):
            raise MalformedInput(f"{path}:{lineno}: detection tokens must be non-empty strings")
        for token in tokens:
            if token not in checked:
                if tokenize(token) != [token]:
                    raise MalformedInput(f"{path}:{lineno}: detection token {token!r} is not "
                                         f"a caption token (it tokenizes to {tokenize(token)})")
                checked.add(token)
        if image_id in detections:
            raise MalformedInput(f"{path}:{lineno}: duplicate detections for image {image_id}")
        detections[image_id] = frozenset(token for token, score in words if score >= threshold)
    return detections

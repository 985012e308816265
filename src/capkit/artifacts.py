"""On-disk interchange formats for pipeline artifacts.

Caption TSV: ``image_id \\t caption`` per line. N-best TSV: ``image_id \\t
rank \\t caption \\t name=value;name=value`` with feature names sorted and
values in shortest round-trip float notation; the reader rejects a
non-finite value. JSON artifacts are written with sorted keys so
byte-level comparisons are meaningful. All writers go through an atomic
temp-file rename.
"""

from __future__ import annotations

import hashlib
import json
import math

from ._binio import atomic_write_bytes, read_file
from .decoding import DecodedHypothesis, NBestList
from .errors import MalformedInput


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def write_json(path, doc) -> None:
    atomic_write_text(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def read_json(path):
    return read_file(path, "JSON file", json.loads)


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def write_captions_tsv(path, captions) -> None:
    """``captions`` maps image ids to token sequences; rows sorted by id."""
    lines = []
    for image_id in sorted(captions):
        lines.append(f"{int(image_id)}\t{' '.join(captions[image_id])}")
    atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def read_captions_tsv(path) -> dict[int, tuple[str, ...]]:
    captions: dict[int, tuple[str, ...]] = {}
    lines = read_file(path, "captions TSV").split("\n")
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise MalformedInput(f"{path}:{lineno}: expected image_id<TAB>caption")
        try:
            image_id = int(parts[0])
        except ValueError as exc:
            raise MalformedInput(f"{path}:{lineno}: bad image id {parts[0]!r}") from exc
        if image_id in captions:
            raise MalformedInput(f"{path}:{lineno}: duplicate image id {image_id}")
        captions[image_id] = tuple(parts[1].split())
    return captions


def read_generated(path) -> dict[int, tuple[str, ...]]:
    """The captions TSV at ``path``, which must hold some generated captions."""
    generated = read_captions_tsv(path)
    if not generated:
        raise MalformedInput(f"{path}: no generated captions")
    return generated


def check_feature_name(name: str) -> None:
    """Raise MalformedInput unless an n-best file can hold the feature ``name``."""
    if not name or any(c in name for c in "=;\t\r\n"):
        raise MalformedInput(
            f"bad feature name {name!r}: an n-best file holds a non-empty name "
            "without '=', ';', a tab or a line break"
        )


def _format_features(features: dict[str, float]) -> str:
    return ";".join(f"{name}={repr(float(features[name]))}" for name in sorted(features))


def _parse_features(text: str, where: str) -> dict[str, float]:
    features: dict[str, float] = {}
    for part in text.split(";"):
        if not part:
            continue
        name, sep, value = part.partition("=")
        if not sep or not name:
            raise MalformedInput(f"{where}: bad feature entry {part!r}")
        try:
            features[name] = float(value)
        except ValueError as exc:
            raise MalformedInput(f"{where}: bad feature value {part!r}") from exc
        if not math.isfinite(features[name]):
            raise MalformedInput(f"{where}: non-finite feature value {part!r}")
    return features


def write_nbest_tsv(path, nbests) -> None:
    """N-best lists sorted by image id; ranks start at 1."""
    lines = []
    for nb in sorted(nbests, key=lambda n: n.image_id):
        for rank, hyp in enumerate(nb.hypotheses, start=1):
            lines.append(
                f"{nb.image_id}\t{rank}\t{' '.join(hyp.tokens)}"
                f"\t{_format_features(hyp.features)}"
            )
    atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def read_nbest_tsv(path) -> list[NBestList]:
    lines = read_file(path, "n-best TSV").split("\n")
    lists: dict[int, NBestList] = {}
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise MalformedInput(
                f"{path}:{lineno}: expected image_id<TAB>rank<TAB>caption<TAB>features"
            )
        where = f"{path}:{lineno}"
        try:
            image_id = int(parts[0])
            rank = int(parts[1])
        except ValueError as exc:
            raise MalformedInput(f"{where}: bad image id or rank") from exc
        features = _parse_features(parts[3], where)
        nb = lists.setdefault(image_id, NBestList(image_id, []))
        if rank != len(nb.hypotheses) + 1:
            raise MalformedInput(f"{where}: rank {rank} out of order for image {image_id}")
        nb.hypotheses.append(DecodedHypothesis(tuple(parts[2].split()), features))
    return [lists[i] for i in sorted(lists)]


def nbest_reader(image_ids):
    """A loader of an n-best TSV that must hold one list for each of ``image_ids``."""
    def load(path) -> list[NBestList]:
        nbests = read_nbest_tsv(path)
        found, wanted = {nb.image_id for nb in nbests}, set(image_ids)
        if found != wanted:
            raise MalformedInput(
                f"{path}: n-best lists do not match the split: missing images "
                f"{sorted(wanted - found)}, extra images {sorted(found - wanted)}"
            )
        return nbests
    return load

"""Acceptance suite: one test per release criterion, each printing a
pass/fail line and enforcing its runtime budget.

Oracles here are deliberately independent reimplementations (plain loops,
brute-force enumeration, grid search, finite differences) of the code
paths they check.
"""

import builtins
import hashlib
import io
import itertools
import json
import math
import os
import re
import string
import struct
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path
from random import Random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capkit import analysis, knn
from capkit._binio import atomic_write_bytes
from capkit.artifacts import read_json
from capkit.corpus import (
    END_TOKEN,
    START_TOKEN,
    UNK_TOKEN,
    CaptionRecord,
    DetectionSet,
    FeatureStore,
    Vocabulary,
    build_vocabulary,
    captions_by_image,
    json_int,
    load_captions,
    load_detections,
    load_features,
    save_features,
    tokenize,
    tokenize_all,
)
from capkit.decoding import (
    DecodedHypothesis,
    NBestList,
    RecurrentScorer,
    beam_search,
    coverage_beam_search,
    rescore_logprob,
    sequence_logprob,
)
from capkit.errors import (
    DimensionMismatch,
    DuplicateAnnotationId,
    InputDataError,
    MalformedInput,
    NonFiniteLoss,
    ZeroVector,
)
from capkit.fixture import generate_fixture
from capkit.knn import FeatureIndex, consensus_caption, nearest
from capkit.maxent import (
    END_DONE,
    END_PENDING,
    HIT,
    MISS,
    MaxEntLM,
    MaxEntTrainConfig,
    train_maxent,
)
from capkit.metrics import (
    bleu_from_stats,
    bleu_stats,
    corpus_bleu,
    meteor,
    nbest_bleu_stats,
    perplexity,
)
from capkit import pipeline
from capkit.pipeline import PipelineConfig, run_pipeline
from capkit import recurrent
from capkit.recurrent import (
    MODE_COVERAGE_AUX,
    MODE_IMAGE_INITIAL,
    RecurrentConfig,
    RecurrentLM,
    RnnTrainConfig,
    loss_and_gradients,
    param_shapes,
    save_recurrent,
)
from capkit.rerank import MIN_GAIN, PERTURBATION, MertConfig, apply_weights, mert_optimize

from conftest import TableScorer, maxent_gradient_error, randomize_maxent_event


@contextmanager
def criterion(name, limit_seconds):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < limit_seconds, f"{name}: {elapsed:.1f}s over the {limit_seconds}s budget"
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s)")


def random_sentence(rng, vocab, low=4, high=9):
    return [vocab[i] for i in rng.integers(0, len(vocab), size=rng.integers(low, high))]


def test_bleu_oracle():
    with criterion("bleu-oracle", 1.0):
        hyp = "a cat on the mat".split()
        refs = ["a cat is on the mat".split(), "there is a cat on the mat".split()]
        assert bleu_from_stats(bleu_stats(hyp, refs)) == pytest.approx(81.87, abs=0.01)

        clipped = bleu_stats("the the the the".split(), ["the cat".split()])
        assert clipped[0] == 1 and clipped[4] == 4  # p1 = 1/4 exactly

        rng = np.random.default_rng(100)
        vocab = ["a", "b", "c", "d", "e"]
        zero = np.zeros(10, dtype=np.int64)
        for _ in range(100):
            corpus_a = [
                (random_sentence(rng, vocab), [random_sentence(rng, vocab)])
                for _ in range(int(rng.integers(1, 5)))
            ]
            corpus_b = [
                (random_sentence(rng, vocab), [random_sentence(rng, vocab)])
                for _ in range(int(rng.integers(1, 5)))
            ]
            stats_a = sum((bleu_stats(h, r) for h, r in corpus_a), zero)
            stats_b = sum((bleu_stats(h, r) for h, r in corpus_b), zero)
            whole = sum((bleu_stats(h, r) for h, r in corpus_a + corpus_b), zero)
            assert whole.dtype == np.int64
            np.testing.assert_array_equal(whole, stats_a + stats_b)  # bit-exact integer additivity
            assert bleu_from_stats(whole) == bleu_from_stats(stats_a + stats_b)


def bleu_stats_oracle(hyp, refs):
    """Per-hypothesis statistics as a 10-tuple (4 clipped matches, 4 n-gram
    totals, hypothesis length, closest reference length), the reference
    maxima rebuilt for each call."""
    refs = [tuple(r) for r in refs]
    hyp = tuple(hyp)

    def grams(tokens, n):
        return Counter(tokens[i:i + n] for i in range(len(tokens) - n + 1))

    matches = []
    totals = []
    for n in range(1, 5):
        hyp_grams = grams(hyp, n)
        totals.append(sum(hyp_grams.values()))
        if not hyp_grams:
            matches.append(0)
            continue
        max_ref = Counter()
        for ref in refs:
            max_ref |= grams(ref, n)
        matches.append(sum((hyp_grams & max_ref).values()))
    closest = min((len(r) for r in refs), key=lambda L: (abs(L - len(hyp)), L))
    return (*matches, *totals, len(hyp), closest)


def test_nbest_bleu_stats_matches_oracle():
    with criterion("nbest-bleu-oracle", 10.0):
        rng = np.random.default_rng(101)
        vocab = ["a", "b", "c"]  # small, so n-grams repeat within a sentence
        for _ in range(200):
            refs = [random_sentence(rng, vocab, 1, 12) for _ in range(int(rng.integers(1, 5)))]
            hyps = [random_sentence(rng, vocab, 0, 12) for _ in range(int(rng.integers(1, 8)))]
            hyps.append([])
            rows = nbest_bleu_stats(hyps, refs)
            assert rows.dtype == np.int64 and rows.shape == (len(hyps), 10)
            for hyp, row in zip(hyps, rows):
                want = bleu_stats_oracle(hyp, refs)
                assert tuple(int(v) for v in row) == want
                assert tuple(bleu_stats(hyp, refs).tolist()) == want


def consensus_oracle(pool, m, max_n=4):
    def grams(tokens, n):
        return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))

    def fscore(a, b):
        used, total = 0, 0.0
        for n in range(1, max_n + 1):
            ca, cb = grams(a, n), grams(b, n)
            ta, tb = sum(ca.values()), sum(cb.values())
            if ta == 0 and tb == 0:
                continue
            used += 1
            matched = sum((ca & cb).values())
            p = matched / ta if ta else 0.0
            r = matched / tb if tb else 0.0
            if p + r > 0:
                total += 2.0 * p * r / (p + r)
        return total / used if used else 0.0

    best_i, best_mean = 0, float("-inf")
    for i in range(len(pool)):
        scores = sorted(
            (fscore(pool[i], pool[j]) for j in range(len(pool)) if j != i),
            reverse=True,
        )[: min(m, len(pool) - 1)]
        mean = sum(scores) / len(scores)
        if mean > best_mean:
            best_i, best_mean = i, mean
    return tuple(pool[best_i]), best_mean


def test_consensus_equivalence():
    with criterion("consensus-equivalence", 10.0):
        rng = np.random.default_rng(200)
        vocab = ["a", "b", "c", "d", "e", "f"]
        for _ in range(200):
            size = int(rng.integers(2, 26))
            pool = [
                tuple(random_sentence(rng, vocab, 1, 8)) for _ in range(size)
            ]
            m = int(rng.integers(1, 30))
            got = consensus_caption(pool, m=m)
            want_caption, want_mean = consensus_oracle(pool, m)
            assert got.caption == want_caption  # exact, including tie-breaks
            assert got.mean_overlap == want_mean


_pool_captions = st.lists(st.sampled_from("abc"), max_size=6).map(tuple)


@st.composite
def _consensus_pools(draw):
    """Caption pools over a three-word set: with injected duplicates, with
    none, one caption repeated, or two captions in equal numbers (so that
    both tie on the best mean)."""
    kind = draw(st.sampled_from(["duplicates", "distinct", "repeated", "tie"]))
    if kind == "distinct":
        return draw(st.lists(_pool_captions, min_size=1, max_size=60, unique=True))
    if kind == "repeated":
        return [draw(_pool_captions)] * draw(st.integers(1, 60))
    if kind == "tie":
        pair = draw(st.lists(_pool_captions, min_size=2, max_size=2, unique=True))
        return draw(st.permutations(pair * draw(st.integers(1, 30))))
    pool = draw(st.lists(_pool_captions, min_size=1, max_size=40))
    for _ in range(draw(st.integers(0, 20))):
        copy = pool[draw(st.integers(0, len(pool) - 1))]
        pool.insert(draw(st.integers(0, len(pool))), copy)
    return pool


@settings(max_examples=300, deadline=None)
@given(pool=_consensus_pools(), m=st.integers(1, 80), max_n=st.integers(1, 4))
def test_consensus_matches_oracle_on_pools_with_duplicates(pool, m, max_n):
    got = consensus_caption(pool, m=m, max_n=max_n)
    if len(pool) == 1:
        want_caption, want_mean = pool[0], 0.0
    else:
        want_caption, want_mean = consensus_oracle(pool, m, max_n)
    assert got.caption == want_caption
    assert struct.pack("<d", got.mean_overlap) == struct.pack("<d", want_mean)
    assert got.candidate_pool_size == len(pool)


def knn_sort_oracle(ids, vectors, query, k):
    query = np.asarray(query, dtype=np.float64)
    qnorm = np.linalg.norm(query)
    scored = []
    for image_id, vec in zip(ids, vectors):
        vec = np.asarray(vec, dtype=np.float64)
        sim = float(vec @ query / (np.linalg.norm(vec) * qnorm))
        scored.append((min(max(sim, -1.0), 1.0), image_id))
    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    return [image_id for _, image_id in scored[:k]]


def test_knn_exactness():
    with criterion("knn-exactness", 10.0):
        rng = np.random.default_rng(300)
        for trial in range(100):
            n = int(rng.integers(2, 1001))
            dim = int(rng.integers(2, 65))
            ids = rng.choice(100000, size=n, replace=False).tolist()
            vectors = rng.standard_normal((n, dim))
            if trial % 10 == 0 and n >= 3:
                vectors[1] = vectors[0]  # exact tie to exercise the id tie-break
            index = FeatureIndex(ids, vectors)
            query = rng.standard_normal(dim)
            k = int(rng.integers(1, n + 1))
            assert nearest(index, query, k).ids() == knn_sort_oracle(ids, vectors, query, k)


# ``FeatureIndex.__init__`` and ``from_store`` from before the one-copy
# build (stacked rows, a float64 copy, a permutation copy, ``np.linalg.norm``
# and a divide into a new matrix), kept verbatim with ``self`` a namespace.

def feature_index_oracle(ids, vectors):
    self = SimpleNamespace()
    id_list = [int(i) for i in ids]
    if len(set(id_list)) != len(id_list):
        raise ValueError("feature index ids must be unique")
    mat = np.asarray(vectors, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != len(id_list):
        raise DimensionMismatch(
            f"expected a ({len(id_list)}, dim) matrix, got shape {mat.shape}"
        )
    order = np.argsort(np.asarray(id_list, dtype=np.int64), kind="stable")
    self.ids = np.asarray(id_list, dtype=np.int64)[order]
    mat = mat[order]
    norms = np.linalg.norm(mat, axis=1)
    if mat.shape[0] and not np.all(norms > 0.0):
        bad = int(self.ids[int(np.argmin(norms))])
        raise ZeroVector(f"image {bad} has a zero feature vector")
    self.unit_vectors = mat / norms[:, None] if mat.shape[0] else mat
    self.dim = int(mat.shape[1]) if mat.ndim == 2 else 0
    self.unit_vectors.flags.writeable = False
    return self


def feature_index_oracle_from_store(store, image_ids=None):
    ids = sorted(store.ids() if image_ids is None else (int(i) for i in image_ids))
    vectors = np.stack([store.get(i) for i in ids]) if ids else np.zeros((0, store.dim))
    return feature_index_oracle(ids, vectors)


def _index_outcome(build, *args):
    """What ``build(*args)`` gives: ("ok", ids, dim, unit vector bytes) or
    ("error", class, message)."""
    try:
        index = build(*args)
    except (ValueError, DimensionMismatch, ZeroVector) as exc:
        return ("error", type(exc), str(exc))
    vectors = index.unit_vectors
    return ("ok", index.ids.tolist(), index.dim, vectors.dtype.str, vectors.shape,
            vectors.tobytes())


def _assert_same_index(*args):
    got = _index_outcome(FeatureIndex, *args)
    assert got == _index_outcome(feature_index_oracle, *args)
    return got


def test_feature_index_matches_oracle():
    with criterion("feature-index-equivalence", 30.0):
        rng = np.random.default_rng(160)
        block = knn._NORM_BLOCK_ROWS
        for trial in range(60):
            n = int(rng.integers(1, 40)) if trial % 3 else int(rng.integers(block + 1, 3 * block))
            dim = int(rng.integers(1, 601))
            ids = rng.choice(10**6, size=n, replace=False)
            if trial % 2:
                ids.sort()
            ids = ids.tolist()
            matrix = rng.standard_normal((n, dim)) * 10.0 ** float(rng.integers(-6, 7))
            rows = FeatureStore(dim)
            for image_id, row in zip(ids, matrix):
                rows.add(image_id, row)
            views = [rows.get(i) for i in ids]
            before = matrix.copy()
            for vectors in (matrix, matrix.astype(np.float32), np.asfortranarray(matrix), views):
                assert _assert_same_index(ids, vectors)[0] == "ok"
            assert np.array_equal(matrix, before)
            index = FeatureIndex(ids, matrix)
            assert not index.unit_vectors.flags.writeable
            assert not np.shares_memory(index.unit_vectors, matrix)

            subset = rng.permutation(ids)[: int(rng.integers(1, n + 1))].tolist()
            for image_ids in (None, subset):
                got = _index_outcome(FeatureIndex.from_store, rows, image_ids)
                assert got[0] == "ok"
                assert got == _index_outcome(feature_index_oracle_from_store, rows, image_ids)

            # Errors: class and message, and the zero row the message names.
            zeroed = matrix.copy()
            zeroed[rng.integers(0, n, size=int(rng.integers(1, 3)))] = 0.0
            assert _assert_same_index(ids, zeroed)[1] is ZeroVector
            assert _assert_same_index(ids, matrix[:, 0])[1] is DimensionMismatch
            assert _assert_same_index(ids + [ids[0] + 1], matrix)[1] in (
                ValueError, DimensionMismatch)
            if n > 1:
                assert _assert_same_index(ids[:-1] + [ids[0]], matrix)[1] is ValueError
                assert _assert_same_index(ids, matrix[1:])[1] is DimensionMismatch

        empty = FeatureStore(3)
        assert _assert_same_index([], np.zeros((0, 3)))[0] == "ok"
        assert (_index_outcome(FeatureIndex.from_store, empty)
                == _index_outcome(feature_index_oracle_from_store, empty))


def test_feature_index_build_memory():
    rng = np.random.default_rng(161)
    store = FeatureStore(256)
    for image_id, row in enumerate(rng.standard_normal((4000, 256))):
        store.add(3 * image_id + 1, row)
    tracemalloc.start()
    try:
        index = FeatureIndex.from_store(store)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * index.unit_vectors.nbytes


# The per-record loaders that the one-pass ones replaced, kept verbatim.

_ORACLE_PUNCT_TABLE = str.maketrans(
    "", "", "".join(c for c in string.punctuation if c != "-")
)
_ORACLE_LOOSE_HYPHEN = re.compile(r"(?<![0-9a-z])-|-(?![0-9a-z])")


def tokenize_oracle(raw_text):
    text = raw_text.lower().translate(_ORACLE_PUNCT_TABLE)
    text = _ORACLE_LOOSE_HYPHEN.sub("", text)
    return text.split()


def load_captions_oracle(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise MalformedInput(f"cannot read captions file {path}: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("annotations"), list):
        raise MalformedInput(f"{path}: expected an object with an 'annotations' list")
    records = []
    seen = set()
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
        record = CaptionRecord(int(image_id), tuple(tokenize_oracle(caption)))
        if not record.tokens:
            raise MalformedInput(f"{path}: annotation {ann_id} tokenizes to no tokens")
        records.append(record)
    return records


_FVEC_HEADER = "<IIQ"


def save_features_oracle(store, path):
    payload = bytearray(b"FVEC")
    payload += struct.pack(_FVEC_HEADER, 1, store.dim, len(store))
    for image_id, vec in store.items():
        payload += struct.pack("<Q", image_id)
        payload += vec.astype("<f4").tobytes()
    atomic_write_bytes(path, bytes(payload))


def load_features_oracle(path):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise MalformedInput(f"cannot read features file {path}: {exc}") from exc
    header_size = 4 + struct.calcsize(_FVEC_HEADER)
    if len(data) < header_size:
        raise MalformedInput(f"{path}: shorter than the FVEC header")
    if data[:4] != b"FVEC":
        raise MalformedInput(f"{path}: bad magic bytes")
    version, dim, count = struct.unpack_from(_FVEC_HEADER, data, 4)
    if version != 1:
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


def _outcome(load, path):
    """What ``load(path)`` gives: ("ok", value) or ("error", class, message)."""
    try:
        return ("ok", load(path))
    except InputDataError as exc:
        return ("error", type(exc), str(exc))


def _feature_rows(store):
    return store.dim, [(image_id, vec.dtype.str, vec.tobytes()) for image_id, vec in store.items()]


def _assert_same_captions(path):
    got, want = _outcome(load_captions, path), _outcome(load_captions_oracle, path)
    if got[0] == want[0] == "ok":
        assert list(got[1]) == want[1]
        assert len(got[1]) == len(want[1])
    else:
        assert got == want
    return got


def _assert_same_features(path):
    got, want = _outcome(load_features, path), _outcome(load_features_oracle, path)
    if got[0] == want[0] == "ok":
        assert _feature_rows(got[1]) == _feature_rows(want[1])
        assert all(not vec.flags.writeable for _, vec in got[1].items())
    else:
        assert got == want
    return got


def test_one_pass_loaders_match_per_record_oracles(tmp_path):
    with criterion("loader-equivalence", 30.0):
        fixture_dir = tmp_path / "fixture"
        generate_fixture(fixture_dir, n_images=200, dim=8, seed=13)
        assert _assert_same_captions(fixture_dir / "captions.json")[0] == "ok"
        store = _assert_same_features(fixture_dir / "features.fvec")[1]
        save_features(store, tmp_path / "again.fvec")
        again = (tmp_path / "again.fvec").read_bytes()
        assert again == (fixture_dir / "features.fvec").read_bytes()
        # No records, and a dim whose record would not fit a numpy dtype.
        wide = FeatureStore(2**32 - 1)
        save_features(wide, tmp_path / "wide.fvec")
        save_features_oracle(wide, tmp_path / "wide_oracle.fvec")
        assert (tmp_path / "wide.fvec").read_bytes() == (tmp_path / "wide_oracle.fvec").read_bytes()
        assert _assert_same_features(tmp_path / "wide.fvec")[1].dim == wide.dim

        # The first faulty annotation wins, whether its fault is found while
        # reading the list or once the captions are tokenized.
        faults = [
            [(1, 5, "a cat"), (2, 5, "-- ..."), (2, 6, "a dog")],
            [(1, 5, "a cat"), (1, 6, "a dog"), (2, 6, "!!")],
            [(1, 5, "a cat"), (2, 5.0, "a dog"), (3, 6, "")],
            [(1, 5, "a cat"), (2, 5, "\n-\n")],
        ]
        for case, triples in enumerate(faults):
            path = tmp_path / f"faulty{case}.json"
            path.write_text(json.dumps({"annotations": [
                {"id": a, "image_id": i, "caption": c} for a, i, c in triples
            ]}))
            assert _assert_same_captions(path)[0] == "error"


# Letters whose lowercase depends on context (final sigma) or changes
# length (dotted capital I, the ffi ligature), case-ignorable marks (a
# combining dot, a soft hyphen), whitespace that is not a space, hyphens
# and punctuation, and then any code point.
_CAPTION_CHARS = st.sampled_from(
    list("aZ09 -\n\t.,'\u03a3\u03c3\u03c2\u0130\u0131\ufb03\u0307\u00ad\u2028\x85")
) | st.characters()
_captions = st.text(_CAPTION_CHARS, max_size=14)


@settings(max_examples=400, deadline=None)
@given(texts=st.lists(_captions, max_size=8))
def test_tokenize_all_matches_tokenize(texts):
    want = [tuple(tokenize_oracle(text)) for text in texts]
    assert [tuple(tokenize(text)) for text in texts] == want
    assert tokenize_all(texts) == want


@pytest.fixture(scope="module")
def loader_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("loaders")


_json_ids = st.integers(-3, 6) | st.sampled_from([2.0, True, "3", None, [1]])
_annotations = st.lists(
    st.fixed_dictionaries({"id": _json_ids, "image_id": _json_ids,
                           "caption": _captions | st.sampled_from(["", " - ", "...", None, 7])})
    | st.sampled_from([{"id": 1, "image_id": 2}, [], "x"]),
    max_size=6,
)


@settings(max_examples=300, deadline=None)
@given(annotations=_annotations)
def test_caption_loader_matches_oracle_on_generated_documents(loader_dir, annotations):
    path = loader_dir / "captions.json"
    path.write_text(json.dumps({"annotations": annotations}), encoding="utf-8")
    _assert_same_captions(path)


_components = st.floats(width=32, allow_nan=True, allow_infinity=True) | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0]
)


@st.composite
def _fvec_payloads(draw):
    """FVEC bytes, mostly well-formed; some with repeated ids, non-finite
    components, a cut or extended payload, or a damaged header."""
    dim = draw(st.integers(1, 4))
    rows = draw(st.lists(
        st.tuples(st.integers(0, 5) | st.integers(0, 2**64 - 1),
                  st.lists(_components, min_size=dim, max_size=dim)),
        max_size=5,
    ))
    header = struct.pack(_FVEC_HEADER, 1, dim, len(rows))
    payload = b"".join(
        struct.pack("<Q", image_id) + np.asarray(vec, dtype="<f4").tobytes()
        for image_id, vec in rows
    )
    data = b"FVEC" + header + payload
    damage = draw(st.sampled_from(["none", "none", "cut", "extend", "dim0", "version", "magic"]))
    if damage == "cut" and len(data) > 0:
        data = data[: draw(st.integers(0, len(data) - 1))]
    elif damage == "extend":
        data += b"\0" * draw(st.integers(1, 9))
    elif damage == "dim0":
        data = b"FVEC" + struct.pack(_FVEC_HEADER, 1, 0, len(rows)) + payload
    elif damage == "version":
        data = b"FVEC" + struct.pack(_FVEC_HEADER, 2, dim, len(rows)) + payload
    elif damage == "magic":
        data = b"FVEX" + header + payload
    return data


@settings(max_examples=400, deadline=None)
@given(data=_fvec_payloads())
def test_feature_loader_matches_oracle_on_generated_files(loader_dir, data):
    path = loader_dir / "features.fvec"
    path.write_bytes(data)
    _assert_same_features(path)


@settings(max_examples=200, deadline=None)
@given(dim=st.integers(1, 5), rows=st.lists(
    st.tuples(st.integers(0, 2**64 - 1),
              st.lists(st.floats(width=32, allow_nan=False, allow_infinity=False),
                       min_size=5, max_size=5)),
    max_size=6, unique_by=lambda row: row[0],
))
def test_save_features_matches_oracle(loader_dir, dim, rows):
    store = FeatureStore(dim)
    for image_id, vec in rows:
        store.add(image_id, vec[:dim])
    save_features(store, loader_dir / "got.fvec")
    save_features_oracle(store, loader_dir / "want.fvec")
    assert (loader_dir / "got.fvec").read_bytes() == (loader_dir / "want.fvec").read_bytes()


def test_knn_and_analyze_share_one_train_index(tmp_path, monkeypatch):
    with criterion("shared-train-index", 30.0):
        generate_fixture(tmp_path, n_images=40, dim=8, seed=3)
        built = []
        from_store = knn.FeatureIndex.from_store.__func__

        def counting_from_store(cls, store, image_ids=None):
            index = from_store(cls, store, image_ids)
            built.append(index.ids.tolist())
            return index

        monkeypatch.setattr(knn.FeatureIndex, "from_store", classmethod(counting_from_store))
        string_sets = []
        caption_strings = analysis.caption_strings

        def counting_caption_strings(captions):
            string_sets.append(caption_strings(captions))
            return string_sets[-1]

        monkeypatch.setattr(analysis, "caption_strings", counting_caption_strings)
        config = PipelineConfig.from_doc(
            {"seed": 3, "split": [30, 5, 5],
             "paths": {"captions": "captions.json", "features": "features.fvec"},
             "hyperparameters": {"k": 5, "m": 10, "top_k": 5}},
            base_dir=str(tmp_path),
        )
        run_pipeline(config, stages=["ingest", "knn", "analyze"], out_dir=str(tmp_path / "out"))
        split = read_json(tmp_path / "out" / "split.json")
        assert built.count(sorted(split["train"])) == 1
        assert built.count(sorted(split["testval"])) == 1
        assert len(built) == 2
        # One set of training-caption strings serves both systems' reports.
        assert len(string_sets) == 1
        report = read_json(tmp_path / "out" / "analysis.json")
        assert sorted(report["systems"]) == ["knn_consensus", "knn_onenn"]


def _small_pipeline_doc(detections=True, seed=3, **hyperparameters):
    return {
        "seed": seed, "split": [30, 5, 5],
        "paths": {"captions": "captions.json", "features": "features.fvec",
                  "detections": "detections.jsonl" if detections else None},
        "hyperparameters": {
            "k": 5, "m": 10, "top_k": 5, "beam": 3, "nbest": 5, "max_len": 10,
            "me_epochs": 2, "rnn_epochs": 4, "rnn_embed": 8, "rnn_hidden": 8, "rnn_lr": 0.3,
            "mert_restarts": 1, "mert_iters": 3, **hyperparameters,
        },
    }


def _small_pipeline_config(fixture_dir, detections=True, **hyperparameters):
    return PipelineConfig.from_doc(
        _small_pipeline_doc(detections, **hyperparameters), base_dir=str(fixture_dir)
    )


def test_stages_after_ingest_read_no_raw_captions_or_detections(tmp_path, monkeypatch):
    with criterion("heldout-from-ingest", 30.0):
        generate_fixture(tmp_path, n_images=40, dim=8, seed=3)
        config = _small_pipeline_config(tmp_path)
        whole = tmp_path / "whole"
        run_pipeline(config, out_dir=str(whole))
        staged = tmp_path / "staged"
        run_pipeline(config, stages=["ingest"], out_dir=str(staged))
        run_pipeline(config, stages=["knn", "train_me", "train_rnn"], out_dir=str(staged))

        raw = {os.path.realpath(config.captions_path), os.path.realpath(config.detections_path)}
        real_open = builtins.open

        def guarded_open(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and os.path.realpath(file) in raw:
                raise AssertionError(f"a stage after ingest opened the raw input {file}")
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", guarded_open)
        monkeypatch.setattr(io, "open", guarded_open)
        run_pipeline(config, stages=["decode", "rerank", "eval"], out_dir=str(staged))
        monkeypatch.undo()
        names = sorted(p.name for p in staged.iterdir())
        assert names == sorted(p.name for p in whole.iterdir() if p.name != "analysis.json")
        for name in names:
            if name != "manifest.json":
                assert (staged / name).read_bytes() == (whole / name).read_bytes(), name
        stages = read_json(whole / "manifest.json")["stages"]
        del stages["analyze"]
        assert read_json(staged / "manifest.json")["stages"] == stages
        assert sorted(stages["ingest"]) == [
            "heldout_captions.json", "heldout_detections.jsonl", "split.json", "vocab.json"]
        assert sorted(read_json(staged / "scores.json")) == [
            "knn_consensus", "knn_onenn", "me_reranked", "mrnn"]


def test_readme_names_every_file_of_a_full_run(tmp_path):
    generate_fixture(tmp_path, n_images=40, dim=8, seed=3)
    out = tmp_path / "out"
    run_pipeline(_small_pipeline_config(tmp_path), out_dir=str(out))
    stages = read_json(out / "manifest.json")["stages"]
    assert sorted(stages) == sorted(pipeline.STAGE_ORDER)
    names = ["manifest.json"] + [name for files in stages.values() for name in files]
    assert sorted(names) == sorted(p.name for p in out.iterdir())
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert [name for name in names if f"`{name}`" not in readme] == []


@pytest.mark.parametrize("seed", [202, 7])
def test_trainers_at_once_match_one_stage_per_call(tmp_path, seed):
    with criterion("trainers-at-once", 60.0):
        generate_fixture(tmp_path, n_images=40, dim=8, seed=3)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(_small_pipeline_doc(seed=seed)))
        # The whole run, train_me in a worker beside train_rnn, through the
        # CLI with stdout a buffered pipe, so that a line the worker printed
        # again from its copy of the buffer would show.
        whole = tmp_path / "whole"
        src = Path(pipeline.__file__).resolve().parents[1]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        done = subprocess.run(
            [sys.executable, "-m", "capkit.cli", "pipeline", "--config", str(config_path),
             "--out-dir", str(whole)],
            env={**env, "PYTHONPATH": str(src)}, capture_output=True, text=True, check=False,
        )
        assert done.returncode == 0, done.stderr
        wrote = [line.split()[0] for line in done.stdout.splitlines() if " wrote " in line]
        assert wrote == [f"[{stage}]" for stage in pipeline.STAGE_ORDER]

        staged = tmp_path / "staged"
        config = PipelineConfig.from_doc(_small_pipeline_doc(seed=seed), base_dir=str(tmp_path))
        for stage in pipeline.STAGE_ORDER:
            run_pipeline(config, stages=[stage], out_dir=str(staged))
        names = sorted(p.name for p in whole.iterdir())
        assert names == sorted(p.name for p in staged.iterdir())
        for name in names:
            assert (whole / name).read_bytes() == (staged / name).read_bytes(), name


def _raising(error):
    def stage(ctx):
        raise error

    return stage


def test_a_train_me_worker_error_is_raised_in_the_run(tmp_path, monkeypatch):
    # The stages are replaced before the fork, so the worker runs the
    # replacement too; neither reads an input.
    config = _small_pipeline_config(tmp_path)
    stages = ["train_me", "train_rnn"]
    out = tmp_path / "out"
    monkeypatch.setitem(pipeline._STAGE_FNS, "train_rnn", lambda ctx: [])
    monkeypatch.setitem(pipeline._STAGE_FNS, "train_me",
                        _raising(MalformedInput("image 5: no detections")))
    with pytest.raises(MalformedInput) as info:
        run_pipeline(config, stages=stages, out_dir=str(out))
    assert str(info.value) == "image 5: no detections"
    # The worker's traceback rides along as a note.
    assert "_train_me_worker" in info.value.__notes__[0]
    assert not (out / "manifest.json").exists()

    # Both fail: train_me's error wins, as when the stages ran in turn.
    monkeypatch.setitem(pipeline._STAGE_FNS, "train_rnn", _raising(NonFiniteLoss("nan")))
    with pytest.raises(MalformedInput) as info:
        run_pipeline(config, stages=stages, out_dir=str(out))
    assert str(info.value) == "image 5: no detections"
    monkeypatch.setitem(pipeline._STAGE_FNS, "train_me", lambda ctx: [])
    with pytest.raises(NonFiniteLoss) as info:
        run_pipeline(config, stages=stages, out_dir=str(out))
    assert str(info.value) == "nan"


def test_importing_capkit_does_not_import_multiprocessing():
    src = Path(pipeline.__file__).resolve().parents[1]
    code = "import sys, capkit.cli; print(sorted(m for m in sys.modules if 'multiprocessing' in m))"
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_retrieval_stages_build_no_caption_records(tmp_path, monkeypatch):
    with criterion("caption-columns", 30.0):
        generate_fixture(tmp_path, n_images=40, dim=8, seed=3)
        config = _small_pipeline_config(tmp_path)
        built = []
        init = CaptionRecord.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(CaptionRecord, "__init__", counting_init)
        out = tmp_path / "out"
        run_pipeline(config, stages=["ingest", "knn", "eval", "analyze"], out_dir=str(out))
        assert built == []
        # train_me is the one stage that needs records: one per train caption.
        run_pipeline(config, stages=["train_me"], out_dir=str(out))
        table = load_captions(tmp_path / "captions.json")
        train = set(read_json(out / "split.json")["train"])
        assert built == [row for row in zip(table.image_ids, table.tokens) if row[0] in train]


@pytest.mark.parametrize("alpha", [0, 0.3, 0.5, 0.9, 1])
def test_heldout_reader_matches_the_raw_loaders(tmp_path, alpha):
    with criterion("heldout-equivalence", 10.0):
        generate_fixture(tmp_path, n_images=40, dim=8, seed=3)
        # Repeated words (the higher score wins, in the first one's place),
        # integer scores and words on either side of the threshold; blank
        # and whitespace-only lines, which hold no record, between records.
        path = tmp_path / "detections.jsonl"
        lines = ["", " \t"]
        for line in path.read_text().splitlines():
            record = json.loads(line)
            words = record["words"]
            words[1:1] = [{"token": words[0]["token"], "score": 1},
                          {"token": "xylophone", "score": alpha},
                          {"token": words[2]["token"], "score": 0}]
            lines += [json.dumps(record), "  " if record["image_id"] % 2 else ""]
        path.write_text("\n".join(lines))
        # Ingest's alpha is none of the readers' alphas: its outputs do not depend on it.
        out = tmp_path / "out"
        run_pipeline(_small_pipeline_config(tmp_path, alpha=0.2), stages=["ingest"],
                     out_dir=str(out))
        ctx = pipeline.PipelineContext(_small_pipeline_config(tmp_path, alpha=alpha), str(out))

        split = read_json(out / "split.json")
        ids = sorted(split["val"] + split["testval"])
        detections = load_detections(path, alpha)
        references = captions_by_image(load_captions(tmp_path / "captions.json"))
        heldout = ctx.heldout_detections()
        assert sorted(heldout) == ids
        for image_id in ids:
            got, want = heldout[image_id], detections[image_id]
            assert got == want
            assert list(got.words.items()) == list(want.words.items())
            assert type(got.threshold) is float and got.threshold == want.threshold
        assert (out / "heldout_detections.jsonl").read_text().splitlines() == [
            line for line in lines if line.strip() and json.loads(line)["image_id"] in ids]
        assert ctx.heldout_references() == {i: references[i] for i in ids}
        assert list(ctx.heldout_references()) == ids

        bare = _small_pipeline_config(tmp_path, detections=False, alpha=alpha)
        run_pipeline(bare, stages=["ingest"], out_dir=str(tmp_path / "bare"))
        assert not (tmp_path / "bare" / "heldout_detections.jsonl").exists()
        ctx = pipeline.PipelineContext(bare, str(tmp_path / "bare"))
        assert ctx.heldout_references() == {i: references[i] for i in ids}


def mert_toy_problem(seed, n_sentences=5, n_hyps=4):
    rng = np.random.default_rng(seed)
    vocab = ["a", "b", "c", "d", "e", "f"]
    nbests, refs = [], {}
    for s in range(n_sentences):
        ref = [vocab[i] for i in rng.integers(0, len(vocab), size=8)]
        refs[s] = [ref]
        hyps = []
        for _ in range(n_hyps):
            tokens = list(ref)
            for pos in rng.choice(8, size=int(rng.integers(0, 4)), replace=False):
                tokens[pos] = vocab[rng.integers(0, len(vocab))]
            hyps.append(
                DecodedHypothesis(
                    tuple(tokens),
                    {"x": float(rng.standard_normal()), "y": float(rng.standard_normal())},
                )
            )
        nbests.append(NBestList(s, hyps))
    return nbests, refs


def mert_grid_oracle(nbests, refs, grid=200, limit=2.0):
    stats = np.array(
        [
            [bleu_stats(h.tokens, refs[nb.image_id]) for h in nb.hypotheses]
            for nb in nbests
        ],
        dtype=np.int64,
    )
    feats = np.array(
        [[[h.features["x"], h.features["y"]] for h in nb.hypotheses] for nb in nbests]
    )
    axis = np.linspace(-limit, limit, grid)
    weights = np.array(np.meshgrid(axis, axis)).reshape(2, -1).T
    scores = np.einsum("wf,shf->wsh", weights, feats)
    winners = scores.argmax(axis=2)
    totals = stats[np.arange(stats.shape[0])[None, :], winners].sum(axis=1)
    matched = totals[:, 0:4].astype(float)
    ngrams = totals[:, 4:8].astype(float)
    hyp_len = totals[:, 8].astype(float)
    ref_len = totals[:, 9].astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        positive = (matched > 0).all(axis=1)
        log_prec = np.where(matched > 0, np.log(np.maximum(matched, 1) / ngrams), 0.0)
        brevity = np.minimum(1.0, np.exp(1.0 - ref_len / hyp_len))
        bleu = np.where(positive, 100.0 * brevity * np.exp(log_prec.mean(axis=1)), 0.0)
    return float(bleu.max())


def test_mert_matches_grid_search():
    with criterion("mert-grid", 60.0):
        for seed in range(20):
            nbests, refs = mert_toy_problem(seed)
            optimum = mert_grid_oracle(nbests, refs)
            log: list = []
            weights = mert_optimize(
                nbests, refs, {"x": 1.0, "y": 0.0},
                MertConfig(restarts=8, max_iters=30, seed=seed),
                iteration_log=log,
            )
            final = corpus_bleu(
                [(apply_weights(nb, weights).tokens, refs[nb.image_id]) for nb in nbests]
            )
            assert final >= optimum - 0.1
            by_restart: dict = {}
            for restart, _, bleu in log:
                by_restart.setdefault(restart, []).append(bleu)
            for seq in by_restart.values():
                assert all(b >= a - 1e-12 for a, b in zip(seq, seq[1:]))


def _mert_oracle_line_params(rows, base_weights, direction):
    lines = []
    for idx, row in enumerate(rows):
        slope = float(row[direction])
        offset = sum(float(w) * float(row[name])
                     for name, w in base_weights.items() if name != direction)
        lines.append((slope, offset, idx))
    return lines


def _mert_oracle_envelope(rows, base_weights, direction):
    """(lo, hi, winner) segments of the upper envelope, from feature dicts."""
    lines = sorted(_mert_oracle_line_params(rows, base_weights, direction),
                   key=lambda l: (l[0], -l[1], l[2]))
    hull = []  # slope, offset, idx, start
    for slope, offset, idx in lines:
        if hull and slope == hull[-1][0]:
            continue
        while hull:
            top_slope, top_offset, _, top_start = hull[-1]
            cross = (top_offset - offset) / (slope - top_slope)
            if cross <= top_start:
                hull.pop()
            else:
                break
        start = float("-inf") if not hull else cross
        hull.append((slope, offset, idx, start))
    return [
        (start, hull[pos + 1][3] if pos + 1 < len(hull) else float("inf"), idx)
        for pos, (_, _, idx, start) in enumerate(hull)
    ]


def _mert_oracle_argmax(nbest, weights):
    best_idx, best_score = 0, -math.inf
    for idx, hyp in enumerate(nbest.hypotheses):
        score = sum(float(w) * float(hyp.features[name]) for name, w in weights.items())
        if score > best_score:
            best_idx, best_score = idx, score
    return best_idx


def _mert_oracle_add(*stats):
    """Element-wise sum of statistics tuples."""
    return tuple(sum(column) for column in zip(*stats))


def _mert_oracle_bleu(total):
    return bleu_from_stats(np.array(total, dtype=np.int64))


def _mert_oracle_selection_bleu(nbests, hyp_stats, weights):
    total = (0,) * 10
    for nb_idx, nb in enumerate(nbests):
        total = _mert_oracle_add(total, hyp_stats[nb_idx][_mert_oracle_argmax(nb, weights)])
    return _mert_oracle_bleu(total)


def _mert_oracle_best_step(nbests, hyp_stats, weights, direction):
    winners = []
    events = []
    for nb_idx, nb in enumerate(nbests):
        segments = _mert_oracle_envelope([h.features for h in nb.hypotheses], weights,
                                         direction)
        winners.append(segments[0][2])
        events.extend((lo, nb_idx, winner) for lo, _, winner in segments[1:])
    if not events:
        return None
    events.sort(key=lambda e: (e[0], e[1]))
    total = _mert_oracle_add(*(hyp_stats[i][w] for i, w in enumerate(winners)))
    boundaries = sorted({gamma for gamma, _, _ in events})
    best_bleu = _mert_oracle_bleu(total)
    best_gamma = boundaries[0] - 1.0
    pos = 0
    for b_idx, boundary in enumerate(boundaries):
        while pos < len(events) and events[pos][0] == boundary:
            _, nb_idx, new_winner = events[pos]
            old = hyp_stats[nb_idx][winners[nb_idx]]
            new = hyp_stats[nb_idx][new_winner]
            total = tuple(t - o + n for t, o, n in zip(total, old, new))
            winners[nb_idx] = new_winner
            pos += 1
        if b_idx + 1 < len(boundaries):
            gamma = 0.5 * (boundary + boundaries[b_idx + 1])
        else:
            gamma = boundary + 1.0
        bleu = _mert_oracle_bleu(total)
        if bleu > best_bleu:
            best_bleu, best_gamma = bleu, gamma
    return best_bleu, best_gamma


def mert_oracle(nbests, refs, init, config, iteration_log):
    """Coordinate-ascent MERT over feature dicts, one statistics tuple per hypothesis."""
    hyp_stats = [
        [bleu_stats_oracle(h.tokens, refs[nb.image_id]) for h in nb.hypotheses]
        for nb in nbests
    ]
    directions = sorted(init)
    rng = np.random.default_rng(config.seed)
    best_weights, best_bleu = None, -math.inf
    for restart in range(config.restarts + 1):
        if restart == 0:
            weights = {k: float(v) for k, v in init.items()}
        else:
            weights = {
                k: float(init[k]) + PERTURBATION * float(rng.standard_normal())
                for k in directions
            }
        bleu = _mert_oracle_selection_bleu(nbests, hyp_stats, weights)
        for iteration in range(config.max_iters):
            improved = False
            for direction in directions:
                step = _mert_oracle_best_step(nbests, hyp_stats, weights, direction)
                if step is not None and step[0] > bleu + MIN_GAIN:
                    bleu, weights[direction] = step
                    improved = True
            iteration_log.append((restart, iteration, bleu))
            if not improved:
                break
        if bleu > best_bleu:
            best_bleu, best_weights = bleu, dict(weights)
    return best_weights


def mert_wide_problem(seed, n_sentences=6, n_hyps=30):
    """Four small-integer features, so slopes tie, plus exact duplicate rows."""
    rng = np.random.default_rng(seed)
    vocab = ["a", "b", "c", "d", "e", "f"]
    nbests, refs = [], {}
    for s in range(n_sentences):
        refs[s] = [random_sentence(rng, vocab, 5, 10) for _ in range(2)]
        hyps = []
        for h in range(n_hyps):
            tokens = list(refs[s][0])
            for pos in rng.choice(len(tokens), size=int(rng.integers(0, 4)), replace=False):
                tokens[pos] = vocab[rng.integers(0, len(vocab))]
            if h > 0 and rng.random() < 0.2:
                features = dict(hyps[int(rng.integers(0, h))].features)
            else:
                features = {name: float(rng.integers(-3, 4)) for name in "abcd"}
            hyps.append(DecodedHypothesis(tuple(tokens), features))
        nbests.append(NBestList(s, hyps))
    return nbests, refs


def test_mert_matches_dict_oracle():
    with criterion("mert-dict-oracle", 60.0):
        cases = [
            (mert_toy_problem(seed), {"x": 1.0, "y": 0.0}, MertConfig(8, 30, seed))
            for seed in range(5)
        ]
        cases += [
            (mert_wide_problem(seed), {"d": 1.0, "b": 0.0, "a": 0.5, "c": 0.0},
             MertConfig(3, 30, seed))
            for seed in range(3)
        ]
        for (nbests, refs), init, config in cases:
            log: list = []
            want_log: list = []
            weights = mert_optimize(nbests, refs, init, config, iteration_log=log)
            want = mert_oracle(nbests, refs, init, config, want_log)
            assert weights == want
            assert list(weights) == list(want)
            assert log == want_log
            for nb in nbests:
                chosen = nb.hypotheses[_mert_oracle_argmax(nb, weights)]
                assert apply_weights(nb, weights) is chosen


def _relative_error(analytic, numeric):
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6)


def test_gradient_checks():
    with criterion("gradient-checks", 60.0):
        eps = 1e-5
        vocab = Vocabulary(["cat", "dog", "sat", "the"])

        # recurrent LM, both conditioning modes, every parameter tensor
        for mode in (MODE_IMAGE_INITIAL, MODE_COVERAGE_AUX):
            worst = 0.0
            for seed in range(20):
                config = RecurrentConfig(
                    mode=mode, embed_dim=3, hidden_dim=4,
                    feature_dim=4 if mode == MODE_IMAGE_INITIAL else None,
                    seed=seed,
                )
                lm = RecurrentLM(vocab, config)
                rng = np.random.default_rng(seed + 999)
                if mode == MODE_IMAGE_INITIAL:
                    conditioning = rng.standard_normal(4)
                else:
                    conditioning = {"cat", "the"}
                tokens = [
                    str(t) for t in rng.choice(["cat", "dog", "sat", "the"], size=3)
                ]
                batch = [(conditioning, tokens)]
                _, grads = loss_and_gradients(lm, batch)
                for name, arr in lm.params.items():
                    flat = arr.ravel()
                    gflat = grads[name].ravel()
                    for i in range(flat.size):
                        orig = flat[i]
                        flat[i] = orig + eps
                        up, _ = loss_and_gradients(lm, batch)
                        flat[i] = orig - eps
                        down, _ = loss_and_gradients(lm, batch)
                        flat[i] = orig
                        worst = max(worst, _relative_error(gflat[i], (up - down) / (2 * eps)))
            assert worst < 1e-4, f"{mode}: max relative error {worst:.2e}"

        # log-linear LM event gradients
        rng = np.random.default_rng(4000)
        worst = 0.0
        for _ in range(20):
            lm = MaxEntLM(vocab, l2=0.0)
            history = tuple(rng.choice(["cat", "dog", "the"], size=rng.integers(0, 3)))
            target = str(rng.choice(["cat", "dog", "sat", "the", END_TOKEN]))
            remaining = frozenset(
                str(w) for w in rng.choice(["cat", "dog"], size=rng.integers(0, 2))
            )
            condition, rows = randomize_maxent_event(
                lm, history, remaining, lambda: float(rng.standard_normal() * 0.5)
            )
            target_idx = lm.candidate_tokens().index(target)
            worst = max(worst, maxent_gradient_error(lm, condition, rows, target_idx, eps))
        assert worst < 1e-4, f"maxent: max relative error {worst:.2e}"


def _oracle_gru_step(params, x, h):
    z = 1.0 / (1.0 + np.exp(-(x @ params["gru_wz"] + h @ params["gru_uz"] + params["gru_bz"])))
    r = 1.0 / (1.0 + np.exp(-(x @ params["gru_wr"] + h @ params["gru_ur"] + params["gru_br"])))
    c = np.tanh(x @ params["gru_wc"] + (r * h) @ params["gru_uc"] + params["gru_bc"])
    return (1.0 - z) * h + z * c, (x, h, z, r, c)


def _oracle_gru_backward(params, cache, dh_new, grads):
    """Backprop one GRU step into ``grads``; returns (dx, dh_prev)."""
    x, h, z, r, c = cache
    dz = dh_new * (c - h)
    dc = dh_new * z
    dh = dh_new * (1.0 - z)

    dac = dc * (1.0 - c * c)
    grads["gru_wc"] += np.outer(x, dac)
    grads["gru_uc"] += np.outer(r * h, dac)
    grads["gru_bc"] += dac
    drh = dac @ params["gru_uc"].T
    dr = drh * h
    dh += drh * r

    daz = dz * z * (1.0 - z)
    grads["gru_wz"] += np.outer(x, daz)
    grads["gru_uz"] += np.outer(h, daz)
    grads["gru_bz"] += daz
    dh += daz @ params["gru_uz"].T

    dar = dr * r * (1.0 - r)
    grads["gru_wr"] += np.outer(x, dar)
    grads["gru_ur"] += np.outer(h, dar)
    grads["gru_br"] += dar
    dh += dar @ params["gru_ur"].T

    dx = daz @ params["gru_wz"].T + dar @ params["gru_wr"].T + dac @ params["gru_wc"].T
    return dx, dh


def _oracle_forward(lm, conditioning, tokens):
    """One caption, one output row at a time; returns (nll, n_targets, caches, h0, feat)."""
    ids = lm.encode_tokens(tokens)
    targets = ids + [lm.vocabulary.lookup(END_TOKEN)]
    inputs = [lm.vocabulary.lookup(START_TOKEN)] + ids
    h, feat = lm.initial_hidden(conditioning)
    h0 = h
    aux = lm.mode == MODE_COVERAGE_AUX
    remaining = set(lm.encode_detections(conditioning)) if aux else set()
    out_w, out_b = lm.params["out_w"], lm.params["out_b"]
    caches = []
    nll = 0.0
    for inp, tgt in zip(inputs, targets):
        remaining_ids = sorted(remaining) if aux else None
        x = lm._step_input(h, inp, remaining_ids)
        a = x[lm.config.embed_dim:] if aux else None
        h_new, gru_cache = _oracle_gru_step(lm.params, x, h)
        logits = h_new @ out_w + out_b
        exp = np.exp(logits - logits.max())
        probs = exp / exp.sum()
        nll -= math.log(max(probs[tgt - 1], 1e-300))
        caches.append((gru_cache, probs, tgt - 1, inp, remaining_ids, a, h, h_new))
        h = h_new
        remaining.discard(tgt)
    return nll, len(targets), caches, h0, feat


def bptt_oracle(lm, batch):
    """``loss_and_gradients`` as per-step backpropagation through time: every
    weight gradient gets one outer product per token."""
    params = lm.params
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    total_nll = 0.0
    total_targets = 0
    d_e = lm.config.embed_dim
    for conditioning, tokens in batch:
        nll, n_targets, caches, h0, feat = _oracle_forward(lm, conditioning, tokens)
        total_nll += nll
        total_targets += n_targets
        dh = np.zeros(lm.config.hidden_dim)
        for gru_cache, probs, target_idx, inp, remaining_ids, a, h_prev, h_new in reversed(caches):
            dlogits = probs.copy()
            dlogits[target_idx] -= 1.0
            grads["out_w"] += np.outer(h_new, dlogits)
            grads["out_b"] += dlogits
            dh = dh + dlogits @ params["out_w"].T
            dx, dh_prev = _oracle_gru_backward(params, gru_cache, dh, grads)
            if lm.mode == MODE_IMAGE_INITIAL:
                grads["embeddings"][inp] += dx
            else:
                de, da = dx[:d_e], dx[d_e:]
                du = da * a * (1.0 - a)
                grads["embeddings"][inp] += de + du
                if remaining_ids:
                    grads["det_embeddings"][remaining_ids] += du
                grads["hist_w"] += np.outer(h_prev, du)
                dh_prev = dh_prev + du @ params["hist_w"].T
            dh = dh_prev
        if lm.mode == MODE_IMAGE_INITIAL:
            dq = dh * (1.0 - h0 * h0)
            grads["img_w"] += np.outer(feat, dq)
            grads["img_b"] += dq
    scale = 1.0 / total_targets
    for key in grads:
        grads[key] *= scale
    return total_nll / total_targets, grads


def _bptt_problem(mode, seed, vocab):
    config = RecurrentConfig(
        mode=mode, embed_dim=5, hidden_dim=7,
        feature_dim=6 if mode == MODE_IMAGE_INITIAL else None, seed=seed,
    )
    lm = RecurrentLM(vocab, config)
    # scale the parameters up from the init range so the gates saturate unevenly
    for arr in lm.params.values():
        arr *= 10.0
    return lm


def _bptt_batch(mode, rng, words, n_items, lengths):
    batch = []
    for _ in range(n_items):
        tokens = [str(w) for w in rng.choice(words, size=int(rng.choice(lengths)))]
        if mode == MODE_IMAGE_INITIAL:
            conditioning = rng.standard_normal(6)
        else:
            conditioning = {str(w) for w in rng.choice(words, size=rng.integers(0, 5))}
        batch.append((conditioning, tokens))
    return batch


def test_bptt_matches_per_step_oracle():
    with criterion("bptt-oracle", 60.0):
        vocab = Vocabulary(["cat", "dog", "sat", "ran", "the", "on", "mat"])
        # "zebra" is outside the vocabulary, so it is read as UNK
        words = [*vocab.word_tokens(), "zebra"]
        for mode in (MODE_IMAGE_INITIAL, MODE_COVERAGE_AUX):
            rng = np.random.default_rng(5)
            unk_captions = 0
            for seed in range(26):
                lm = _bptt_problem(mode, seed, vocab)
                lengths = [seed % 13] if seed < 13 else range(13)
                batch = _bptt_batch(mode, rng, words, 1 + seed % 3, lengths)
                unk_captions += sum("zebra" in tokens for _, tokens in batch)
                loss, grads = loss_and_gradients(lm, batch)
                want_loss, want = bptt_oracle(lm, batch)
                assert abs(loss - want_loss) <= 1e-12 * abs(want_loss), (mode, seed)
                assert grads.keys() == want.keys()
                for name, g in want.items():
                    gap = np.max(np.abs(grads[name] - g))
                    assert gap <= 1e-12 * np.max(np.abs(g)), (mode, seed, name, gap)
            assert unk_captions > 0

            data = _bptt_batch(mode, rng, words, 30, range(13))
            config = RnnTrainConfig(epochs=2, learning_rate=0.2, clip=5.0, seed=7)
            trained = recurrent.train(_bptt_problem(mode, 0, vocab), data, config)
            oracle_trained, _ = sgd_oracle(_bptt_problem(mode, 0, vocab), data, config,
                                           gradients=bptt_oracle)
            for name, arr in oracle_trained.params.items():
                np.testing.assert_allclose(trained.params[name], arr, rtol=0, atol=1e-10)


def sgd_oracle(lm, data, config, gradients=loss_and_gradients):
    """``recurrent.train`` as a loop over separate tensors: a fresh gradient
    dict per caption, the clip norm summed tensor by tensor with ``np.sum``
    and each tensor updated on its own. Returns the model and the number of
    updates that were clipped."""
    rng = Random(config.seed)
    lm.epoch_losses = []
    clipped = 0
    for _ in range(config.epochs):
        order = list(range(len(data)))
        rng.shuffle(order)
        epoch_nll = 0.0
        epoch_tokens = 0
        for idx in order:
            item = data[idx]
            loss, grads = gradients(lm, [item])
            n_tokens = len(item[1]) + 1
            epoch_nll += loss * n_tokens
            epoch_tokens += n_tokens
            norm_sq = 0.0
            for g in grads.values():
                norm_sq += float(np.sum(g * g))
            norm = math.sqrt(norm_sq)
            scale = config.learning_rate
            if config.clip > 0.0 and norm > config.clip:
                scale *= config.clip / norm
                clipped += 1
            for key, g in grads.items():
                lm.params[key] -= scale * g
        lm.epoch_losses.append(epoch_nll / epoch_tokens)
    return lm, clipped


def test_sgd_matches_per_tensor_oracle(tmp_path):
    with criterion("sgd-oracle", 60.0):
        vocab = Vocabulary(["cat", "dog", "sat", "ran", "the", "on", "mat"])
        words = [*vocab.word_tokens(), "zebra"]
        for mode in (MODE_IMAGE_INITIAL, MODE_COVERAGE_AUX):
            rng = np.random.default_rng(11)
            data = _bptt_batch(mode, rng, words, 25, range(13))
            n_updates = 3 * len(data)
            for clip in (0.5, 0.0):
                config = RnnTrainConfig(epochs=3, learning_rate=0.1, clip=clip, seed=9)
                trained = recurrent.train(_bptt_problem(mode, 1, vocab), data, config)
                want, clipped = sgd_oracle(_bptt_problem(mode, 1, vocab), data, config)
                if clip:
                    assert clipped > n_updates // 2, (mode, clipped)
                else:
                    assert clipped == 0
                assert trained.epoch_losses == want.epoch_losses, (mode, clip)
                assert trained.params.keys() == want.params.keys()
                for name, arr in want.params.items():
                    assert trained.params[name].tobytes() == arr.tobytes(), (mode, clip, name)

                # the returned tensors are separate arrays again, and save alike
                shapes = param_shapes(trained.config, len(vocab))
                tensors = list(trained.params.items())
                for name, arr in tensors:
                    assert arr.flags.c_contiguous and arr.flags.owndata, name
                    assert arr.shape == shapes[name], name
                for (a_name, a), (b_name, b) in itertools.combinations(tensors, 2):
                    assert not np.shares_memory(a, b), (a_name, b_name)
                save_recurrent(trained, tmp_path / "fast.grlm")
                save_recurrent(want, tmp_path / "oracle.grlm")
                assert (tmp_path / "fast.grlm").read_bytes() == (
                    tmp_path / "oracle.grlm").read_bytes()


def test_non_finite_caption_stops_sgd_before_its_update():
    with criterion("sgd-non-finite", 10.0):
        vocab = Vocabulary(["cat", "dog", "sat", "ran", "the", "on", "mat"])
        rng = np.random.default_rng(12)
        data = _bptt_batch(MODE_IMAGE_INITIAL, rng, vocab.word_tokens(), 12, range(1, 6))
        config = RnnTrainConfig(epochs=1, learning_rate=0.1, clip=5.0, seed=3)
        for position in (0, 5):
            order = list(range(len(data)))
            Random(config.seed).shuffle(order)
            poisoned = list(data)
            poisoned[order[position]] = (np.full(6, np.nan), ["the", "cat"])
            lm = _bptt_problem(MODE_IMAGE_INITIAL, 2, vocab)
            oracle = _bptt_problem(MODE_IMAGE_INITIAL, 2, vocab)
            with pytest.raises(NonFiniteLoss):
                recurrent.train(lm, poisoned, config)
            with pytest.raises(NonFiniteLoss):
                sgd_oracle(oracle, poisoned, config)
            untouched = _bptt_problem(MODE_IMAGE_INITIAL, 2, vocab)
            for name, arr in oracle.params.items():
                assert lm.params[name].tobytes() == arr.tobytes(), (position, name)
                assert lm.params[name].flags.c_contiguous and lm.params[name].flags.owndata
            changed = [name for name in lm.params
                       if lm.params[name].tobytes() != untouched.params[name].tobytes()]
            assert bool(changed) == (position > 0), (position, changed)


class CountingScorer:
    """Passes calls through to another scorer, counting ``logprobs`` calls."""

    def __init__(self, inner):
        self.inner = inner
        self.candidates = inner.candidates
        self.calls = 0

    def start(self, conditioning):
        return self.inner.start(conditioning)

    def logprobs(self, state, remaining):
        self.calls += 1
        return self.inner.logprobs(state, remaining)


def test_prefix_rescoring_matches_sequence_oracle():
    with criterion("prefix-rescoring", 30.0):
        vocab = Vocabulary(["cat", "dog", "sat", "on", "the", "mat"])
        hand_made = [
            ("the", "cat", "sat"), ("the", "cat", "sat", "on", "the", "mat"),
            ("the", "cat", "sat"), (), ("the", "dog"), ("the", "zebra", "sat"),
            ("the", "zebra"), ("a", "cat"), ("cat",), ("the",), (),
        ]
        detections = DetectionSet.from_scored_words(
            7, [("cat", 0.9), ("mat", 0.8), ("zebra", 0.7)], 0.5)
        cases = shared = 0
        for seed in range(6):
            for mode in (MODE_IMAGE_INITIAL, MODE_COVERAGE_AUX):
                lm = RecurrentLM(vocab, RecurrentConfig(
                    mode=mode, embed_dim=4, hidden_dim=6,
                    feature_dim=5 if mode == MODE_IMAGE_INITIAL else None, seed=seed))
                if mode == MODE_IMAGE_INITIAL:
                    conditioning = np.random.default_rng(seed).standard_normal(5)
                    searched = beam_search(RecurrentScorer(lm), conditioning, beam_size=4,
                                           max_len=6, n_best=20)
                else:
                    conditioning = detections
                    searched = coverage_beam_search(RecurrentScorer(lm), detections, beam_size=4,
                                                    max_len=6, n_best=20, min_coverage=1)
                lists = [
                    [h.tokens for h in searched.hypotheses],
                    hand_made,
                    list(reversed(hand_made)) + [h.tokens for h in searched.hypotheses],
                    [],
                ]
                for tokens_list in lists:
                    nbest = NBestList(seed, [
                        DecodedHypothesis(tokens, {"logprob": -1.0})
                        for tokens in tokens_list
                    ])
                    scorer = CountingScorer(RecurrentScorer(lm))
                    rescored = rescore_logprob(nbest, scorer, conditioning, "mrnn")
                    prefixes = {tokens[:k] for tokens in tokens_list
                                for k in range(len(tokens) + 1)}
                    assert scorer.calls == len(prefixes), (seed, mode)
                    shared += len(prefixes) < sum(len(t) + 1 for t in tokens_list)
                    oracle = RecurrentScorer(lm)
                    assert [h.tokens for h in rescored.hypotheses] == list(tokens_list)
                    for hyp in rescored.hypotheses:
                        want = sequence_logprob(oracle, conditioning, hyp.tokens)
                        assert hyp.features["mrnn"] == want, (seed, mode, hyp.tokens)
                        assert hyp.features["logprob"] == -1.0
                    cases += len(tokens_list)
        assert cases > 0 and shared >= 3 * 6 * 2


@lru_cache(maxsize=None)
def _oracle_fid(*parts):
    key = "\x1f".join(parts).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")


def _oracle_features(history, candidate, remaining):
    h1 = history[-1] if len(history) >= 1 else START_TOKEN
    h2 = history[-2] if len(history) >= 2 else START_TOKEN
    if candidate == END_TOKEN:
        coverage = _oracle_fid("end_done") if not remaining else _oracle_fid("end_pending")
    else:
        coverage = _oracle_fid("coverage_hit") if candidate in remaining else _oracle_fid(
            "coverage_miss"
        )
    return (
        _oracle_fid("unigram", candidate),
        _oracle_fid("bigram", h1, candidate),
        _oracle_fid("trigram", h2, h1, candidate),
        coverage,
    )


def _oracle_scores(weights, vocabulary, history, remaining):
    history = vocabulary.map_tokens(history)
    feature_sets = [
        _oracle_features(history, cand, remaining) for cand in vocabulary.candidate_tokens()
    ]
    scores = np.array(
        [sum(weights.get(f, 0.0) for f in feats) for feats in feature_sets], dtype=np.float64
    )
    return feature_sets, scores


def maxent_oracle_logprobs(weights, vocabulary, history, remaining):
    _, scores = _oracle_scores(weights, vocabulary, history, remaining)
    shifted = scores - scores.max()
    return shifted - math.log(np.exp(shifted).sum())


def _oracle_event_nll_and_grad(weights, vocabulary, history, target, remaining):
    feature_sets, scores = _oracle_scores(weights, vocabulary, history, remaining)
    shifted = scores - scores.max()
    exp = np.exp(shifted)
    probs = exp / exp.sum()
    target_idx = vocabulary.candidate_tokens().index(target)
    nll = -math.log(max(probs[target_idx], 1e-300))
    grad = {}
    for feats, p in zip(feature_sets, probs):
        for f in feats:
            grad[f] = grad.get(f, 0.0) + float(p)
    for f in feature_sets[target_idx]:
        grad[f] -= 1.0
    return nll, grad


def maxent_oracle(pairs, vocabulary, config):
    """The log-linear LM as hashed feature weights in one dict, trained by the
    same SGD: one blake2b id per (template, context, candidate), sparse L2
    decay on the ids an event touches. Returns the weight dict."""
    events_per_pair = []
    for record, detections in pairs:
        remaining = set(detections.tokens()) if detections is not None else set()
        events, history = [], []
        for target in [*vocabulary.map_tokens(record.tokens), END_TOKEN]:
            events.append((tuple(history), target, frozenset(remaining)))
            remaining.discard(target)
            history.append(target)
        events_per_pair.append(events)
    rng = Random(config.seed)
    weights = {}
    for _ in range(config.epochs):
        order = list(range(len(events_per_pair)))
        rng.shuffle(order)
        for idx in order:
            for history, target, remaining in events_per_pair[idx]:
                _, grad = _oracle_event_nll_and_grad(
                    weights, vocabulary, history, target, remaining
                )
                for f, g in grad.items():
                    w = weights.get(f, 0.0)
                    weights[f] = w - config.learning_rate * (g + config.l2 * w)
    return weights


_ORACLE_COVERAGE = {
    HIT: "coverage_hit", MISS: "coverage_miss", END_DONE: "end_done", END_PENDING: "end_pending",
}


def test_maxent_matches_hashed_oracle(tmp_path):
    with criterion("maxent-oracle", 60.0):
        generate_fixture(tmp_path, n_images=40, seed=3)
        records = load_captions(tmp_path / "captions.json")
        detections = load_detections(tmp_path / "detections.jsonl", 0.5)
        pairs = [(rec, detections.get(rec.image_id)) for rec in records]
        config = MaxEntTrainConfig(epochs=2, learning_rate=0.1, l2=1e-6, seed=0)
        base = build_vocabulary(records.tokens, 1)
        # the second vocabulary adds words no caption uses, so most
        # trigram contexts of the scored histories are unseen
        extra = [f"extra{i}" for i in range(200)]
        for vocabulary in (base, Vocabulary([*base.word_tokens(), *extra])):
            lm = train_maxent(pairs, config, vocabulary)
            weights = maxent_oracle(pairs, vocabulary, config)

            token = vocabulary.token_of
            candidates = lm.candidate_tokens()
            entries = [(lm.unigram, ("unigram",))]
            entries += [(row, ("bigram", token[h1])) for h1, row in lm.bigram.items()]
            entries += [
                (row, ("trigram", token[h2], token[h1])) for (h2, h1), row in lm.trigram.items()
            ]
            for row, template in entries:
                for cand, weight in zip(candidates, row):
                    assert weight == weights[_oracle_fid(*template, cand)], (template, cand)
            for slot, name in _ORACLE_COVERAGE.items():
                assert lm.coverage[slot] == weights.get(_oracle_fid(name), 0.0), name
            used = sum(_oracle_fid(name) in weights for name in _ORACLE_COVERAGE.values())
            assert len(weights) == len(entries) * len(candidates) + used

            rng = Random(17)
            words = [*vocabulary.word_tokens(), UNK_TOKEN, "unseen"]
            detected = sorted({tok for det in detections.values() for tok in det.tokens()})
            unseen_trigrams = 0
            for call in range(300):
                if call % 2:
                    tokens = rng.choice(records.tokens)
                    history = list(tokens[: rng.randrange(len(tokens) + 1)])
                else:
                    history = [rng.choice(words) for _ in range(rng.randrange(4))]
                remaining = frozenset(
                    rng.sample(detected + words, rng.randrange(4)) if call % 3 else ()
                )
                h2, h1, _ = lm._condition(history, remaining)
                unseen_trigrams += (h2, h1) not in lm.trigram
                got = lm.logprobs(history, remaining)
                want = maxent_oracle_logprobs(weights, vocabulary, history, remaining)
                assert got.tobytes() == want.tobytes(), (history, remaining)
            assert 0 < unseen_trigrams < 300


class BoostRemainingScorer(TableScorer):
    def logprobs(self, state, remaining):
        row, successor = super().logprobs(state, remaining)
        row = row.copy()
        if remaining:
            for i, tok in enumerate(self.candidates):
                if tok in remaining:
                    row[i] += 1.0
        return row, successor


def test_decoder_equivalence_and_coverage():
    with criterion("decoder", 60.0):
        # exhaustive oracle over all END-terminated sequences, max_len 3, V=3
        for seed in range(50):
            scorer = TableScorer(["a", "b", "c"], seed)
            index_of = {c: i for i, c in enumerate(scorer.candidates)}
            best = None
            for length in range(3):
                for words in itertools.product(["a", "b", "c"], repeat=length):
                    logprob, history = 0.0, ()
                    for tok in list(words) + [END_TOKEN]:
                        logprob += scorer.row(history)[index_of[tok]]
                        history = history + (tok,)
                    key = tuple(index_of[t] for t in list(words) + [END_TOKEN])
                    if best is None or (-logprob, key) < (-best[0], best[1]):
                        best = (logprob, key, words)
            result = beam_search(scorer, None, beam_size=64, max_len=3, n_best=1)
            assert result.complete
            assert result.hypotheses[0].tokens == best[2]
            assert result.hypotheses[0].features["logprob"] == best[0]

        # full-coverage decodes mention every detection word
        detections = DetectionSet.from_scored_words(
            1, [("cat", 0.9), ("dog", 0.8)], 0.5
        )
        successes = 0
        for seed in range(100):
            scorer = BoostRemainingScorer(["cat", "dog", "a"], seed)
            result = coverage_beam_search(
                scorer, detections, beam_size=5, max_len=8, n_best=10,
                min_coverage=len(detections),
            )
            if result.complete:
                successes += 1
                for hyp in result.hypotheses:
                    assert {"cat", "dog"} <= set(hyp.tokens)
        assert successes > 0


def beam_search_oracle(scorer, conditioning, beam_size, max_len, n_best, detections=None,
                       min_coverage=None, image_id=0, boundary_ties=None):
    """Beam search that scores every expansion as a Python tuple and sorts
    them all by (-score, candidate-index key). ``boundary_ties``, when a
    list, gets one entry per step in which the beam_size-th and the next
    expansion have equal scores."""
    coverage_mode = detections is not None
    detected = frozenset()
    if coverage_mode:
        detected = detections.tokens().intersection(scorer.candidates) - {END_TOKEN}
        if min_coverage is None:
            min_coverage = min(len(detected), max_len - 1)
    candidates = scorer.candidates
    end_index = candidates.index(END_TOKEN)

    # live and retired entries: (tokens, logprob, remaining, key, state)
    live = [((), 0.0, detected, (), scorer.start(conditioning))]
    pool = []
    for _ in range(max_len):
        expansions = []
        for hyp in live:
            tokens, logprob, remaining, key, state = hyp
            lps, successor = scorer.logprobs(state, remaining if coverage_mode else None)
            end_ok = (not coverage_mode) or len(detected) - len(remaining) >= min_coverage
            for ci, lp in enumerate(lps):
                if ci == end_index and not end_ok:
                    continue
                expansions.append((logprob + float(lp), key + (ci,), hyp, ci, successor))
        if not expansions:
            break
        expansions.sort(key=lambda e: (-e[0], e[1]))
        if (boundary_ties is not None and len(expansions) > beam_size
                and expansions[beam_size - 1][0] == expansions[beam_size][0]):
            boundary_ties.append(1)
        new_live = []
        for logprob, key, hyp, ci, successor in expansions[:beam_size]:
            tokens, _, remaining, _, _ = hyp
            if ci == end_index:
                pool.append((tokens, logprob, remaining, key, None))
            else:
                token = candidates[ci]
                new_live.append((tokens + (token,), logprob, remaining - {token}, key,
                                 successor(token)))
        live = new_live
        if not live:
            break

    def to_decoded(hyp):
        tokens, logprob, remaining, _, _ = hyp
        row = {"logprob": float(logprob), "length": float(len(tokens))}
        if coverage_mode:
            row["covered"] = float(len(detected) - len(remaining))
        return DecodedHypothesis(tokens, row)

    if pool:
        pool.sort(key=lambda h: (-h[1], h[3]))
        return NBestList(image_id, [to_decoded(h) for h in pool[:n_best]], complete=True)
    return NBestList(image_id, [to_decoded(h) for h in live[:n_best]], complete=False)


class TieHeavyScorer:
    """Rows drawn from a handful of log-probabilities, fixed per history, so
    that many expansions share a score; detected words not yet mentioned get
    a bonus from the same handful."""

    LEVELS = (-0.5, -1.0, -1.5, -2.0, math.log(0.3), -math.inf)
    WEIGHTS = np.array([6, 6, 4, 4, 3, 1]) / 24

    def __init__(self, vocab, seed):
        self.candidates = list(vocab) + [END_TOKEN]
        self._seed = seed

    def start(self, conditioning):
        return ()

    def logprobs(self, history, remaining):
        ids = [self.candidates.index(tok) for tok in history]
        rng = np.random.default_rng([self._seed, len(ids), *ids])
        row = rng.choice(self.LEVELS, size=len(self.candidates), p=self.WEIGHTS)
        for i, tok in enumerate(self.candidates):
            if remaining and tok in remaining:
                row[i] = row[i] + 0.5
        return row, lambda token: history + (token,)


def test_array_selection_matches_tuple_sort_oracle():
    with criterion("beam-selection-oracle", 60.0):
        rng = np.random.default_rng(13)
        words = [f"w{i}" for i in range(7)]
        ties, cases = [], 0
        for case in range(600):
            vocab = words[:int(rng.integers(1, 8))]
            scorer = TieHeavyScorer(vocab, case)
            beam = int(rng.integers(1, 13))
            max_len = int(rng.integers(1, 7))
            n_best = int(rng.integers(1, 30))
            if case % 2:
                got = beam_search(scorer, None, beam_size=beam, max_len=max_len,
                                  n_best=n_best, image_id=case)
                want = beam_search_oracle(scorer, None, beam, max_len, n_best,
                                          image_id=case, boundary_ties=ties)
            else:
                chosen = rng.permutation(vocab)[:int(rng.integers(1, len(vocab) + 1))]
                detections = DetectionSet.from_scored_words(
                    case, [(str(tok), 0.9) for tok in chosen], 0.5)
                min_coverage = [None, *range(len(detections) + 1)][
                    int(rng.integers(0, len(detections) + 2))]
                got = coverage_beam_search(scorer, detections, beam_size=beam,
                                           max_len=max_len, n_best=n_best,
                                           min_coverage=min_coverage)
                want = beam_search_oracle(scorer, detections, beam, max_len, n_best,
                                          detections=detections, min_coverage=min_coverage,
                                          image_id=case, boundary_ties=ties)
            assert got == want, f"case {case}"
            cases += 1
        # the scorer must make the boundary of the beam a tie often
        assert len(ties) > cases


def test_metrics_sanity():
    with criterion("metrics-sanity", 10.0):
        vocab_size = 53
        uniform = lambda cap: (-len(cap) * math.log(vocab_size), len(cap))
        corpus = [["w"] * int(n) for n in (3, 8, 5)]
        assert perplexity(uniform, corpus) == pytest.approx(vocab_size, abs=1e-9)

        got = meteor("the cat sat".split(), ["the cat ran".split()])
        assert got == pytest.approx(62.5, abs=0.1)

        pairs = [("a cat sat".split(), ["a cat sat".split()])]
        assert corpus_bleu(pairs) == pytest.approx(100.0)


def test_end_to_end_synthetic(tmp_path):
    with criterion("end-to-end", 300.0):
        fixture_dir = tmp_path / "fixture"
        generate_fixture(fixture_dir, n_images=200, dim=8, seed=13)
        doc = {
            "seed": 13,
            "paths": {
                "captions": "captions.json",
                "features": "features.fvec",
                "detections": "detections.jsonl",
            },
            "split": [160, 20, 20],
            "hyperparameters": {
                "k": 15, "m": 40, "beam": 10, "nbest": 20, "max_len": 12,
                "me_epochs": 6, "rnn_epochs": 6,
                "mert_restarts": 4, "mert_iters": 10,
            },
        }
        manifests = []
        out_dirs = []
        for run in ("run1", "run2"):
            config = PipelineConfig.from_doc(dict(doc), base_dir=str(fixture_dir))
            out_dir = tmp_path / run
            run_pipeline(config, out_dir=str(out_dir))
            manifests.append((out_dir / "manifest.json").read_bytes())
            out_dirs.append(out_dir)
        assert manifests[0] == manifests[1]  # deterministic end to end

        scores = read_json(out_dirs[0] / "scores.json")
        assert set(scores) >= {"knn_consensus", "knn_onenn", "mrnn", "me_reranked"}
        assert scores["knn_consensus"]["bleu"] > scores["knn_onenn"]["bleu"]

        report = read_json(out_dirs[0] / "analysis.json")
        assert set(report["bins"]) == {"least", "middle", "most"}
        for system_report in report["systems"].values():
            rep = system_report["repetition"]
            assert 0.0 <= rep["unique_fraction"] <= 1.0
            assert 0.0 <= rep["seen_in_training_fraction"] <= 1.0

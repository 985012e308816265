import json
import math
import string
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capkit.artifacts import read_captions_tsv
from capkit import corpus
from capkit.corpus import (
    FeatureStore,
    build_vocabulary,
    CaptionRecord,
    coverable,
    load_captions,
    load_detections,
    load_features,
    save_features,
    split_dataset,
    tokenize,
    tokenize_all,
    END_TOKEN,
    START_TOKEN,
    UNK_TOKEN,
    Vocabulary,
)
from capkit.errors import (
    DimensionMismatch,
    DuplicateAnnotationId,
    MalformedInput,
    SizeMismatch,
)

from conftest import write_captions_json, write_detections_jsonl


class TestTokenize:
    def test_punctuation_and_case(self):
        assert tokenize("A man, riding a horse.") == ["a", "man", "riding", "a", "horse"]

    def test_empty(self):
        assert tokenize("") == []

    def test_apostrophe_removed_not_split(self):
        assert tokenize("Dog's toy") == ["dogs", "toy"]

    def test_intra_word_hyphen_kept(self):
        assert tokenize("a well-known place - yes") == ["a", "well-known", "place", "yes"]

    def test_idempotent_on_random_strings(self):
        rng = Random(42)
        alphabet = string.ascii_letters + string.punctuation + " 0123456789"
        for _ in range(300):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 40)))
            once = tokenize(text)
            assert tokenize(" ".join(once)) == once

    def test_equal_tokens_of_two_captions_are_one_object(self):
        first, second = tokenize_all(["A skateboarder jumps.", "The Skateboarder falls"])
        assert first[1] == second[1] == "skateboarder"
        assert first[1] is second[1]


class TestLoadCaptions:
    def test_round_trip_counts(self, tmp_path):
        path = write_captions_json(
            tmp_path / "c.json",
            [(1, 10, "A cat."), (2, 10, "The cat sits."), (3, 11, "A dog!")],
        )
        table = load_captions(path)
        assert len(table) == 3
        assert table.image_ids == [10, 10, 11]
        assert list(table)[0] == CaptionRecord(10, ("a", "cat"))

    def test_empty_annotations(self, tmp_path):
        path = write_captions_json(tmp_path / "c.json", [])
        table = load_captions(path)
        assert len(table) == 0 and list(table) == []

    def test_missing_caption_field(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"annotations": [{"id": 1, "image_id": 2}]}))
        with pytest.raises(MalformedInput):
            load_captions(path)

    def test_bad_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{nope")
        with pytest.raises(MalformedInput):
            load_captions(path)

    def test_infinite_image_id(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"annotations": [{"id": 1, "image_id": Infinity, "caption": "a cat"}]}')
        with pytest.raises(MalformedInput):
            load_captions(path)

    @pytest.mark.parametrize("field,value", [
        ("image_id", 3.7), ("image_id", 3.0), ("image_id", True), ("image_id", "3"),
        ("id", "2"), ("id", False), ("id", 2.5),
    ])
    def test_ids_must_be_json_integers(self, tmp_path, field, value):
        entry = {"id": 1, "image_id": 3, "caption": "a cat", field: value}
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"annotations": [entry]}))
        with pytest.raises(MalformedInput, match="must be an integer"):
            load_captions(path)

    def test_duplicate_annotation_id(self, tmp_path):
        path = write_captions_json(
            tmp_path / "c.json", [(1, 10, "A cat."), (1, 11, "A dog.")]
        )
        with pytest.raises(DuplicateAnnotationId):
            load_captions(path)

    def test_caption_with_no_tokens(self, tmp_path):
        path = write_captions_json(tmp_path / "c.json", [(1, 10, "...")])
        with pytest.raises(MalformedInput):
            load_captions(path)


class TestFeatureIO:
    def _store(self, dim, n, seed=0):
        rng = np.random.default_rng(seed)
        store = FeatureStore(dim)
        for i in range(n):
            store.add(100 + i, rng.standard_normal(dim).astype(np.float32))
        return store

    def test_round_trip_store(self, tmp_path):
        store = self._store(8, 3)
        path = tmp_path / "f.fvec"
        save_features(store, path)
        loaded = load_features(path)
        assert loaded.dim == 8
        assert loaded.ids() == store.ids()
        for i in store.ids():
            np.testing.assert_array_equal(loaded.get(i), store.get(i))

    def test_round_trip_bytes(self, tmp_path):
        for seed in range(20):
            store = self._store(5, 4, seed=seed)
            p1 = tmp_path / f"a{seed}.fvec"
            p2 = tmp_path / f"b{seed}.fvec"
            save_features(store, p1)
            save_features(load_features(p1), p2)
            assert p1.read_bytes() == p2.read_bytes()

    def test_declared_dim_is_kept(self, tmp_path):
        store = FeatureStore(4096)
        store.add(1, np.zeros(4096, dtype=np.float32))
        path = tmp_path / "f.fvec"
        save_features(store, path)
        assert load_features(path).dim == 4096

    def test_truncated_file(self, tmp_path):
        store = self._store(8, 3)
        path = tmp_path / "f.fvec"
        save_features(store, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(MalformedInput):
            load_features(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "f.fvec"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(MalformedInput):
            load_features(path)

    def test_non_finite_rejected(self, tmp_path):
        store = self._store(4, 1)
        path = tmp_path / "f.fvec"
        save_features(store, path)
        raw = bytearray(path.read_bytes())
        raw[-4:] = np.array([np.inf], dtype="<f4").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(MalformedInput):
            load_features(path)

    def test_dimension_mismatch_on_add(self):
        store = FeatureStore(4)
        with pytest.raises(DimensionMismatch):
            store.add(1, np.zeros(5, dtype=np.float32))

    def test_duplicate_id_on_add(self):
        store = FeatureStore(4)
        store.add(1, np.zeros(4, dtype=np.float32))
        with pytest.raises(MalformedInput):
            store.add(1, np.ones(4, dtype=np.float32))


class TestVocabulary:
    def _captions(self, text_by_count):
        """Token sequences of each text, repeated ``count`` times."""
        return [
            tuple(tokenize(text)) for text, count in text_by_count.items() for _ in range(count)
        ]

    def test_min_count_filters(self):
        vocab = build_vocabulary(self._captions({"a a b": 1}), min_count=2)
        assert "a" in vocab
        assert "b" not in vocab
        assert vocab.lookup("b") == vocab.lookup(UNK_TOKEN)

    def test_min_count_one_keeps_all(self):
        vocab = build_vocabulary(self._captions({"a b c": 1}), min_count=1)
        assert all(tok in vocab for tok in ("a", "b", "c"))

    def test_deterministic_ordering(self):
        captions = self._captions({"b a": 3})
        v1 = build_vocabulary(captions, 1)
        v2 = build_vocabulary(captions, 1)
        assert v1.id_of == v2.id_of
        # equal frequency: lexicographic tiebreak puts a before b
        assert v1.id_of["a"] < v1.id_of["b"]

    def test_reserved_ids(self):
        vocab = build_vocabulary(self._captions({"x": 1}), 1)
        assert vocab.id_of[START_TOKEN] == 0
        assert vocab.id_of[END_TOKEN] == 1
        assert vocab.id_of[UNK_TOKEN] == 2
        assert vocab.candidate_tokens()[0] == END_TOKEN

    @pytest.mark.parametrize("words,message", [
        (["cat", END_TOKEN], "token '<end>' collides with a reserved token"),
        (["cat", "dog", "cat"], "duplicate token 'cat'"),
    ])
    def test_rejected_word_lists(self, words, message):
        with pytest.raises(ValueError) as info:
            Vocabulary(words)
        assert str(info.value) == message


class TestSplitDataset:
    def test_deterministic_and_disjoint(self):
        ids = range(10)
        s1 = split_dataset(ids, (6, 2, 2), seed=7)
        s2 = split_dataset(ids, (6, 2, 2), seed=7)
        assert s1 == s2
        assert list(s1) == ["train", "val", "testval"]
        # every id in exactly one part, each part sorted
        assert sorted(s1["train"] + s1["val"] + s1["testval"]) == list(range(10))
        assert all(part == sorted(part) for part in s1.values())
        assert [len(part) for part in s1.values()] == [6, 2, 2]

    def test_reference_sizes_accepted(self):
        split = split_dataset(range(123270), (82783, 20243, 20244), seed=0)
        assert len(split["train"]) == 82783
        assert len(split["val"]) == 20243
        assert len(split["testval"]) == 20244

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            split_dataset(range(10), (6, 2, 1), seed=0)

    def test_different_seeds_differ(self):
        splits = {tuple(split_dataset(range(9), (3, 3, 3), seed=s)["train"]) for s in range(100)}
        assert len(splits) > 1


class TestDetections:
    def test_threshold_and_dedup(self, tmp_path):
        path = write_detections_jsonl(tmp_path / "d.jsonl", {5: [
            ("cat", 0.9), ("cat", 0.6), ("dog", 0.4), ("rug", 0.5), ("mat", 0.2), ("mat", 0.7),
        ]})
        assert load_detections(path, threshold=0.5) == {5: frozenset({"cat", "rug", "mat"})}

    def test_coverable_keeps_detected_candidates_but_end(self):
        vocab = Vocabulary(["cat", "dog"])
        det = frozenset({"cat", "zebra", END_TOKEN, START_TOKEN, UNK_TOKEN})
        want = frozenset({"cat", UNK_TOKEN})
        assert coverable(det, vocab) == want
        assert coverable(det, vocab.candidate_tokens()) == want
        assert coverable(None, vocab) == frozenset()

    def test_load_jsonl(self, tmp_path):
        path = write_detections_jsonl(
            tmp_path / "d.jsonl", {7: [("cat", 0.8), ("mat", 0.2)]}
        )
        dets = load_detections(path, threshold=0.5)
        assert dets[7] == {"cat"}

    def test_duplicate_image(self, tmp_path):
        lines = [
            json.dumps({"image_id": 7, "words": []}),
            json.dumps({"image_id": 7, "words": []}),
        ]
        path = tmp_path / "d.jsonl"
        path.write_text("\n".join(lines))
        with pytest.raises(MalformedInput):
            load_detections(path, 0.5)

    def test_bad_record(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"image_id": 1}')
        with pytest.raises(MalformedInput):
            load_detections(path, 0.5)

    @pytest.mark.parametrize("token", [5, None, "", ["cat"]])
    def test_token_must_be_a_non_empty_string(self, tmp_path, token):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps({"image_id": 1, "words": [{"token": token, "score": 0.9}]}))
        with pytest.raises(MalformedInput):
            load_detections(path, 0.5)

    @pytest.mark.parametrize("image_id", [2.5, 2.0, True, "2", None])
    def test_image_id_must_be_a_json_integer(self, tmp_path, image_id):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps({"image_id": image_id, "words": []}))
        with pytest.raises(MalformedInput, match="must be an integer"):
            load_detections(path, 0.5)

    def test_infinite_image_id(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"image_id": Infinity, "words": []}')
        with pytest.raises(MalformedInput):
            load_detections(path, 0.5)

    @pytest.mark.parametrize("score", ['"0.9"', "true", "null", "[0.9]", "1e999", "-1e999",
                                       "NaN", "Infinity"])
    def test_score_must_be_a_finite_json_number(self, tmp_path, score):
        path = tmp_path / "d.jsonl"
        path.write_text('{"image_id": 1, "words": []}\n'
                        f'{{"image_id": 2, "words": [{{"token": "cat", "score": {score}}}]}}')
        with pytest.raises(MalformedInput) as info:
            load_detections(path, 0.5)
        assert str(info.value) == (
            f"{path}:2: detection score must be a finite number, got {json.loads(score)!r}"
        )

    def test_score_beyond_float_range(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"image_id": 1, "words": [{"token": "cat", "score": 1%s}]}' % ("0" * 400))
        with pytest.raises(MalformedInput, match=f"^{path}:1: "):
            load_detections(path, 0.5)

    def test_integer_score_accepted(self, tmp_path):
        path = write_detections_jsonl(tmp_path / "d.jsonl", {7: [("cat", 1), ("mat", 0)]})
        assert load_detections(path, 0.5)[7] == {"cat"}

    @pytest.mark.parametrize("token, tokens", [
        ("BUS.", ["bus"]), ("Bus", ["bus"]), ("bus,", ["bus"]), ("-bus", ["bus"]),
        ("two words", ["two", "words"]), ("bus\t", ["bus"]), ("...", []),
    ])
    def test_token_must_be_a_caption_token(self, tmp_path, token, tokens):
        path = write_detections_jsonl(
            tmp_path / "d.jsonl", {1: [("cat", 0.9)], 2: [("cat", 0.2), (token, 0.1)]}
        )
        with pytest.raises(MalformedInput) as info:
            load_detections(path, 0.5)
        assert str(info.value) == (
            f"{path}:2: detection token {token!r} is not a caption token "
            f"(it tokenizes to {tokens})"
        )

    def test_caption_tokens_pass(self, tmp_path):
        words = [("well-known", 0.9), ("42", 0.9), ("café", 0.9)]
        path = write_detections_jsonl(tmp_path / "d.jsonl", {1: words})
        assert load_detections(path, 0.5) == {1: {"well-known", "42", "café"}}

    def test_each_distinct_token_is_tokenized_once(self, tmp_path, monkeypatch):
        calls = []

        def counting_tokenize(text):
            calls.append(text)
            return tokenize(text)

        monkeypatch.setattr(corpus, "tokenize", counting_tokenize)
        path = write_detections_jsonl(tmp_path / "d.jsonl", {
            1: [("cat", 0.9), ("mat", 0.1), ("cat", 0.3)],
            2: [("mat", 0.9), ("dog", 0.8)],
            3: [("cat", 0.9)],
        })
        load_detections(path, 0.5)
        assert sorted(calls) == ["cat", "dog", "mat"]


# JSON values of any shape, including NaN and the infinities that Python's
# json module reads and writes.
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=10,
)
# Ids that are JSON integers, and values that are not: strings ("7"), NaN,
# the infinities, booleans, floats, lists and objects.
_ids = st.integers() | st.sampled_from(["7", math.nan, math.inf, -math.inf]) | _json_values
_detection_records = st.fixed_dictionaries({
    "image_id": _ids,
    "words": st.lists(
        st.fixed_dictionaries({"token": st.text(max_size=4) | _json_values,
                               "score": st.floats() | _json_values}),
        max_size=3,
    ) | _json_values,
})
_caption_docs = st.fixed_dictionaries({
    "annotations": st.lists(
        st.fixed_dictionaries(
            {"id": _ids, "image_id": _ids, "caption": st.text(max_size=12) | _json_values}
        ) | _json_values,
        max_size=3,
    ),
})
_tsv_lines = (
    st.builds(lambda i, c: f"{i}\t{c}", _json_values, st.text(max_size=12))
    | st.text(max_size=20)
).map(lambda line: line.encode("utf-8", "surrogatepass")) | st.binary(max_size=20)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestParserFuzz:
    """Outside input either parses or raises an input error (exit 2), never
    anything else."""

    @settings(max_examples=300, deadline=None)
    @given(line=(_detection_records | _json_values).map(json.dumps) | st.text(max_size=20))
    def test_detections_record(self, fuzz_dir, line):
        path = fuzz_dir / "d.jsonl"
        path.write_bytes(line.encode("utf-8", "surrogatepass"))
        try:
            detections = load_detections(path, 0.5)
        except MalformedInput:
            return
        for image_id, det in detections.items():
            assert type(image_id) is int
            assert type(det) is frozenset
            assert all(isinstance(tok, str) and tokenize(tok) == [tok] for tok in det)

    @settings(max_examples=300, deadline=None)
    @given(doc=(_caption_docs | _json_values).map(json.dumps) | st.text(max_size=20))
    def test_captions_document(self, fuzz_dir, doc):
        path = fuzz_dir / "c.json"
        path.write_bytes(doc.encode("utf-8", "surrogatepass"))
        try:
            records = load_captions(path)
        except (MalformedInput, DuplicateAnnotationId):
            return
        assert all(rec.tokens and type(rec.image_id) is int for rec in records)

    @settings(max_examples=300, deadline=None)
    @given(line=_tsv_lines)
    def test_caption_tsv_line(self, fuzz_dir, line):
        path = fuzz_dir / "c.tsv"
        path.write_bytes(line)
        try:
            captions = read_captions_tsv(path)
        except MalformedInput:
            return
        assert all(isinstance(image_id, int) for image_id in captions)

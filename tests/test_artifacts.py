import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capkit.artifacts import (
    read_captions_tsv,
    read_json,
    read_nbest_tsv,
    write_captions_tsv,
    write_json,
    write_nbest_tsv,
)
from capkit.decoding import DecodedHypothesis, NBestList
from capkit.errors import MalformedInput


class TestCaptionsTsv:
    def test_round_trip(self, tmp_path):
        captions = {12: ("a", "cat"), 3: ("dog",), 99: ("the", "end")}
        path = tmp_path / "caps.tsv"
        write_captions_tsv(path, captions)
        assert read_captions_tsv(path) == captions
        # sorted by image id on disk
        first_line = path.read_text().splitlines()[0]
        assert first_line.startswith("3\t")

    def test_empty(self, tmp_path):
        path = tmp_path / "caps.tsv"
        write_captions_tsv(path, {})
        assert read_captions_tsv(path) == {}

    def test_bad_line(self, tmp_path):
        path = tmp_path / "caps.tsv"
        path.write_text("only-one-column\n")
        with pytest.raises(MalformedInput):
            read_captions_tsv(path)

    def test_duplicate_image(self, tmp_path):
        path = tmp_path / "caps.tsv"
        path.write_text("1\ta cat\n1\ta dog\n")
        with pytest.raises(MalformedInput):
            read_captions_tsv(path)


class TestNbestTsv:
    def test_not_utf8(self, tmp_path):
        path = tmp_path / "nbest.tsv"
        path.write_bytes(b"\x80\x81\n")
        with pytest.raises(MalformedInput):
            read_nbest_tsv(path)

    def _nbests(self):
        rng = np.random.default_rng(0)
        lists = []
        for image_id in (4, 9):
            hyps = []
            for _ in range(3):
                logprob = float(rng.standard_normal())
                hyps.append(
                    DecodedHypothesis(
                        ("a", "cat"),
                        {"logprob": logprob, "length": 2.0, "mrnn": float(rng.standard_normal())},
                    )
                )
            lists.append(NBestList(image_id, hyps))
        return lists

    def test_round_trip_exact_floats(self, tmp_path):
        nbests = self._nbests()
        path = tmp_path / "nbest.tsv"
        write_nbest_tsv(path, nbests)
        loaded = read_nbest_tsv(path)
        assert [nb.image_id for nb in loaded] == [4, 9]
        for original, parsed in zip(nbests, loaded):
            for h1, h2 in zip(original.hypotheses, parsed.hypotheses):
                assert h1.tokens == h2.tokens
                assert h1.features == h2.features  # repr round-trips bit-exactly

    def test_rank_must_be_sequential(self, tmp_path):
        path = tmp_path / "nbest.tsv"
        path.write_text("1\t2\ta cat\tlogprob=-1.0\n")
        with pytest.raises(MalformedInput):
            read_nbest_tsv(path)

    def test_bad_feature_entry(self, tmp_path):
        path = tmp_path / "nbest.tsv"
        path.write_text("1\t1\ta cat\tlogprob\n")
        with pytest.raises(MalformedInput):
            read_nbest_tsv(path)


# What the two TSV formats can hold: u64 image ids, tokens without
# whitespace, feature names without '=', ';', a tab or a line break, and
# finite values.
_IMAGE_IDS = st.integers(0, 2**64 - 1)
_TOKENS = st.lists(
    st.text(min_size=1).filter(lambda t: not any(c.isspace() for c in t)), max_size=4
).map(tuple)
_FEATURES = st.dictionaries(
    st.text(min_size=1).filter(lambda n: not any(c in n for c in "=;\t\r\n")),
    st.floats(allow_nan=False, allow_infinity=False),
    max_size=3,
)
_HYPOTHESES = st.builds(DecodedHypothesis, _TOKENS, _FEATURES)


@settings(max_examples=60, deadline=None)
@given(lists=st.dictionaries(_IMAGE_IDS, st.lists(_HYPOTHESES, min_size=1, max_size=3),
                             max_size=4))
def test_nbest_tsv_round_trip(tmp_path_factory, lists):
    path = tmp_path_factory.getbasetemp() / "round-trip-nbest.tsv"
    write_nbest_tsv(path, [NBestList(i, hyps) for i, hyps in lists.items()])
    assert read_nbest_tsv(path) == [NBestList(i, lists[i]) for i in sorted(lists)]


@settings(max_examples=60, deadline=None)
@given(captions=st.dictionaries(_IMAGE_IDS, _TOKENS, max_size=5))
def test_captions_tsv_round_trip(tmp_path_factory, captions):
    path = tmp_path_factory.getbasetemp() / "round-trip-captions.tsv"
    write_captions_tsv(path, captions)
    assert read_captions_tsv(path) == captions


class TestJson:
    def test_round_trip_sorted(self, tmp_path):
        path = tmp_path / "x.json"
        write_json(path, {"b": 1, "a": [1, 2]})
        assert read_json(path) == {"a": [1, 2], "b": 1}
        text = path.read_text()
        assert text.index('"a"') < text.index('"b"')

    def test_bad_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{")
        with pytest.raises(MalformedInput):
            read_json(path)

"""Seeded input generators for the three benchmark workloads.

Every generator is a pure function of its seed: the same seed writes the
same bytes. The program under test only ever sees the files written here
(``captions.json``, ``features.fvec`` and, where used, ``detections.jsonl``).

Why each workload exists:

* ``fixture-e2e`` -- the only workload that runs all eight pipeline stages.
  It uses ``capkit.fixture.generate_fixture`` with the acceptance-test
  config, so LM training (the "write" side of both LMs) dominates at a
  tiny vocabulary.
* ``retrieval-paper`` -- retrieval only, at the paper's k=90, m=125 over a
  10k-image, 512-d index with five captions per image. Consensus over a
  450-caption pool is nearly all of the run; it runs no LM, so LM and
  decoder changes must leave it unchanged.
* ``decode-bigvocab`` -- decoding, reranking and scoring at the paper's
  decode settings with a ~10k-word vocabulary (one distractor word per
  caption, plus sub-threshold distractor detections). It is the "read"
  side of both LMs, where each decoding step costs O(V); it does no
  retrieval.
"""

from __future__ import annotations

import json
import os
from random import Random

import numpy as np

from capkit.corpus import FeatureStore, save_features
from capkit.fixture import generate_fixture

NOUNS = (
    "bus", "cat", "dog", "boat", "plane", "train", "horse", "bike", "truck",
    "bird", "cow", "sheep", "man", "woman", "child", "car", "kite", "surfer",
    "skier", "giraffe",
)
VERBS = (
    "parked", "sleeping", "running", "docked", "landing", "waiting",
    "grazing", "leaning", "standing", "sitting",
)
PLACES = (
    "station", "sofa", "park", "harbor", "runway", "bridge", "field",
    "street", "beach", "road", "kitchen", "table", "river", "hill", "yard",
    "window", "fence", "forest", "lake", "market",
)
ADJECTIVES = ("red", "blue", "old", "small", "white")
PREPOSITIONS = ("near", "by", "beside", "on")
CANONICAL_CHANCE = 0.55
LETTERS = "bcdfghjklmnprstvz"
VOWELS = "aeiou"


def _themes(rng: Random, n_themes: int) -> list[tuple[str, str, str]]:
    triples = [(n, v, p) for n in NOUNS for v in VERBS for p in PLACES]
    return rng.sample(triples, n_themes)


def _caption_tokens(rng: Random, theme) -> list[str]:
    noun, verb, place = theme
    if rng.random() < CANONICAL_CHANCE:
        adj, prep = ADJECTIVES[0], PREPOSITIONS[0]
    else:
        adj, prep = rng.choice(ADJECTIVES), rng.choice(PREPOSITIONS)
    return ["a", adj, noun, verb, prep, "the", place]


def _distractor_words(n: int) -> list[str]:
    """``n`` distinct pronounceable pseudo-words that tokenize to themselves."""
    syllables = [c + v for c in LETTERS for v in VOWELS]
    words = []
    for i in range(n):
        a, rest = divmod(i, len(syllables) ** 2)
        b, c = divmod(rest, len(syllables))
        words.append(syllables[a] + syllables[b] + syllables[c] + "x")
    return words


def _write_inputs(out_dir, annotations, store, detection_lines=None) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "captions.json"), "w", encoding="utf-8") as fh:
        json.dump({"annotations": annotations}, fh, sort_keys=True)
        fh.write("\n")
    save_features(store, os.path.join(out_dir, "features.fvec"))
    if detection_lines is not None:
        with open(os.path.join(out_dir, "detections.jsonl"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(detection_lines) + "\n")


def _clustered_images(seed: int, n_images: int, n_themes: int, dim: int):
    """Image ids, each image's theme and unit-scale clustered feature vectors."""
    rng = Random(seed)
    vec_rng = np.random.default_rng(seed)
    themes = _themes(rng, n_themes)
    centers = vec_rng.standard_normal((n_themes, dim))
    centers /= np.linalg.norm(centers, axis=1)[:, None]
    image_ids = [101 + i for i in range(n_images)]
    theme_idx = [int(t) for t in vec_rng.integers(0, n_themes, size=n_images)]
    noise = 0.5 / np.sqrt(dim)
    vectors = centers[theme_idx] + noise * vec_rng.standard_normal((n_images, dim))
    store = FeatureStore(dim)
    for image_id, vec in zip(image_ids, vectors.astype(np.float32)):
        store.add(image_id, vec)
    return rng, image_ids, [themes[t] for t in theme_idx], store


def _caption_text(tokens) -> str:
    sentence = " ".join(tokens)
    return sentence[0].upper() + sentence[1:] + "."


def fixture_e2e(out_dir, seed: int) -> None:
    generate_fixture(out_dir, n_images=200, dim=8, seed=seed)


def retrieval_paper(out_dir, seed: int, n_train: int, n_queries: int) -> None:
    """Retrieval corpus: clustered 512-d features, five captions per image."""
    rng, image_ids, themes, store = _clustered_images(
        seed, n_train + n_queries, n_themes=200, dim=512
    )
    annotations = []
    for image_id, theme in zip(image_ids, themes):
        for _ in range(5):
            annotations.append({
                "id": len(annotations) + 1,
                "image_id": image_id,
                "caption": _caption_text(_caption_tokens(rng, theme)),
            })
    _write_inputs(out_dir, annotations, store)


def decode_bigvocab(out_dir, seed: int, n_train: int, n_eval: int,
                    n_distractors: int) -> dict[int, tuple[str, str, str]]:
    """Decoding corpus whose training vocabulary holds ``n_distractors`` extra words.

    Every training caption carries one distractor word, dealt from a seeded
    permutation so that each distractor occurs at least once. Detections
    list the theme's noun, verb and place above the 0.5 threshold, plus
    distractor words below it. Returns each image's theme.
    """
    n_images = n_train + n_eval
    rng, image_ids, themes, store = _clustered_images(seed, n_images, n_themes=8, dim=32)
    pool = _distractor_words(n_distractors)
    deck = list(pool)
    rng.shuffle(deck)
    annotations = []
    detection_lines = []
    for image_id, theme in zip(image_ids, themes):
        for _ in range(5):
            tokens = _caption_tokens(rng, theme)
            word = deck.pop() if deck else rng.choice(pool)
            tokens.insert(rng.randrange(1, len(tokens) + 1), word)
            annotations.append({
                "id": len(annotations) + 1,
                "image_id": image_id,
                "caption": _caption_text(tokens),
            })
        noun, verb, place = theme
        words = [
            {"token": noun, "score": 0.95},
            {"token": verb, "score": 0.85},
            {"token": place, "score": 0.9},
            {"token": "a", "score": 0.3},
            {"token": "the", "score": 0.2},
        ]
        words += [
            {"token": rng.choice(pool), "score": round(rng.uniform(0.05, 0.45), 3)}
            for _ in range(20)
        ]
        detection_lines.append(json.dumps({"image_id": image_id, "words": words}))
    _write_inputs(out_dir, annotations, store, detection_lines)
    return dict(zip(image_ids, themes))

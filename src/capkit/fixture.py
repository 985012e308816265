"""Synthetic clustered caption dataset for tests and demo pipeline runs.

Images fall into themed clusters; each cluster has tight feature vectors
around a random center and template captions over a small shared
vocabulary, so retrieval, language modeling, and reranking all have real
signal at desk scale. Generation is fully deterministic given the seed.
"""

from __future__ import annotations

import json
import os
from random import Random

import numpy as np

from ._binio import atomic_write_bytes
from .corpus import FeatureStore, save_features

THEMES = (
    {"noun": "bus", "verb": "parked", "place": "station"},
    {"noun": "cat", "verb": "sleeping", "place": "sofa"},
    {"noun": "dog", "verb": "running", "place": "park"},
    {"noun": "boat", "verb": "docked", "place": "harbor"},
    {"noun": "plane", "verb": "landing", "place": "runway"},
    {"noun": "train", "verb": "waiting", "place": "bridge"},
    {"noun": "horse", "verb": "grazing", "place": "field"},
    {"noun": "bike", "verb": "leaning", "place": "street"},
)

ADJECTIVES = ("red", "blue", "old")
PREPOSITIONS = ("near", "by", "beside")
CANONICAL_CHANCE = 0.55


def _caption_tokens(rng: Random, theme) -> list[str]:
    if rng.random() < CANONICAL_CHANCE:
        adj, prep = ADJECTIVES[0], PREPOSITIONS[0]
    else:
        adj = rng.choice(ADJECTIVES)
        prep = rng.choice(PREPOSITIONS)
    return ["a", adj, theme["noun"], theme["verb"], prep, "the", theme["place"]]


def _caption_text(tokens) -> str:
    sentence = " ".join(tokens)
    return sentence[0].upper() + sentence[1:] + "."


def generate_fixture(out_dir, n_images: int = 200, dim: int = 8, seed: int = 13,
                     captions_per_image: int = 5, noise: float = 0.12) -> dict:
    """Write captions.json, features.fvec, and detections.jsonl under ``out_dir``.

    Returns a summary with the image ids and each image's theme index.
    """
    os.makedirs(out_dir, exist_ok=True)
    rng = Random(seed)
    vec_rng = np.random.default_rng(seed)
    centers = vec_rng.standard_normal((len(THEMES), dim))
    centers /= np.linalg.norm(centers, axis=1)[:, None]

    image_ids = [101 + i for i in range(n_images)]
    theme_of = {image_id: i % len(THEMES) for i, image_id in enumerate(image_ids)}

    store = FeatureStore(dim)
    annotations = []
    detection_lines = []
    ann_id = 1
    for image_id in image_ids:
        theme = THEMES[theme_of[image_id]]
        vec = centers[theme_of[image_id]] + noise * vec_rng.standard_normal(dim)
        store.add(image_id, vec.astype(np.float32))
        for _ in range(captions_per_image):
            tokens = _caption_tokens(rng, theme)
            annotations.append(
                {"id": ann_id, "image_id": image_id, "caption": _caption_text(tokens)}
            )
            ann_id += 1
        words = [
            {"token": theme["noun"], "score": 0.95},
            {"token": theme["verb"], "score": 0.85},
            {"token": theme["place"], "score": 0.9},
            {"token": "a", "score": 0.3},
            {"token": "the", "score": 0.2},
        ]
        detection_lines.append(json.dumps({"image_id": image_id, "words": words}))

    atomic_write_bytes(os.path.join(out_dir, "captions.json"),
                       (json.dumps({"annotations": annotations}, sort_keys=True) + "\n").encode())
    save_features(store, os.path.join(out_dir, "features.fvec"))
    atomic_write_bytes(os.path.join(out_dir, "detections.jsonl"),
                       ("\n".join(detection_lines) + "\n").encode())
    return {"image_ids": image_ids, "theme_of": theme_of}

"""One set-up or one timed repetition of a workload, in a fresh interpreter.

    python3 perfbench/child.py setup <workload> <seed> <job_dir> <inputs_dir> <trace>
    python3 perfbench/child.py rep   <workload> <seed> <job_dir> <inputs_dir> <trace>

``setup`` generates the inputs into ``inputs_dir`` and prepares
``<job_dir>/out`` (decode-bigvocab: ingest plus training both LMs). ``rep``
runs the workload's timed stages through ``capkit.pipeline.run_pipeline``
into ``<job_dir>/out`` and times that call. Either phase writes
``<job_dir>/result.json`` with the process's peak RSS, the batch time and,
when traced, its spans.

A fresh interpreter per phase keeps process-wide caches (such as the
MaxEnt feature-id cache) and peak RSS from carrying over between runs.
"""

from __future__ import annotations

import ctypes
import json
import os
import resource
import sys
import time

import numpy as np

import gen
from workloads import WORKLOADS, pipeline_doc


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, when it can be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _decode_setup(workload, seed, inputs_dir, out_dir, theme_of) -> None:
    """Ingest, then train both LMs on one training caption per theme."""
    from capkit import corpus, maxent, pipeline, recurrent

    config = pipeline.PipelineConfig.from_doc(pipeline_doc(workload, seed), base_dir=inputs_dir)
    pipeline.run_pipeline(config, stages=list(workload.setup_stages), out_dir=out_dir)
    with open(os.path.join(out_dir, "vocab.json"), encoding="utf-8") as fh:
        vocab = corpus.Vocabulary(json.load(fh)["tokens"])
    with open(os.path.join(out_dir, "split.json"), encoding="utf-8") as fh:
        train_ids = sorted(json.load(fh)["train"])
    first_of_theme: dict = {}
    for image_id in train_ids:
        first_of_theme.setdefault(theme_of[image_id], image_id)
    chosen = set(first_of_theme.values())
    records = []
    for rec in corpus.load_captions(os.path.join(inputs_dir, "captions.json")):
        if rec.image_id in chosen:
            records.append(rec)
            chosen.discard(rec.image_id)
    detections = corpus.load_detections(os.path.join(inputs_dir, "detections.jsonl"), 0.5)
    features = corpus.load_features(os.path.join(inputs_dir, "features.fvec"))
    hp = workload.setup_training

    me_lm = maxent.train_maxent(
        [(rec, detections.get(rec.image_id)) for rec in records],
        maxent.MaxEntTrainConfig(
            epochs=hp["me_epochs"], learning_rate=hp["me_lr"], l2=hp["me_l2"], seed=seed
        ),
        vocabulary=vocab,
    )
    maxent.save_maxent(me_lm, os.path.join(out_dir, "me.model"))

    rnn_lm = recurrent.RecurrentLM(
        vocab,
        recurrent.RecurrentConfig(
            mode=recurrent.MODE_IMAGE_INITIAL,
            embed_dim=hp["rnn_embed"],
            hidden_dim=hp["rnn_hidden"],
            feature_dim=features.dim,
            seed=seed,
        ),
    )
    recurrent.train(
        rnn_lm,
        [(features.get(rec.image_id), list(rec.tokens)) for rec in records],
        recurrent.RnnTrainConfig(
            epochs=hp["rnn_epochs"], learning_rate=hp["rnn_lr"], clip=hp["rnn_clip"],
            seed=seed,
        ),
    )
    recurrent.save_recurrent(rnn_lm, os.path.join(out_dir, "rnn.model"))


def setup(workload, seed, inputs_dir, out_dir) -> None:
    if workload.name == "fixture-e2e":
        gen.fixture_e2e(inputs_dir, seed)
    elif workload.name == "retrieval-paper":
        gen.retrieval_paper(inputs_dir, seed, **workload.generator_args)
    else:
        theme_of = gen.decode_bigvocab(inputs_dir, seed, **workload.generator_args)
        _decode_setup(workload, seed, inputs_dir, out_dir, theme_of)


def rep(workload, seed, inputs_dir, out_dir) -> float:
    from capkit import pipeline

    config = pipeline.PipelineConfig.from_doc(pipeline_doc(workload, seed), base_dir=inputs_dir)
    start = time.perf_counter()
    pipeline.run_pipeline(config, stages=list(workload.stages), out_dir=out_dir)
    return time.perf_counter() - start


def main(argv) -> int:
    phase, name, seed, job_dir, inputs_dir, trace = argv
    workload, seed = WORKLOADS[name], int(seed)
    out_dir = os.path.join(job_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    seconds = None  # a set-up is timed as a whole process by run.py
    if phase == "setup":
        setup(workload, seed, inputs_dir, out_dir)
    else:
        seconds = rep(workload, seed, inputs_dir, out_dir)
    result = {
        "seconds": seconds,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "capkit_file": os.path.abspath(sys.modules["capkit"].__file__),
    }
    if tracer is not None:
        result["trace"] = tracer.dump()
    with open(os.path.join(job_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

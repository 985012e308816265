"""Workload definitions shared by run.py and its child processes.

Importing this module loads nothing from capkit, so run.py can read the
definitions without the program under test.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Files each pipeline stage writes and lists in manifest.json, in stage order.
STAGE_ARTIFACTS = {
    "ingest": ("vocab.json", "split.json"),
    "knn": ("knn_consensus.tsv", "knn_onenn.tsv"),
    "train_me": ("me.model",),
    "train_rnn": ("rnn.model",),
    "decode": ("me_nbest_val.tsv", "me_nbest_testval.tsv", "mrnn_testval.tsv"),
    "rerank": ("weights.json", "reranked_testval.tsv"),
    "eval": ("scores.json",),
    "analyze": ("analysis.json",),
}

# Caption file each system writes, as scored by the eval stage.
SYSTEM_FILES = {
    "knn_consensus": "knn_consensus.tsv",
    "knn_onenn": "knn_onenn.tsv",
    "mrnn": "mrnn_testval.tsv",
    "me_reranked": "reranked_testval.tsv",
}

# Pipeline stages in run order.
ALL_STAGES = tuple(STAGE_ARTIFACTS)


@dataclass(frozen=True)
class Workload:
    name: str
    split: tuple[int, int, int]
    detections: bool
    hyperparameters: dict
    # Stages timed in each repetition, and those run once per set-up.
    stages: tuple[str, ...]
    setup_stages: tuple[str, ...] = ()
    systems: tuple[str, ...] = ()
    generator_args: dict = field(default_factory=dict)
    # decode-bigvocab trains both LMs during set-up on one caption per theme.
    setup_training: dict | None = None

    def manifest_stages(self) -> tuple[str, ...]:
        return self.setup_stages + self.stages


# The acceptance config of tests/test_acceptance.py::test_end_to_end_synthetic.
FIXTURE_E2E = Workload(
    name="fixture-e2e",
    split=(160, 20, 20),
    detections=True,
    hyperparameters={
        "k": 15, "m": 40, "beam": 10, "nbest": 20, "max_len": 12,
        "me_epochs": 6, "rnn_epochs": 6, "mert_restarts": 4, "mert_iters": 10,
    },
    stages=ALL_STAGES,
    systems=("knn_consensus", "knn_onenn", "mrnn", "me_reranked"),
)

RETRIEVAL_PAPER = Workload(
    name="retrieval-paper",
    split=(10000, 0, 2),
    detections=False,
    hyperparameters={"k": 90, "m": 125, "top_k": 50},
    stages=("ingest", "knn", "eval", "analyze"),
    systems=("knn_consensus", "knn_onenn"),
    generator_args={"n_train": 10000, "n_queries": 2},
)

DECODE_BIGVOCAB = Workload(
    name="decode-bigvocab",
    split=(2000, 1, 1),
    detections=True,
    hyperparameters={
        "beam": 10, "nbest": 500, "max_len": 16, "mert_restarts": 8, "mert_iters": 30,
    },
    stages=("decode", "rerank", "eval"),
    setup_stages=("ingest",),
    systems=("mrnn", "me_reranked"),
    generator_args={"n_train": 2000, "n_eval": 2, "n_distractors": 2500},
    # Set-up trains both LMs on the first caption of one training image per
    # theme. Model sizes and the MaxEnt rates are the pipeline defaults;
    # epochs are cut so that set-up stays a few seconds at this vocabulary
    # size, and the GRU gets more epochs so that its beam search finishes.
    setup_training={
        "me_epochs": 1, "me_lr": 0.2, "me_l2": 1e-6,
        "rnn_epochs": 30, "rnn_lr": 0.3, "rnn_clip": 5.0,
        "rnn_embed": 32, "rnn_hidden": 64,
    },
)

WORKLOADS = {w.name: w for w in (FIXTURE_E2E, RETRIEVAL_PAPER, DECODE_BIGVOCAB)}


def pipeline_doc(workload: Workload, seed: int) -> dict:
    """Pipeline config document over the generated input files."""
    return {
        "seed": seed,
        "paths": {
            "captions": "captions.json",
            "features": "features.fvec",
            "detections": "detections.jsonl" if workload.detections else None,
        },
        "split": list(workload.split),
        "hyperparameters": dict(workload.hyperparameters),
    }

"""Caption retrieval, generation, reranking, and evaluation toolkit.

Image features arrive as precomputed vectors; the toolkit covers nearest-
neighbor consensus captioning, detection- and feature-conditioned language
models, beam-search decoding, BLEU-maximizing n-best reranking, automatic
metrics, and diversity diagnostics.
"""

__version__ = "0.1.0"

from .corpus import (  # noqa: F401
    CaptionRecord,
    CaptionTable,
    DatasetSplit,
    DetectionSet,
    FeatureStore,
    Vocabulary,
    build_vocabulary,
    load_captions,
    load_detections,
    load_features,
    save_features,
    split_dataset,
    tokenize,
    tokenize_all,
)
from .knn import (  # noqa: F401
    ConsensusResult,
    FeatureIndex,
    NeighborList,
    consensus_caption,
    nearest,
    ngram_overlap_fscore,
    one_nn_caption,
)
from .metrics import (  # noqa: F401
    bleu_from_stats,
    bleu_stats,
    corpus_bleu,
    meteor,
    perplexity,
)
from .maxent import MaxEntLM, MaxEntTrainConfig, train_maxent  # noqa: F401
from .recurrent import (  # noqa: F401
    RecurrentConfig,
    RecurrentLM,
    RnnTrainConfig,
    forward,
    loss_and_gradients,
    train,
)
from .decoding import (  # noqa: F401
    BeamHypothesis,
    DecodedHypothesis,
    MaxEntScorer,
    NBestList,
    RecurrentScorer,
    beam_search,
    coverage_beam_search,
)
from .rerank import (  # noqa: F401
    EnvelopeSegment,
    MertConfig,
    apply_weights,
    line_envelope,
    mert_optimize,
)
from .analysis import (  # noqa: F401
    OverlapBinAssignment,
    RepetitionReport,
    binned_bleu,
    caption_strings,
    overlap_bins,
    repetition_stats,
    unit_index,
)
from .pipeline import PipelineConfig, run_pipeline  # noqa: F401

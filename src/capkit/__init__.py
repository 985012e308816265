"""Caption retrieval, generation, reranking, and evaluation toolkit.

Image features arrive as precomputed vectors; the toolkit covers nearest-
neighbor consensus captioning, detection- and feature-conditioned language
models, beam-search decoding, BLEU-maximizing n-best reranking, automatic
metrics, and diversity diagnostics.
"""

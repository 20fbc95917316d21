"""specdesk: speculative decoding at desk scale.

A draft/verify/accept decoding engine over exactly evaluable character-level
n-gram models, with the full drafter lifecycle around it: pretrain-and-finetune
training, self-distillation corpus generation, a deterministic benchmark
harness, and heuristic drafter routing.
"""

from ._version import __version__
from .core import (
    BOS_ID,
    EOS_ID,
    UNK_ID,
    Distribution,
    FormatError,
    SamplerConfig,
    Vocabulary,
    apply_temperature,
    argmax,
    build_vocab,
    decode_tokens,
    derive_seed,
    encode,
    load_vocab,
    make_rng,
    sample,
    save_vocab,
)
from .lm import (
    Corpus,
    CorpusFormatError,
    ModelFormatError,
    ModelVersionError,
    NGramModel,
    finetune,
    generate,
    load_corpus,
    load_model,
    pretrain,
    save_corpus,
    save_model,
    truncate_corpus,
)
from .specdec import (
    DecodeStats,
    Draft,
    SpecConfig,
    VerificationOutcome,
    VocabularyMismatchError,
    decode_speculative,
    draft,
    residual_dist,
    score_parallel,
    verify_greedy,
    verify_stochastic,
)
from .distill import (
    DistillJob,
    make_prompt,
    self_distill,
    with_task_prompts,
)
from .bench import (
    CostModel,
    EvalConfig,
    ExperimentGrid,
    GridResult,
    ReportTable,
    ScalingCurve,
    acceptance_rate,
    cost_speedup,
    emit_report,
    mean_accepted,
    merge_stats,
    run_grid,
    scaling_curve,
    spearman,
)
from .routing import DrafterRegistry, detect_source_language, load_registry, select_drafter

"""Segment dependency-parsed sentences into rhesis: units of meaning.

The pipeline: ingest CoNLL-U parses and gold segmentations (`corpus`),
declare how long a unit may be (`span`), segment by rule cascade
(`cascade`) or by scored dependency cuts (`scoring`) with weights tuned
evolutionarily (`evolve`), score results (`evaluate`), exchange data with
an external classifier (`dataset`), and render or drive it all from the
command line (`render`, `cli`).
"""

from .cascade import CascadeConfig, CutLevel, CUT_LEVELS, cascade_segment, chunk_boundaries, find_cuts_at_level, regroup
from .config import EngineConfig, effective_config, load_config
from .corpus import (
    AlignedCorpus,
    AlignedEntry,
    Rhesis,
    Segmentation,
    Sentence,
    Token,
    align_gold,
    parse_conllu,
    parse_gold,
    segmentation_from_cuts,
    segmentation_from_spans,
    subtree_span,
    token_depth,
)
from .dataset import (
    CandidateExample,
    ScoreTable,
    candidates_to_tsv,
    export_candidates,
    finetune_manifest,
    load_scores,
    segment_by_scores,
    unmatched_rows,
)
from .errors import (
    AlignmentError,
    FormatError,
    OversizedTokenWarning,
    ParseError,
    RhesisError,
    StructuralError,
)
from .evaluate import (
    EvalReport,
    LengthStats,
    PerDocRow,
    boundary_prf,
    corpus_report,
    document_report,
    format_length_stats,
    format_report,
    length_stats,
    rhesis_precision,
)
from .evolve import EvoConfig, Genome, corpus_labels, evolve, fitness
from .render import RenderOptions, render, render_html, render_records, render_text
from .scoring import (
    CutCandidate,
    ScoringWeights,
    crossing_edges,
    cut_score,
    enumerate_all,
    read_weights,
    segment_best,
    segmentation_score,
    weights_from_json,
    weights_to_json,
    write_weights,
)
from .span import SpanConfig, fits_span, text_measure

__version__ = "0.1.0"

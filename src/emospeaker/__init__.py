"""Closed-set speaker identification for emotional speech.

Acoustic log-frequency power features are modeled per speaker by an ergodic
Gaussian-mixture HMM; pitch/energy contour statistics are modeled by a second,
smaller HMM over suprasegmental blocks. Identification fuses both streams by a
weighted sum of log-probabilities.
"""

from .corpus import (
    EMOTIONS,
    CorpusError,
    CorpusManifest,
    ManifestError,
    UtteranceRecord,
    generate_synthetic_corpus,
    load_manifest,
    validate_protocol_counts,
    write_manifest,
)
from .features import FrontEnd, extract_corpus, load_observation, make_loader
from .hmm import HmmModel, baum_welch_train, init_model, log_forward
from .protocol import (
    PerformanceTable,
    SessionResult,
    assemble_training_set,
    cross_validate,
    identify,
    run_session,
    train_population,
)
from .sphmm import (
    DualObservation,
    Population,
    SpeakerModel,
    Topology,
    fused_log_score,
    train_speaker_model,
)

__version__ = "0.1.0"

__all__ = [
    "EMOTIONS",
    "CorpusError",
    "CorpusManifest",
    "DualObservation",
    "FrontEnd",
    "HmmModel",
    "ManifestError",
    "PerformanceTable",
    "Population",
    "SessionResult",
    "SpeakerModel",
    "Topology",
    "UtteranceRecord",
    "assemble_training_set",
    "baum_welch_train",
    "cross_validate",
    "extract_corpus",
    "fused_log_score",
    "generate_synthetic_corpus",
    "identify",
    "init_model",
    "load_manifest",
    "load_observation",
    "log_forward",
    "make_loader",
    "run_session",
    "train_population",
    "train_speaker_model",
    "validate_protocol_counts",
    "write_manifest",
]

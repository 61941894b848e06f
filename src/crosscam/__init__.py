"""Cross-camera person re-identification from intra-camera labels only.

Trains a small embedding network on per-camera identity labels, infers
cross-camera soft-labels from a masked k-NN Gaussian affinity graph over
per-person feature averages, and optimizes soft-label cross-entropy and
weighted triplet objectives on top of the within-camera triplet loss.
"""

__version__ = "0.1.0"

from .affinity import (AffinityMatrix, SoftLabelRow, SoftLabelTable, affinity_quality_map,
                       build_affinity, soft_label_rows)
from .buffer import PersonBuffer, new_buffer, update_person
from .data import (
    Dataset,
    PersonIndex,
    SynthSpec,
    generate_synthetic,
    load_dataset,
    save_dataset,
)
from .errors import (
    AffinityError,
    ConfigError,
    ContractError,
    CrosscamError,
    EvaluationError,
    FormatError,
    NonFiniteFeatureError,
    SelectionError,
    TrainingError,
    VersionError,
)
from .evaluation import RetrievalResult, evaluate
from .losses import (
    LossValue,
    TripletBatch,
    intra_triplet_loss,
    random_triplet_loss,
    select_hardest_negative,
    select_positives,
    softmax_probs,
    weighted_cross_entropy,
    weighted_triplet_loss,
)
from .model import (
    ClassifierHead,
    EmbeddingModel,
    Optimizer,
    OptimizerState,
    backward,
    forward_batch,
    forward_with_hidden,
    init_head,
    init_model,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
)
from .benchmark import run_ablation
from .trainer import (
    TrainConfig,
    TrainLog,
    TrainState,
    classification_sampler,
    pk_sampler,
    train,
)

"""Band-factorized prompt learning on synthetic latent caches.

A latent is split into a smooth base band and a residual detail band by a
box filter; tiny projection heads embed each band's channel statistics; a
frozen EMA bank of low-band prototypes refines the class text rows; and a
FiLM branch, supervised factually and counterfactually, pushes high-band
granule content into the visual embedding during training only. Inference
needs nothing but the text rows, the bank, and the aggregator.
"""

from .autodiff import MIN_NORM, Tensor, backward, parameter
from .bands import BandPair, band_stats, factorize, smooth_lowpass
from .bank import SemanticBank, absorb, format_bank, read_bank, write_bank
from .config import RunConfig, load_config, parse_config_text, resolve_config
from .diagnostics import (
    OverlapReport,
    RadialSpectrum,
    align_grid,
    band_overlap,
    diagnose,
    radial_spectrum,
)
from .errors import (
    BandpromptError,
    BankFillError,
    BankStateError,
    CacheCorruptionError,
    CacheFormatError,
    ConfigError,
    DivergenceError,
    NumericalDegeneracyError,
    ParameterError,
    ProtocolError,
    SpecificationError,
)
from .evaluate import (
    EvalResult,
    ProtocolOutput,
    generalization_gap,
    granule_source_accuracy,
    harmonic_mean,
    predict,
    run_base_to_novel,
)
from .losses import (
    LossBreakdown,
    class_logits,
    loss_cls,
    loss_granule,
    loss_sem,
)
from .refine import TextFeatureSet, refined_text_graph
from .teacher import (
    CacheRecord,
    LatentCache,
    LatentTensor,
    SyntheticSpec,
    generate_dataset,
    read_cache,
    write_cache,
)
from .trainer import (
    GradCheckReport,
    ToyVisualEncoder,
    TrainConfig,
    TrainState,
    fit,
    gradient_check,
    load_checkpoint,
    run_gradient_check,
    save_checkpoint,
    train_step,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

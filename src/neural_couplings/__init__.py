"""Shallow magnitude-spectrogram separation models and linear couplings extraction.

The package trains small fully connected separation models on magnitude
spectrograms, then approximates each trained model by a single square
couplings matrix, either by direct L1 regression against the model output
(student strategy) or by gating the model's own weight matrices and composing
them (compositional strategy). Analysis utilities score the couplings
matrices by diagonal dominance (TOD-R) and by SNR against the model output
and the ground-truth source.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .analysis import (
    MetricsRecord,
    aggregate,
    evaluate_segment,
    export_heatmap,
    linear_composition,
    snr_db,
    tod_r,
)
from .linalg import Mat, ShapeError, make_rng
from .models import (
    Arch,
    Checkpoint,
    ModelParams,
    backward,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .nca import (
    NcaConfig,
    NcaError,
    NcaState,
    compositional_layers,
    compositional_objective,
    fit_couplings,
    load_couplings,
    model_response,
    run_nca,
    save_couplings,
    shifted_layers,
    student_objective,
)
from .spectral import (
    BinScaler,
    Dataset,
    Spectrogram,
    StftConfig,
    WavError,
    fit_scaler,
    load_dataset,
    load_wav_mono,
    normalized_pair_rows,
    normalized_window,
    save_dataset,
    stft_mag,
)
from .synth import make_synthetic_dataset
from .training import Adam, TrainConfig, TrainingError, train

"""Shallow magnitude-spectrogram separation models and linear couplings extraction.

The package trains small fully connected separation models on magnitude
spectrograms, then approximates each trained model by a single square
couplings matrix, either by direct L1 regression against the model output
(student strategy) or by gating the model's own weight matrices and composing
them (compositional strategy). Analysis utilities score the couplings
matrices by diagonal dominance (TOD-R) and by SNR against the model output
and the ground-truth source.
"""

__version__ = "0.1.0"

# the names README "Library use" imports; every other name is imported from
# its defining module
from .analysis import tod_r
from .nca import NcaConfig, run_nca
from .spectral import normalized_pair_rows, normalized_window
from .synth import make_synthetic_dataset
from .training import train_stack

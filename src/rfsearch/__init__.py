"""Receptive-field search for dilated convolutional sequence networks.

Two cooperating search stages over per-layer dilation rates: a genetic
global search on a sparse power-of-k candidate grid, and an iterative local
refinement that trains a shared-weight multi-dilated layer and moves each
dilation to the expectation of its learned branch PMF.  A small float64
conv engine in numpy, synthetic tasks with known receptive-field ground
truth, and surrogate-fitness oracles make the whole pipeline testable at
desk scale.
"""

from ._kernels import backend as kernel_backend
from .genome import (
    DilationGenome,
    EvalRecord,
    SearchSpace,
    build_space,
    random_genome,
    receptive_field,
)
from .globalsearch import (
    GlobalConfig,
    crossover_segments,
    evaluate,
    mutate,
    run_global_search,
    selection_probabilities,
)
from .localsearch import (
    LocalConfig,
    MultiDilatedLayerState,
    ParallelLayer,
    ParallelStructure,
    expected_dilation,
    multi_dilated_backward,
    multi_dilated_forward,
    parallel_param_count,
    pmf,
    run_local_search,
    sample_dilation_set,
)
from .network import DilatedNet, LayerSpec, NetworkSpec, Trainer, TrainSettings
from .oracle import SurrogateFitness, exhaustive_rank, random_search
from .tasks import TaskSpec, framewise_accuracy, generate
from .tensorops import (
    Adam,
    ConvKernel,
    TrainingDiverged,
    dilated_conv1d_backward,
    dilated_conv1d_forward,
    softmax_nll_loss,
)

__version__ = "0.1.0"

"""Second-order aggregation of convolutional features into symmetric
positive definite matrices, with a learnable manifold-constrained
compression and hand-derived gradients throughout."""

from .errors import FtsParseError, NonFiniteError, ShapeMismatchError, SingularMatrixError
from .linalg import QrFactors, frobenius, matmul, qr_reduced, seeded_rng, sym_eigvals, symmetrize
from .kernel import (
    KernelTape,
    certify,
    compute_sigma,
    covariance_backward,
    covariance_forward,
    kernel_backward,
    kernel_forward,
)
from .stiefel import (
    StiefelPoint,
    TransformTape,
    retract_step,
    spd_relu,
    spd_relu_mask,
    stiefel_init,
    tangent_project,
    transform_backward_input,
    transform_backward_param,
    transform_forward,
)
from .head import (
    DenseParams,
    dense_logits,
    dense_softmax_ce,
    l2_normalize,
    l2_normalize_backward,
    power_normalize,
    power_normalize_backward,
    vectorize,
    vectorize_backward,
)
from .network import (
    GradCheckReport,
    MetricsRecord,
    MixParams,
    Params,
    PipelineConfig,
    TrainConfig,
    backward,
    evaluate_accuracy,
    forward,
    grad_check,
    gradcheck_instance,
    init_params,
    mix_backward,
    mix_forward,
    param_shapes,
    predict,
    train,
)
from .data import (
    FtsDataset,
    fts_read,
    fts_write,
    load_checkpoint,
    save_checkpoint,
    split_by_class,
    synth_generate,
)

__version__ = "0.1.0"

"""Numeric ML substrate: models, datasets, optimizers and metrics.

Everything in this subpackage is implemented from scratch on top of
numpy.  Models are *functional*: parameters live in a flat vector and
``loss_and_grad`` is a pure function of ``(params, batch)``.  This makes
gradient staleness trivially expressible — an ASP worker simply
evaluates the gradient at the (old) vector it pulled — and lets the
parameter server shard a single contiguous array.  The gradient pass is
written once, for ``K`` parameter vectors at a time; a barrier round
or an evaluation is that pass at ``K = 1``.
"""

from repro._lazy import lazy_exports

__all__ = [
    "ConstantMomentum",
    "ConvergenceTracker",
    "DatasetConfig",
    "FixedScaledMomentum",
    "LinearRampMomentum",
    "ModelConfig",
    "MomentumSGD",
    "NonlinearRampMomentum",
    "ParameterLayout",
    "PiecewiseDecaySchedule",
    "ResidualMLPClassifier",
    "SyntheticDataset",
    "ZeroMomentum",
    "make_dataset",
    "make_model",
    "softmax_cross_entropy",
    "softmax_probabilities",
    "time_to_accuracy",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.mlcore.datasets": (
            "DatasetConfig",
            "SyntheticDataset",
            "make_dataset",
        ),
        "repro.mlcore.losses": (
            "softmax_cross_entropy",
            "softmax_probabilities",
        ),
        "repro.mlcore.metrics": ("ConvergenceTracker", "time_to_accuracy"),
        "repro.mlcore.models": (
            "ModelConfig",
            "ResidualMLPClassifier",
            "make_model",
        ),
        "repro.mlcore.optim": (
            "ConstantMomentum",
            "FixedScaledMomentum",
            "LinearRampMomentum",
            "MomentumSGD",
            "NonlinearRampMomentum",
            "PiecewiseDecaySchedule",
            "ZeroMomentum",
        ),
        "repro.mlcore.params": ("ParameterLayout",),
    },
)

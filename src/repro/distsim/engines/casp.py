"""Compressed Asynchronous Parallel engine.

QSync-style quantized push (PAPERS.md: arXiv 2407.02327) on top of the
ASP event loop: every gradient a worker pushes to the
:class:`~repro.distsim.parameter_server.ShardedParameterServer` first
passes through an unbiased compressor from
:mod:`repro.mlcore.compression` (default: QSGD quantization), and the
per-batch communication share of the fixed overhead shrinks by the
compression ratio (see ``ASPEngine._comm_saving``).

Compression noise is drawn from the session's dedicated lazily-created
``compress/{worker}`` child streams, never from the timing-jitter
stream: uncompressed runs stay bit-identical to the committed golden
hashes, and a casp run's timing and data streams are bit-identical to
the equivalent plain-ASP run's.
"""

from __future__ import annotations

from repro.distsim.engines.asp import ASPEngine
from repro.distsim.engines.base import StopCondition, TrainingSession
from repro.mlcore.compression import make_compressor

__all__ = ["CASPEngine", "DEFAULT_COMPRESSION"]

#: Compressor used when the plan does not pick one explicitly.
DEFAULT_COMPRESSION = "qsgd"


class CASPEngine(ASPEngine):
    """ASP with compressed pushes on a dedicated RNG stream."""

    name = "casp"
    precision = 50
    synchronous = False
    config_schema = {
        "batch_size": "per-worker mini-batch size (default: job batch size)",
        "lr_multiplier": "learning-rate scale (default: 1.0)",
        "momentum_schedule": "post-switch momentum ramp (MomentumSchedule)",
        "compression": f"gradient compressor name or instance (default: "
        f"{DEFAULT_COMPRESSION!r})",
    }

    def run(
        self,
        session: TrainingSession,
        steps: int,
        options: dict | None = None,
        stop: StopCondition | None = None,
    ) -> str:
        spec = (options or {}).get("compression", DEFAULT_COMPRESSION)
        self._compressor = (
            make_compressor(spec) if isinstance(spec, str) else spec
        )
        return super().run(session, steps, options, stop)

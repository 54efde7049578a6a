"""Distance kernels used throughout the library.

One layer computes distances: :class:`DistanceEngine`
(:mod:`repro.distance.engine`), blocked single-gemm kernels for one metric
(squared-Euclidean, the paper's setting, or cosine) and one floating dtype
(float32 or float64).  The clustering baselines, the graph builders and the
search stack all call it, so ``dtype`` means the same thing everywhere.
:mod:`repro.distance.kernels` holds what sits around the distances: the
stable top-``count`` selection and :class:`DistanceCounter`.

An optional layer — :mod:`repro.distance.quantized` — compresses a
dataset into ``int8`` codes (:class:`ScalarQuantizer`) and
scores candidates in the compressed domain (:class:`QuantizedScorer`); the
serving stack re-ranks every returned candidate pool with the exact engine,
so quantization trades recall, never distance correctness.

All hot paths are blocked and memory-bounded so million-scale matrices never
have to be materialised at once, and every block costs a single BLAS gemm.
"""

from .engine import DistanceEngine, METRICS, resolve_dtype, resolve_metric
from .kernels import DistanceCounter
from .norms import squared_norms, normalize_rows
from .quantized import (
    QUANTIZE_MODES,
    QuantizedScorer,
    ScalarQuantizer,
    resolve_quantize,
)

__all__ = [
    "DistanceEngine",
    "METRICS",
    "QUANTIZE_MODES",
    "QuantizedScorer",
    "ScalarQuantizer",
    "resolve_metric",
    "resolve_dtype",
    "resolve_quantize",
    "DistanceCounter",
    "squared_norms",
    "normalize_rows",
]

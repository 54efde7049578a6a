"""Scalar-quantized distance kernels with an exact-re-rank contract.

The frontier walk's gemms stream the whole candidate neighbourhood through
memory every round, so the walk is bandwidth-bound long before it is
flop-bound.  Scalar quantization attacks exactly that: the dataset is stored
once in an ``int8`` code matrix (a per-dimension affine transform, 1
byte/dim) and the walk scores candidates *in the compressed domain*.
Because every supported metric reduces to an inner product plus per-row norms
(:meth:`~repro.distance.engine.DistanceEngine.from_inner`), one identity
makes the int8 gemm exact for the *decoded* vectors::

    x_hat = offset + scale * code            (per-dimension affine)
    q . x_hat = q . offset + (q * scale) . code

so a query is folded into the code domain once (``q * scale`` and the
scalar ``q . offset``) and each candidate block costs a single small-operand
gemm.  The approximation error therefore lives entirely in the encoding
``x -> x_hat``, never in the arithmetic.

The recall contract is restored by **exact re-rank**: the walk's final
candidate pool is re-scored with the uncompressed
:class:`~repro.distance.DistanceEngine` (one exact gemm over the merged
pool), so returned distances are exact-metric values and the only effect of
quantization on results is *which* candidates survived the walk.  The
test-pinned floor — quantized recall@10 at or above 0.95x the exact oracle —
lives in ``tests/test_quantized.py``; the speed side of the trade is
the ``mono_int8`` workload of ``bench/run.py``.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ValidationError

__all__ = ["QUANTIZE_MODES", "resolve_quantize", "input_range_dtype",
           "ScalarQuantizer", "QuantizedScorer"]

#: Canonical quantization modes: ``"none"`` (exact kernels only) and
#: ``"int8"`` (per-dimension affine).
QUANTIZE_MODES = ("none", "int8")

#: Accepted spellings -> canonical mode name.
_QUANTIZE_ALIASES = {
    "none": "none",
    "off": "none",
    "int8": "int8",
    "i8": "int8",
}


def resolve_quantize(quantize) -> str:
    """Normalise a quantization spelling to one of :data:`QUANTIZE_MODES`."""
    key = str(quantize).lower().strip()
    if key not in _QUANTIZE_ALIASES:
        raise ValidationError(
            f"unknown quantize mode {quantize!r}; expected one of "
            f"{sorted(QUANTIZE_MODES)} (aliases: off, i8)")
    return _QUANTIZE_ALIASES[key]


def input_range_dtype(quantize: str) -> np.dtype | None:
    """The dtype whose range bounds the inputs of an index serving under
    the canonical mode ``quantize``: float32 for ``"int8"`` —
    :class:`QuantizedScorer` computes in float32 whatever the index dtype,
    so a float64 row beyond the float32 range would overflow its fit and
    its scores — and ``None`` (the index's own dtype) for ``"none"``.
    The ``range_dtype`` of :func:`~repro.validation.check_data_matrix`."""
    return np.dtype(np.float32) if quantize == "int8" else None


class ScalarQuantizer:
    """Per-dimension ``int8`` quantizer for one dataset.

    It fits a per-dimension affine map at build time — ``offset`` is the
    midpoint of the observed range, ``scale`` spans it
    over the symmetric code book ``[-127, 127]`` — and those parameters are
    **fixed for the lifetime of the index**: online inserts are encoded
    with the build-time fit (and persisted with it), so a saved-then-loaded
    index re-encodes to bit-identical codes and serves bit-identical
    results.  Dimensions with zero observed span get ``scale=1`` (every
    code is 0 and decodes to the constant ``offset``, which is exact).

    Parameters
    ----------
    mode:
        ``"int8"`` (or its alias ``"i8"``; ``"none"`` is rejected — an
        exact engine needs no quantizer).
    scale, offset:
        Restored per-dimension parameters (from a saved index).  Fitted
        from the data when omitted.
    """

    def __init__(self, mode: str, *, scale: np.ndarray | None = None,
                 offset: np.ndarray | None = None) -> None:
        self.mode = resolve_quantize(mode)
        if self.mode == "none":
            raise ValidationError(
                "ScalarQuantizer is for quantize='int8'; quantize='none' "
                "uses the exact engine directly")
        self.scale: np.ndarray | None = None
        self.offset: np.ndarray | None = None
        if scale is not None or offset is not None:
            if scale is None or offset is None:
                raise ValidationError(
                    "int8 quantizer parameters must supply both scale "
                    "and offset")
            self.scale = np.asarray(scale, dtype=np.float32).ravel()
            self.offset = np.asarray(offset, dtype=np.float32).ravel()
            if self.scale.shape != self.offset.shape:
                raise ValidationError(
                    f"scale shape {self.scale.shape} does not match offset "
                    f"shape {self.offset.shape}")
            if not np.all(np.isfinite(self.scale)) or \
                    not np.all(np.isfinite(self.offset)):
                raise ValidationError(
                    "quantizer parameters contain NaN or infinite values")
            if np.any(self.scale <= 0):
                raise ValidationError("quantizer scale must be positive")

    @property
    def fitted(self) -> bool:
        """Whether the quantizer is ready to encode (fitted or restored)."""
        return self.scale is not None

    def fit(self, data: np.ndarray) -> "ScalarQuantizer":
        """Fit the per-dimension parameters from ``data``; returns ``self``
        for chaining."""
        data = np.asarray(data, dtype=np.float32)
        lo = data.min(axis=0)
        hi = data.max(axis=0)
        span = hi - lo
        scale = span / 254.0
        scale[span <= 0] = 1.0
        self.scale = np.ascontiguousarray(scale, dtype=np.float32)
        self.offset = np.ascontiguousarray((lo + hi) / 2.0,
                                           dtype=np.float32)
        return self

    def encode(self, data: np.ndarray) -> np.ndarray:
        """Compress rows into the code matrix the scorer gemms against."""
        if not self.fitted:
            raise ValidationError(
                "int8 quantizer must be fitted (or restored) before "
                "encoding")
        data = np.asarray(data, dtype=np.float32)
        codes = np.rint((data - self.offset[None, :])
                        / self.scale[None, :])
        return np.clip(codes, -127, 127).astype(np.int8)

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Reconstruct float32 approximations of encoded rows."""
        if not self.fitted:
            raise ValidationError("int8 quantizer must be fitted before "
                                  "decoding")
        return (self.offset[None, :]
                + self.scale[None, :] * codes.astype(np.float32))

    def __repr__(self) -> str:
        state = "fitted" if self.fitted else "unfitted"
        return f"ScalarQuantizer(mode={self.mode!r}, {state})"


class QuantizedScorer:
    """Compressed-domain distance scoring bound to one encoded dataset.

    Owns the code matrix and the *decoded-row* norms (the norms the metric
    epilogue needs are those of the vectors the inner products are exact
    for — the decoded approximations, not the originals), and turns each
    candidate block into distances with one small-operand gemm.  Distances
    approximate the exact metric through the encoding error only; the
    exact re-rank of :func:`~repro.search.quantized.quantized_batch_search`
    removes even that from the returned values.

    Parameters
    ----------
    engine:
        The exact :class:`~repro.distance.DistanceEngine` whose metric the
        approximate scores must order like.
    quantizer:
        A fitted :class:`ScalarQuantizer`.
    data:
        ``(n, d)`` dataset to encode.
    """

    def __init__(self, engine, quantizer: ScalarQuantizer,
                 data: np.ndarray) -> None:
        if not quantizer.fitted:
            quantizer.fit(data)
        self.engine = engine
        self.quantizer = quantizer
        self.codes = quantizer.encode(data)
        decoded = quantizer.decode(self.codes)
        squared = np.einsum("ij,ij->i", decoded, decoded, dtype=np.float32)
        if engine.metric == "sqeuclidean":
            self._norms = squared
        else:
            lengths = np.sqrt(squared)
            lengths[lengths == 0] = 1.0
            self._norms = lengths

    @property
    def n_rows(self) -> int:
        """Number of encoded dataset rows."""
        return int(self.codes.shape[0])

    def prepare_queries(self, queries: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
        """Fold queries into the code domain, once per batch.

        Returns ``(folded, bias)``: ``folded`` is ``q * scale`` and
        ``bias`` the per-query scalar ``q . offset`` (the two factors of
        the affine inner-product identity).
        """
        queries = np.ascontiguousarray(queries, dtype=np.float32)
        folded = queries * self.quantizer.scale[None, :]
        bias = queries @ self.quantizer.offset
        return folded, bias

    def block(self, folded: np.ndarray, bias: np.ndarray,
              query_norms: np.ndarray,
              rows: np.ndarray) -> np.ndarray:
        """Approximate distances of prepared queries to dataset ``rows``.

        One gemm against the gathered code block; the metric epilogue is
        the same reduction the exact engine applies, evaluated with the
        decoded-row norms.  ``query_norms`` are the **exact** query norms
        (queries are never quantized).  Returns a float32
        ``(n_queries, len(rows))`` block; a 2-D ``(n_queries, w)`` ``rows``
        scores each query against its own row only.
        """
        codes = self.codes[rows].astype(np.float32)
        if rows.ndim == 2:
            inner = np.matmul(codes, folded[:, :, None])[:, :, 0]
        else:
            inner = folded @ codes.T
        inner += bias[:, None]
        row_norms = self._norms[rows]
        if rows.ndim == 1:
            row_norms = row_norms[None, :]
        if self.engine.metric == "sqeuclidean":
            inner *= -2.0
            inner += np.asarray(query_norms,
                                dtype=np.float32)[:, None]
            inner += row_norms
            np.maximum(inner, 0.0, out=inner)
            return inner
        inner /= np.asarray(query_norms, dtype=np.float32)[:, None]
        inner /= row_norms
        np.subtract(1.0, inner, out=inner)
        np.clip(inner, 0.0, 2.0, out=inner)
        return inner

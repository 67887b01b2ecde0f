"""Array lowering of loop orders: per-dimension prefix products and footprints.

Every tile extent the model reads is a product of loop sizes over a prefix
of the loop order, so lowering orders to per-dimension prefix products
turns every ``Mem_DATA`` footprint into a gather and a few products. The
batch evaluator gathers them at each mapping's cuts; the mapper evaluates
every prefix of a chunk of candidate orders to choose all capacity cuts at
once. :func:`repro.mapping.footprint.tile_elements` is the scalar
reference of :func:`tile_elements_array`.
"""

from __future__ import annotations

import numpy as np

from repro.workload.dims import ALL_DIMS, LoopDim
from repro.workload.layer import LayerSpec, LayerType
from repro.workload.operand import Operand

#: Column of each loop dimension in the ``(..., 7)`` extent arrays.
DIM_INDEX = {dim: i for i, dim in enumerate(ALL_DIMS)}
_DIM_COLUMNS = np.arange(len(ALL_DIMS))


def prefix_dim_products(dims: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """``[i, j, d]``: product of dim-``d`` sizes among the first ``j`` loops of order ``i``.

    ``dims`` (:data:`DIM_INDEX` columns) and ``sizes`` are ``(n, L)``;
    size-1 padding is neutral. The result is ``(n, L+1, 7)``.
    """
    n, length = dims.shape
    factors = np.where(dims[:, :, None] == _DIM_COLUMNS, sizes[:, :, None], 1)
    products = np.ones((n, length + 1, len(ALL_DIMS)), dtype=np.int64)
    np.cumprod(factors, axis=1, out=products[:, 1:])
    return products


def clamped_extents(layer: LayerSpec, products, spatial) -> np.ndarray:
    """Temporal x spatial extents per dim, clamped to the layer bounds.

    ``spatial`` (unroll factor per dim) broadcasts against ``products``;
    ceil-induced padding never stores real data, hence the clamp.
    """
    bounds = np.array([layer.size(dim) for dim in ALL_DIMS], dtype=np.int64)
    return np.minimum(products * spatial, bounds)


def tile_elements_array(layer: LayerSpec, operand: Operand, ext: np.ndarray) -> np.ndarray:
    """:func:`~repro.mapping.footprint.tile_elements` over ``(..., 7)`` extents."""
    depthwise = layer.layer_type is LayerType.DEPTHWISE

    def col(dim: LoopDim) -> np.ndarray:
        return ext[..., DIM_INDEX[dim]]

    if operand is Operand.W:
        channels = 1 if depthwise else col(LoopDim.C)
        return col(LoopDim.K) * channels * col(LoopDim.FX) * col(LoopDim.FY)
    if operand is Operand.O:
        return col(LoopDim.B) * col(LoopDim.K) * col(LoopDim.OX) * col(LoopDim.OY)
    ix = (col(LoopDim.OX) - 1) * layer.stride_x + (col(LoopDim.FX) - 1) * layer.dilation_x + 1
    iy = (col(LoopDim.OY) - 1) * layer.stride_y + (col(LoopDim.FY) - 1) * layer.dilation_y + 1
    channels = col(LoopDim.K) if depthwise else col(LoopDim.C)
    return col(LoopDim.B) * channels * ix * iy

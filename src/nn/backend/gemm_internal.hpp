#pragma once

#include <functional>

// CpuBackend-internal GEMM entry point: the packed kernel with a
// caller-supplied B operand.  Kernels that already gather their right-hand
// side (the fused convolution packs directly from the input tensor with
// im2col indexing) plug in here and skip materializing B entirely — one
// gather pass replaces the unfold write + the packing read.  Not part of
// the public Backend contract; see docs/inference.md.

namespace neurfill::nn {

/// Column width of one packed B sliver.  Mirrors the micro-kernel's kNr in
/// cpu_gemm.cpp (static_asserted there).
inline constexpr int kGemmNr = 16;

/// K-slab depth of the cache-blocked GEMM.  Mirrors kKc in cpu_gemm.cpp
/// (static_asserted there).  The direct convolution kernel in
/// cpu_backend.cpp replays this slab boundary — partial sums flushed at
/// every kGemmKc products, flushes combined in ascending slab order — so
/// its per-element accumulation chains are bitwise identical to running
/// the same convolution through im2col + the packed GEMM.
inline constexpr int kGemmKc = 256;

/// Fills packed sliver `s` of the logical (K x N) operand B: K rows of
/// kGemmNr floats each, k-major, columns [s*kGemmNr, s*kGemmNr + kGemmNr)
/// zero-padded past N.  Must be thread-safe and pure: slivers are packed
/// from a parallel loop in an unspecified order.
using GemmPackBFn = std::function<void(int sliver, float* dst)>;

/// C (MxN) = A(MxK) * B, `accumulate=false` overwrites C, with B supplied
/// sliver-by-sliver through `pack_b`.  Same tile/slab decomposition — and
/// therefore bitwise the same result at any thread count — as gemm_nn on a
/// materialized B (see nn/gemm.hpp).
void gemm_packed_b(int M, int N, int K, const float* A,
                   const GemmPackBFn& pack_b, float* C, bool accumulate);

/// Floats of the pre-packed panel gemm_pack_a produces for an (M x K)
/// row-major A operand.  The layout is the driver's internal Mr-interleaved
/// tile/slab panel order and is opaque to callers: a panel is valid only
/// for the exact (M, K) it was packed for.
std::size_t gemm_packed_a_floats(int M, int K);

/// Packs the (M x K) row-major operand A once, for repeated use by
/// gemm_prepacked_a.  Intended for constant operands (inference weights):
/// packing is hoisted out of every subsequent multiply.
void gemm_pack_a(const float* A, int M, int K, float* dst);

/// gemm_packed_b with the A operand supplied as a pre-packed panel from
/// gemm_pack_a.  Runs the identical tile/slab/sliver decomposition and
/// micro-kernel — the panel holds exactly the bytes the driver would have
/// packed in-loop — so the result is bitwise identical to gemm_packed_b on
/// the raw A at any thread count.
void gemm_prepacked_a(int M, int N, int K, const float* packed_a,
                      const GemmPackBFn& pack_b, float* C, bool accumulate);

/// gemm_tn on a column block of a wider operand: C (M x N) = A^T B with A
/// the (K x M) block starting at `A` inside a (K x lda) row-major matrix.
/// Every C element's accumulation chain is the one it has in the full
/// gemm_tn over all lda columns (chains depend on the K-slab split only,
/// never on the row tiling), so computing a product block by block is
/// bitwise identical to computing it at once.
void gemm_tn_block(int M, int N, int K, const float* A, int lda,
                   const float* B, float* C, bool accumulate);

}  // namespace neurfill::nn

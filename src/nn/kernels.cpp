#include "nn/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <type_traits>
#include <vector>

#include "common/aligned.hpp"
#include "common/check.hpp"
#include "common/static_count.hpp"
#include "nn/gemm_internal.hpp"
#include "obs/trace.hpp"
#include "runtime/parallel.hpp"
#include "runtime/thread_pool.hpp"

namespace neurfill::nn {

namespace {

/// Convolutions whose per-sample unfold matrix (C*kh*kw rows x Hout*Wout
/// columns) is at or below this many elements run entirely inside a runtime
/// SerialRegion — im2col/col2im, the packed GEMM, and the bias loops all
/// degrade to inline blocks.  Same treatment as the contact solver's
/// kSerialSolveCells (PR 4): a UNet-encoder-sized layer (16ch 64x64, k3 —
/// the bench shape) splits each sub-loop into blocks of a few hundred
/// microseconds, and at 4 threads the per-loop fork/join handshakes cost
/// more than the parallelism saves (conv2d_fwd_speedup_4t was 0.82 in the
/// old BENCH_runtime.json).  The primitives are bitwise-deterministic, so
/// forcing serial execution changes scheduling only, never results.
constexpr std::size_t kSerialConvUnfoldElems = 1u << 20;

/// Scratch bound (floats) of conv2d_bwd's input-gradient unfold: channels
/// are processed in groups whose kh*kw*Hout*Wout unfold fits, at least one
/// channel per group.  128 KiB per thread instead of the whole layer's
/// unfold, which matters when several fill starts run concurrently.
constexpr std::size_t kDcolFloats = 1u << 15;

/// Grain for flat elementwise loops: ~2 ns per element (load, a few ALU
/// ops, store), converted by runtime::grain_for_cost into ~25 us blocks;
/// loops under ~50 us run inline as a single block instead of forking.
/// Depends only on n — never the thread count — so the block decomposition
/// (and therefore every parallel_reduce combine order) is identical at any
/// thread count.
inline std::size_t elem_grain(std::int64_t n) {
  return runtime::grain_for_cost(2.0, static_cast<std::size_t>(n));
}

/// A 1x1 kernel with unit stride and no padding unfolds to the input
/// itself: im2col would produce a verbatim copy of the (C, H*W) sample, so
/// the GEMM streams the input directly (bitwise the same product).
bool identity_unfold(const Conv2dGeom& g) {
  return g.kernel_h == 1 && g.kernel_w == 1 && g.stride == 1 &&
         g.padding == 0;
}

/// Output extent / unfold-geometry agreement shared by im2col and col2im.
/// The callers derive (Hout, Wout) from (H, W, kernel, stride, pad); a
/// mismatch here means the GEMM that follows would read or scatter past the
/// unfolded buffer.
void check_unfold_geometry(const char* name, int H, int W, int kh, int kw,
                           int stride, int pad, int Hout, int Wout) {
  NF_CHECK(stride >= 1, "%s: stride %d", name, stride);
  NF_CHECK(pad >= 0, "%s: negative padding %d", name, pad);
  NF_CHECK((H + 2 * pad - kh) / stride + 1 == Hout &&
               (W + 2 * pad - kw) / stride + 1 == Wout,
           "%s: output %dx%d disagrees with input %dx%d kernel %dx%d "
           "stride %d pad %d",
           name, Hout, Wout, H, W, kh, kw, stride, pad);
}

/// im2col: unfold (C,H,W) into a (C*kh*kw, Hout*Wout) matrix for kernel
/// (kh,kw), stride s, symmetric zero padding p.
void im2col(const float* x, int C, int H, int W, int kh, int kw, int stride,
            int pad, int Hout, int Wout, float* col) {
  check_unfold_geometry("im2col", H, W, kh, kw, stride, pad, Hout, Wout);
  const int cols = Hout * Wout;
  // Each unfolded row (c, ki, kj) writes a disjoint `cols`-wide slice, so
  // the plane loop parallelizes directly; one plane costs ~1.5 ns per
  // output element (predicated copy), so the grain comes from the cost
  // model and small unfolds run inline.
  const std::size_t planes = static_cast<std::size_t>(C * kh * kw);
  runtime::parallel_for(
      runtime::grain_for_cost(1.5 * static_cast<double>(cols), planes), planes,
      [=](std::size_t p0, std::size_t p1) {
        for (std::size_t p = p0; p < p1; ++p) {
          const int c = static_cast<int>(p) / (kh * kw);
          const int ki = (static_cast<int>(p) / kw) % kh;
          const int kj = static_cast<int>(p) % kw;
          float* dst = col + p * static_cast<std::size_t>(cols);
          for (int oi = 0; oi < Hout; ++oi) {
            const int ii = oi * stride + ki - pad;
            if (ii < 0 || ii >= H) {
              std::memset(dst + oi * Wout, 0,
                          sizeof(float) * static_cast<std::size_t>(Wout));
              continue;
            }
            const float* src = x + (c * H + ii) * W;
            for (int oj = 0; oj < Wout; ++oj) {
              const int jj = oj * stride + kj - pad;
              dst[oi * Wout + oj] = (jj >= 0 && jj < W) ? src[jj] : 0.0f;
            }
          }
        }
      });
}

/// col2im: adjoint of im2col; accumulates into x.
void col2im(const float* col, int C, int H, int W, int kh, int kw, int stride,
            int pad, int Hout, int Wout, float* x) {
  check_unfold_geometry("col2im", H, W, kh, kw, stride, pad, Hout, Wout);
  const int cols = Hout * Wout;
  // The (ki, kj) scatters of one channel overlap each other but never cross
  // channels, so the accumulation parallelizes over c only; within a
  // channel the scatter order is the fixed serial one.  One channel costs
  // ~2 ns per (kernel tap x output element) accumulate.
  const double chan_cost_ns = 2.0 * static_cast<double>(kh * kw) *
                              static_cast<double>(cols);
  runtime::parallel_for(
      runtime::grain_for_cost(chan_cost_ns, static_cast<std::size_t>(C)),
      static_cast<std::size_t>(C), [=](std::size_t c0, std::size_t c1) {
  for (int c = static_cast<int>(c0); c < static_cast<int>(c1); ++c) {
    for (int ki = 0; ki < kh; ++ki) {
      for (int kj = 0; kj < kw; ++kj) {
        const float* src = col + ((c * kh + ki) * kw + kj) * cols;
        // Unit stride: the in-range columns of a tap row are one contiguous
        // shifted run, so the scatter is a branch-free vector add.  Each
        // element still receives one add per tap in the same tap order.
        const int oj_lo = stride == 1 ? std::max(0, pad - kj) : 0;
        const int oj_hi = stride == 1 ? std::min(Wout, W + pad - kj) : 0;
        for (int oi = 0; oi < Hout; ++oi) {
          const int ii = oi * stride + ki - pad;
          if (ii < 0 || ii >= H) continue;
          float* dst = x + (c * H + ii) * W;
          const float* srow = src + oi * Wout;
          if (stride == 1) {
            const int shift = kj - pad;
            for (int oj = oj_lo; oj < oj_hi; ++oj) dst[oj + shift] += srow[oj];
            continue;
          }
          for (int oj = 0; oj < Wout; ++oj) {
            const int jj = oj * stride + kj - pad;
            if (jj >= 0 && jj < W) dst[jj] += srow[oj];
          }
        }
      }
    }
  }
  });
}

/// Packs one kGemmNr-wide column sliver of the im2col matrix of a whole
/// batch directly from the input — element (k, j) of the unfold gathered on
/// the fly, zero-padded past the last column.  The logical B operand is the
/// horizontal concatenation of every sample's im2col matrix, (K x
/// batch*cols), so sliver `s` may straddle sample boundaries: column n*cols
/// + j holds sample n's unfold column j.  Produces exactly the bytes
/// pack_b_sliver would read from a materialized unfold, so each sample's
/// slice of the GEMM is bitwise the per-sample im2col product; the unfold's
/// write pass and the packer's read pass simply disappear.
void pack_conv_sliver_batched(const float* x, int C, int H, int W, int kh,
                              int kw, int stride, int pad, int Hout, int Wout,
                              int batch, int s, float* dst) {
  const int cols = Hout * Wout;
  const int total = batch * cols;
  const int j0 = s * kGemmNr;
  const int nr = std::min(kGemmNr, total - j0);
  int n[kGemmNr], oi[kGemmNr], oj[kGemmNr];
  for (int jj = 0; jj < nr; ++jj) {
    const int jg = j0 + jj;
    n[jj] = jg / cols;
    const int jl = jg % cols;
    oi[jj] = jl / Wout;
    oj[jj] = jl % Wout;
  }
  const int K = C * kh * kw;
  const std::size_t sample_elems = static_cast<std::size_t>(C) * H * W;
  for (int k = 0; k < K; ++k) {
    const int c = k / (kh * kw);
    const int ki = (k / kw) % kh;
    const int kj = k % kw;
    const float* plane = x + static_cast<std::size_t>(c) * H * W;
    float* row = dst + static_cast<std::size_t>(k) * kGemmNr;
    for (int jj = 0; jj < nr; ++jj) {
      const int ii = oi[jj] * stride + ki - pad;
      const int jw = oj[jj] * stride + kj - pad;
      row[jj] = (ii >= 0 && ii < H && jw >= 0 && jw < W)
                    ? plane[n[jj] * sample_elems + ii * W + jw]
                    : 0.0f;
    }
    for (int jj = nr; jj < kGemmNr; ++jj) row[jj] = 0.0f;
  }
}

// ---------------------------------------------------------------------------
// Direct stride-1 convolution (the fused inference path).
//
// Skinny GEMMs dominate the surrogate UNet: M is the output-channel count
// (8..64) while the im2col operand is K x Hout*Wout.  The packed GEMM
// streams that operand through memory three times (unfold write, pack
// write, kernel read), which is the whole cost at these shapes.  The
// direct kernel computes output elements straight from padded input rows:
// zero unfold, zero packing, and the input rows stay in L1 across all
// output channels.
//
// Bitwise contract: every output element accumulates its K products in
// exactly the order the packed GEMM uses — ascending k = (c, ki, kj), a
// fresh partial sum per kGemmKc-slab, partials combined in ascending slab
// order, with the padding zeros participating in the chain just as a
// materialized im2col would have them.  The tile body below uses the same
// expression shape as the GEMM micro-kernel (`acc += w * x`), so the
// compiler makes the same contraction choice in both TUs (both compile
// under NEURFILL_KERNEL_FLAGS) and fused-vs-unfused stays bitwise equal
// (asserted by tests/test_inference.cpp).
// ---------------------------------------------------------------------------

/// Output vectors of the direct kernel.  Lane count is semantically
/// irrelevant — every output element owns an independent per-lane chain —
/// so the job driver picks the widest tile that fits the output row:
/// 16-lane tiles halve the broadcast-load pressure per FLOP on AVX-512
/// hosts (where they map to single zmm registers), 8-lane tiles fit the
/// 16-register AVX2 file and the 8-wide bottleneck rows.  Half and quarter
/// vectors only ever load rows that share a 16-lane vector.
typedef float VOut4 __attribute__((vector_size(4 * sizeof(float))));
typedef float VOut8 __attribute__((vector_size(8 * sizeof(float))));
typedef float VOut16 __attribute__((vector_size(16 * sizeof(float))));

/// Output channels per register tile: every UNet stage width (8/16/32/64)
/// is a multiple, so the one-channel remainder tiles only ever see the
/// 1-channel head.
constexpr int kConvOr = 8;

/// Whether 16-lane vectors are single registers (AVX-512).  Such hosts run
/// 16-lane tiles on wide rows, pack several narrow output rows into one
/// vector (on AVX2 the packed tiles' accumulators alone would overflow the
/// 16-register file and spill), and give narrow planes 16 lanes instead of
/// 8.
#if defined(__AVX512F__)
constexpr bool kConvPairRows = true;
#else
constexpr bool kConvPairRows = false;
#endif

/// Vector of one narrow-plane tile (ConvShape::kNarrow): outputs narrower
/// than it take that shape, except the 8-wide rows and the quad-packed
/// 4-wide planes, so on 16-lane hosts a 9..15-wide row costs one 16-lane
/// vector instead of two 8-lane tiles.
using VNarrow = std::conditional_t<kConvPairRows, VOut16, VOut8>;
constexpr int kConvNarrowLanes =
    static_cast<int>(sizeof(VNarrow) / sizeof(float));

/// How one job's output rows map onto tiles.  Chosen from the output
/// geometry alone (conv_shape), never the thread count.
enum class ConvShape {
  kRow,     ///< one row, walked left to right in column tiles
  kNarrow,  ///< rows narrower than a vector: one vector across padded rows
  kPair8,   ///< two 8-wide rows in one 16-lane vector
  kQuad8,   ///< four 8-wide rows: two row-pair vectors per broadcast
  kPair16,  ///< two 16-wide rows: one vector each, sharing broadcasts
  kQuad4,   ///< four 4-wide rows in one 16-lane vector
};

ConvShape conv_shape(int Wout, int Hout) {
  if (kConvPairRows) {
    if (Wout == 4 && Hout % 4 == 0) return ConvShape::kQuad4;
    if (Wout == 8 && Hout % 4 == 0) return ConvShape::kQuad8;
    if (Wout == 8 && Hout % 2 == 0) return ConvShape::kPair8;
    if (Wout == 16 && Hout % 2 == 0) return ConvShape::kPair16;
  }
  if (Wout < kConvNarrowLanes && Wout != 8) return ConvShape::kNarrow;
  return ConvShape::kRow;
}

/// One job's operands.  `ptrs` holds consecutive row tables of `n_rows` =
/// C*kh entries; entry c*kh + ki of table t points at the padded input row
/// that output row oi+t reads through kernel row ki, shifted by the
/// padding, so index j+kj reads input column j+kj-pad (zero outside the
/// sample).  In the output, row oi+t of a channel starts t*wout floats past
/// row oi, and channels lie `cols` floats apart.
struct ConvJob {
  const float* const* ptrs;
  std::size_t n_rows;
  int K, C, kh, kw;
  int wout;
  std::int64_t cols;
};

/// Loads the input vector of RPV output rows that share one vector: lanes
/// consecutive floats of `row[0]`, or half (RPV = 2) or quarter (RPV = 4)
/// vectors of `row[0..RPV)` combined in registers.  shufflevector compiles
/// to inserts; building the vector through a stack temporary would stall
/// every step on store forwarding.  `xv` is an out-parameter because
/// returning a 16-lane vector by value changes the ABI on 8-lane builds.
template <typename V, int RPV>
inline void conv_load(V& xv, const float* const* row, int kj) {
  if constexpr (RPV == 1) {
    __builtin_memcpy(&xv, row[0] + kj, sizeof xv);
  } else {
    static_assert(std::is_same_v<V, VOut16>, "packed rows fill 16 lanes");
    VOut8 lo, hi;
    if constexpr (RPV == 2) {
      __builtin_memcpy(&lo, row[0] + kj, sizeof lo);
      __builtin_memcpy(&hi, row[1] + kj, sizeof hi);
    } else {
      static_assert(RPV == 4, "1, 2 or 4 rows per vector");
      VOut4 q0, q1, q2, q3;
      __builtin_memcpy(&q0, row[0] + kj, sizeof q0);
      __builtin_memcpy(&q1, row[1] + kj, sizeof q1);
      __builtin_memcpy(&q2, row[2] + kj, sizeof q2);
      __builtin_memcpy(&q3, row[3] + kj, sizeof q3);
      lo = __builtin_shufflevector(q0, q1, 0, 1, 2, 3, 4, 5, 6, 7);
      hi = __builtin_shufflevector(q2, q3, 0, 1, 2, 3, 4, 5, 6, 7);
    }
    xv = __builtin_shufflevector(lo, hi, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                 11, 12, 13, 14, 15);
  }
}

/// The direct kernel's register tile: OC output channels x NV vectors of V,
/// each vector holding RPV output rows of lanes/RPV columns.  One input
/// load per vector feeds OC independent accumulation chains with the input
/// rows shared across channels straight from L1, and the NV vectors share
/// each weight broadcast (OC*NV FMAs per OC broadcasts).  Vector v covers
/// output rows [v*vrows, v*vrows + RPV) of the job at columns
/// j + (vrows ? 0 : v*lanes): side by side in one row when vrows = 0,
/// stacked down the rows when vrows = RPV.  Every lane owns an independent
/// GEMM-ordered chain, so the tile shape never perturbs a single output bit.
///
/// The filters come either raw ([o][k] rows, WP = false) or as the
/// conv_weight_pack transposed panel ([k][o] blocks, WP = true, `wgt`
/// pointing at this kConvOr-channel block); the loaded values and the FMA
/// order are identical either way, so the two instantiations are
/// bitwise-equal and only differ in weight cache behavior.
template <typename V, int OC, int NV, int RPV, bool WP>
__attribute__((always_inline)) inline void conv_tile(const ConvJob& jb,
                                                     const float* wgt, int j,
                                                     int vrows, float* out) {
  constexpr int lanes = static_cast<int>(sizeof(V) / sizeof(float));
  constexpr int seg = lanes / RPV;
  static_assert(!WP || OC == kConvOr, "the packed panel holds full blocks");
  const float* const* ptrs = jb.ptrs;
  const std::size_t n_rows = jb.n_rows;
  const int K = jb.K, C = jb.C, kh = jb.kh, kw = jb.kw;
  const std::int64_t wout = jb.wout, cols = jb.cols;
  // Zeroed element by element: an aggregate `= {}` on these 2-D arrays
  // compiles to two rep stos per call.
  V total[NV][OC], acc[NV][OC];
  for (int v = 0; v < NV; ++v)
    for (int i = 0; i < OC; ++i) total[v][i] = acc[v][i] = V{};
  bool flushed = false;
  int boundary = kGemmKc;
  int k = 0;
  for (int c = 0; c < C; ++c)
    for (int ki = 0; ki < kh; ++ki) {
      const std::size_t rk = static_cast<std::size_t>(c) * kh + ki;
      const float* row[NV][RPV];
      for (int v = 0; v < NV; ++v)
        for (int q = 0; q < RPV; ++q)
          row[v][q] =
              ptrs[static_cast<std::size_t>(v * vrows + q) * n_rows + rk] + j +
              (vrows ? 0 : v * lanes);
      for (int kj = 0; kj < kw; ++kj, ++k) {
        if (k == boundary) {
          for (int v = 0; v < NV; ++v)
            for (int i = 0; i < OC; ++i) {
              total[v][i] = flushed ? total[v][i] + acc[v][i] : acc[v][i];
              acc[v][i] = V{};
            }
          flushed = true;
          boundary += kGemmKc;
        }
        V xv[NV];
        for (int v = 0; v < NV; ++v) conv_load<V, RPV>(xv[v], row[v], kj);
        const float* wk =
            WP ? wgt + static_cast<std::size_t>(k) * OC : wgt + k;
        for (int i = 0; i < OC; ++i) {
          const float wi = WP ? wk[i] : wk[static_cast<std::size_t>(i) * K];
          for (int v = 0; v < NV; ++v) acc[v][i] += wi * xv[v];
        }
      }
    }
  for (int i = 0; i < OC; ++i)
    for (int v = 0; v < NV; ++v) {
      const V r = flushed ? total[v][i] + acc[v][i] : acc[v][i];
      float* dst = out + i * cols + j + (vrows ? v * vrows * wout : v * lanes);
      if constexpr (RPV == 1) {
        // A whole-vector store straight from the register; addressing the
        // vector's floats would route every result through the stack.
        __builtin_memcpy(dst, &r, sizeof r);
      } else {
        const float* rf = reinterpret_cast<const float*>(&r);
        for (int q = 0; q < RPV; ++q)
          __builtin_memcpy(dst + q * wout, rf + q * seg, seg * sizeof(float));
      }
    }
}

/// An out-of-line conv_tile instance, so that each tile the job driver
/// calls gets its own register allocation: inlined together into the
/// driver, the 8-wide quad tiles ran 70% slower.  Narrow planes inline
/// their tile instead — their short rows would pay ~5% for the call and
/// its stack setup (1-thread 12- and 6-wide planes, AVX-512).
template <typename V, int OC, int NV, int RPV, bool WP>
__attribute__((noinline)) void conv_tile_call(const ConvJob& jb,
                                              const float* wgt, int j,
                                              int vrows, float* out) {
  conv_tile<V, OC, NV, RPV, WP>(jb, wgt, j, vrows, out);
}

/// The job driver: output channels [o0, o1) of one job, OC at a time — the
/// channel blocks are the outer loop — with every block's rows mapped onto
/// tiles by `shape`.  `wgt` holds the raw filters, or the conv_weight_pack
/// panel when WP; `out` addresses the job's first row of channel 0, and
/// the job covers `rows` output rows.
///
/// kRow walks the row in two-vector tiles while they fit, then single
/// vectors; a row end that is not a multiple of 8 gets one more 8-lane
/// tile placed flush with it, whose columns shared with the previous tile
/// are recomputed by the same chains (identical bits).
///
/// kNarrow runs one vector over consecutive plane positions starting at
/// padded row oi (the caller materializes the plane, also when P == 0), so
/// its lanes continue from one padded row into the next: lane l is output
/// (oi + l / prow_len, l % prow_len), and lanes whose column is >= Wout are
/// junk.  A vector holds (lanes - Wout) / prow_len + 1 output rows (the
/// job's rows, fewer in a sample's last job); only their valid lanes are
/// copied out.  A valid lane reads only its own channel plane, with the
/// padding zeros in their im2col places, so it keeps the GEMM-ordered
/// chain; junk lanes may read up to one vector past the last plane, which
/// the caller zero-pads.
template <int OC, bool WP>
void conv_direct_job(ConvShape shape, const ConvJob& jb, int rows,
                     int prow_len, const float* wgt, int o0, int o1,
                     float* out) {
  const int Wout = jb.wout;
  const std::size_t K = static_cast<std::size_t>(jb.K);
  const std::int64_t cols = jb.cols;
  switch (shape) {
    case ConvShape::kRow:
      for (int o = o0; o < o1; o += OC) {
        const float* wo = wgt + static_cast<std::size_t>(o) * K;
        float* oc = out + o * cols;
        int j = 0;
        if constexpr (kConvPairRows) {
          for (; j + 32 <= Wout; j += 32)
            conv_tile_call<VOut16, OC, 2, 1, WP>(jb, wo, j, 0, oc);
          for (; j + 16 <= Wout; j += 16)
            conv_tile_call<VOut16, OC, 1, 1, WP>(jb, wo, j, 0, oc);
        } else {
          for (; j + 16 <= Wout; j += 16)
            conv_tile_call<VOut8, OC, 2, 1, WP>(jb, wo, j, 0, oc);
        }
        for (; j + 8 <= Wout; j += 8)
          conv_tile_call<VOut8, OC, 1, 1, WP>(jb, wo, j, 0, oc);
        if (j < Wout)
          conv_tile_call<VOut8, OC, 1, 1, WP>(jb, wo, Wout - 8, 0, oc);
      }
      break;
    case ConvShape::kNarrow: {
      constexpr int lanes = kConvNarrowLanes;
      alignas(sizeof(VNarrow)) float lane_out[OC * lanes];
      ConvJob lj = jb;
      lj.cols = lanes;
      for (int o = o0; o < o1; o += OC) {
        conv_tile<VNarrow, OC, 1, 1, WP>(
            lj, wgt + static_cast<std::size_t>(o) * K, 0, 0, lane_out);
        float* oc = out + o * cols;
        for (int i = 0; i < OC; ++i)
          for (int r = 0; r < rows; ++r)
            std::memcpy(oc + i * cols + static_cast<std::int64_t>(r) * Wout,
                        lane_out + i * lanes + r * prow_len,
                        sizeof(float) * static_cast<std::size_t>(Wout));
      }
      break;
    }
    case ConvShape::kPair8:
      for (int o = o0; o < o1; o += OC)
        conv_tile_call<VOut16, OC, 1, 2, WP>(
            jb, wgt + static_cast<std::size_t>(o) * K, 0, 0, out + o * cols);
      break;
    case ConvShape::kQuad8:
      for (int o = o0; o < o1; o += OC)
        conv_tile_call<VOut16, OC, 2, 2, WP>(
            jb, wgt + static_cast<std::size_t>(o) * K, 0, 2, out + o * cols);
      break;
    case ConvShape::kPair16:
      for (int o = o0; o < o1; o += OC)
        conv_tile_call<VOut16, OC, 2, 1, WP>(
            jb, wgt + static_cast<std::size_t>(o) * K, 0, 1, out + o * cols);
      break;
    case ConvShape::kQuad4:
      for (int o = o0; o < o1; o += OC)
        conv_tile_call<VOut16, OC, 1, 4, WP>(
            jb, wgt + static_cast<std::size_t>(o) * K, 0, 0, out + o * cols);
      break;
  }
}

/// The fused block's activation as a select on a loop-invariant flag, so
/// the epilogue loops vectorize: ReLU keeps unary_map's `v > 0 ? v : 0`
/// (-0 and NaN map to +0), identity passes v through.
inline float activate(bool relu, float v) {
  return relu && !(v > 0.0f) ? 0.0f : v;
}

/// Most GroupNorm groups whose statistics step side by side.  Each group's
/// mean and variance are serial double chains (flat index order, pinned by
/// docs/inference.md), ~4 cycles of FP-add latency per element alone;
/// independent groups' chains interleaved per step overlap that latency.
/// The UNet's layers have at most 8 groups (nn::DoubleConv).
constexpr int kMaxGroupChains = 8;

/// sum[b] = the serial double sum of base[b][0..n), kG groups side by side.
template <int kG>
void group_sums(const float* const* base, std::int64_t n, double* sum) {
  double s[kG] = {};
  for (std::int64_t i = 0; i < n; ++i)
    for (int b = 0; b < kG; ++b) s[b] += static_cast<double>(base[b][i]);
  for (int b = 0; b < kG; ++b) sum[b] = s[b];
}

/// Turns the sums of kG groups of n elements into their means (in place)
/// and inverse standard deviations, the variance chains side by side.  The
/// expressions are the one-group-at-a-time kernel's, so the compiler makes
/// the same contraction choice for `v += d * d`.
template <int kG>
void group_mean_istd(const float* const* base, std::int64_t n, float eps,
                     double* mean, double* istd) {
  double m[kG], v[kG] = {};
  for (int b = 0; b < kG; ++b) m[b] = mean[b] / static_cast<double>(n);
  for (std::int64_t i = 0; i < n; ++i)
    for (int b = 0; b < kG; ++b) {
      const double d = static_cast<double>(base[b][i]) - m[b];
      v[b] += d * d;
    }
  for (int b = 0; b < kG; ++b) {
    mean[b] = m[b];
    istd[b] = 1.0 / std::sqrt(v[b] / static_cast<double>(n) +
                              static_cast<double>(eps));
  }
}

/// y = act(gamma * (x - m) * istd + beta) over one channel row of n floats,
/// with the normalize-then-scale cast points every GroupNorm path shares.
/// In place (y == x) is allowed.
inline void group_norm_row(const float* x, float* y, std::int64_t n, double m,
                           double istd, float gm, float bt, bool relu) {
  for (std::int64_t i = 0; i < n; ++i)
    y[i] = activate(relu,
                    static_cast<float>((static_cast<double>(x[i]) - m) * istd) *
                            gm +
                        bt);
}

template <typename F>
void map_unary(const float* x, float* y, std::int64_t n, F f) {
  runtime::parallel_for(elem_grain(n), static_cast<std::size_t>(n),
                        [=](std::size_t i0, std::size_t i1) {
                          for (std::size_t i = i0; i < i1; ++i) y[i] = f(x[i]);
                        });
}

template <typename F>
void map_binary(const float* a, const float* b, float* y, std::int64_t n,
                F f) {
  runtime::parallel_for(elem_grain(n), static_cast<std::size_t>(n),
                        [=](std::size_t i0, std::size_t i1) {
                          for (std::size_t i = i0; i < i1; ++i)
                            y[i] = f(a[i], b[i]);
                        });
}

}  // namespace

void conv2d_fwd(const Conv2dGeom& g, const float* x, const float* w,
                const float* bias, float* y) {
  NF_TRACE_SPAN("nn.conv2d");
  const int C = g.in_channels, H = g.height, W = g.width;
  const int O = g.out_channels, kh = g.kernel_h, kw = g.kernel_w;
  const int Hout = g.out_height, Wout = g.out_width;
  const int K = C * kh * kw;
  const int cols = Hout * Wout;
  check_unfold_geometry("conv2d_fwd", H, W, kh, kw, g.stride, g.padding, Hout,
                        Wout);
  const bool identity = identity_unfold(g);
  const std::size_t unfold_elems = static_cast<std::size_t>(K) * cols;
  // Small layers fork no jobs at all (see kSerialConvUnfoldElems above).
  // The threshold scales with the batch: a layer too small to be worth
  // forking per sample can still fill every core when the batch axis
  // multiplies the work (batched surrogate inference, training
  // minibatches).  Scheduling only — results are bitwise unchanged.
  std::optional<runtime::ThreadPool::SerialRegion> serial;
  if (unfold_elems * static_cast<std::size_t>(g.batch) <=
      kSerialConvUnfoldElems)
    serial.emplace();
  const std::size_t bias_grain = runtime::grain_for_cost(
      1.0 * static_cast<double>(cols), static_cast<std::size_t>(O));
  // Samples are independent (disjoint output planes), so the batch loop is
  // itself a parallel_for; each sample's per-element arithmetic is a pure
  // function of that sample, so the outer decomposition never changes
  // results.  Inner primitives degrade to inline blocks when the batch
  // level already forked (nested-parallelism rule, docs/runtime.md).  One
  // sample costs ~2*O*cols*K FLOPs at the packed kernel's ~10 FLOP/ns.
  const double sample_ns =
      2.0 * static_cast<double>(O) * static_cast<double>(cols) *
      static_cast<double>(K) / 10.0;
  runtime::parallel_for(
      runtime::grain_for_cost(sample_ns, static_cast<std::size_t>(g.batch)),
      static_cast<std::size_t>(g.batch), [=](std::size_t n0, std::size_t n1) {
        // Persistent unfold scratch: the (K, cols) im2col matrix is rebuilt
        // for every batch element of every conv in the network, so it lives
        // in a grow-only thread-local aligned buffer instead of a per-call
        // vector — zero allocations in steady state, and 64-byte alignment
        // feeds the packed GEMM full cache lines.  The identity unfold
        // (1x1, stride 1, no padding) skips the copy and streams the input
        // sample directly.
        static thread_local AlignedBuffer<float> tls_col;
        float* col = identity ? nullptr : tls_col.ensure(unfold_elems);
        for (std::size_t ns = n0; ns < n1; ++ns) {
          const int n = static_cast<int>(ns);
          const float* xn = x + static_cast<std::int64_t>(n) * C * H * W;
          const float* rhs = xn;
          if (!identity) {
            im2col(xn, C, H, W, kh, kw, g.stride, g.padding, Hout, Wout, col);
            rhs = col;
          }
          float* po = y + static_cast<std::int64_t>(n) * O * cols;
          gemm_nn(O, cols, K, w, rhs, po, false);
          if (bias) {
            runtime::parallel_for(
                bias_grain, static_cast<std::size_t>(O),
                [=](std::size_t o0, std::size_t o1) {
                  for (std::size_t o = o0; o < o1; ++o)
                    for (int i = 0; i < cols; ++i)
                      po[o * static_cast<std::size_t>(cols) + i] += bias[o];
                });
          }
        }
      });
}

void conv2d_bwd(const Conv2dGeom& g, const float* x, const float* w,
                const float* gy, float* gx, float* gw, float* gb) {
  NF_TRACE_SPAN("nn.conv2d_backward");
  const int C = g.in_channels, H = g.height, W = g.width;
  const int O = g.out_channels, kh = g.kernel_h, kw = g.kernel_w;
  const int Hout = g.out_height, Wout = g.out_width;
  const int K = C * kh * kw;
  const int cols = Hout * Wout;
  check_unfold_geometry("conv2d_bwd", H, W, kh, kw, g.stride, g.padding, Hout,
                        Wout);
  NF_CHECK(!gw || x != nullptr, "conv2d_bwd: null x with gw");
  NF_CHECK(!gx || w != nullptr, "conv2d_bwd: null w with gx");
  const bool identity = identity_unfold(g);
  // Same persistent-scratch scheme as the forward pass; separate buffers
  // because dcol is consumed (col2im) while colbuf is still live for the
  // weight gradient.  Only the weight gradient reads the unfolded input, so
  // an input-gradient-only call skips the im2col pass entirely.  The
  // identity unfold needs neither: the weight gradient streams the input
  // directly and the input gradient accumulates straight out of the GEMM
  // (col2im is elementwise += there).
  static thread_local AlignedBuffer<float> tls_colbuf;
  static thread_local AlignedBuffer<float> tls_dcol;
  const std::size_t unfold_elems = static_cast<std::size_t>(K) * cols;
  float* colbuf = (!identity && gw) ? tls_colbuf.ensure(unfold_elems) : nullptr;
  // The input gradient's unfold runs a few channels at a time, bounding
  // dcol to kDcolFloats however wide the layer (see the gx branch below).
  const int taps = kh * kw;
  const int dcol_channels = std::max(
      1, std::min(C, static_cast<int>(kDcolFloats /
                                      (static_cast<std::size_t>(taps) * cols))));
  float* dcol = (!identity && gx)
                    ? tls_dcol.ensure(static_cast<std::size_t>(dcol_channels) *
                                      taps * cols)
                    : nullptr;
  // Same serial threshold as the forward pass: the backward unfolds and
  // GEMMs are the same shapes, plus one col2im scatter.
  std::optional<runtime::ThreadPool::SerialRegion> serial;
  if (unfold_elems <= kSerialConvUnfoldElems) serial.emplace();
  const std::size_t gb_grain = runtime::grain_for_cost(
      1.0 * static_cast<double>(cols), static_cast<std::size_t>(O));
  for (int n = 0; n < g.batch; ++n) {
    const float* gout = gy + static_cast<std::int64_t>(n) * O * cols;
    const float* xn =
        x ? x + static_cast<std::int64_t>(n) * C * H * W : nullptr;
    // The unfolded input is recomputed rather than cached: it is the
    // largest intermediate and recomputation is one im2col pass.
    if (gw) {  // dW += dOut (O,cols) * col^T (cols,K)
      if (!identity)
        im2col(xn, C, H, W, kh, kw, g.stride, g.padding, Hout, Wout, colbuf);
      gemm_nt(O, K, cols, gout, identity ? xn : colbuf, gw, true);
    }
    if (gx) {
      float* gxn = gx + static_cast<std::int64_t>(n) * C * H * W;
      if (identity) {  // dX += W^T (K,O) * dOut (O,cols), no scatter needed
        gemm_tn(K, cols, O, w, gout, gxn, true);
      } else {
        // dcol = W^T (K,O) * dOut (O,cols), one channel group at a time: a
        // group's dcol rows are a column block of W (gemm_tn_block — bitwise
        // those rows of the full product), and col2im scatters a channel's
        // taps into that channel only, so grouping changes no accumulation
        // order; it only bounds the scratch.
        for (int c0 = 0; c0 < C; c0 += dcol_channels) {
          const int gc = std::min(dcol_channels, C - c0);
          gemm_tn_block(gc * taps, cols, O, w + c0 * taps, K, gout, dcol,
                        false);
          col2im(dcol, gc, H, W, kh, kw, g.stride, g.padding, Hout, Wout,
                 gxn + static_cast<std::int64_t>(c0) * H * W);
        }
      }
    }
    if (gb) {
      runtime::parallel_for(
          gb_grain, static_cast<std::size_t>(O),
          [=](std::size_t o0, std::size_t o1) {
            for (std::size_t o = o0; o < o1; ++o) {
              float acc = gb[o];
              for (int i = 0; i < cols; ++i)
                acc += gout[o * static_cast<std::size_t>(cols) + i];
              gb[o] = acc;
            }
          });
    }
  }
}

void unary_map(UnaryKind op, float p, const float* x, float* y,
               std::int64_t n) {
  switch (op) {
    case UnaryKind::kAddScalar:
      map_unary(x, y, n, [p](float v) { return v + p; });
      return;
    case UnaryKind::kMulScalar:
      map_unary(x, y, n, [p](float v) { return v * p; });
      return;
    case UnaryKind::kRelu:
      map_unary(x, y, n, [](float v) { return v > 0.0f ? v : 0.0f; });
      return;
    case UnaryKind::kExp:
      map_unary(x, y, n, [](float v) { return std::exp(v); });
      return;
    case UnaryKind::kLog:
      map_unary(x, y, n, [](float v) { return std::log(v); });
      return;
    case UnaryKind::kAbs:
      map_unary(x, y, n, [](float v) { return std::fabs(v); });
      return;
    case UnaryKind::kSqrt:
      map_unary(x, y, n, [](float v) { return std::sqrt(v); });
      return;
    case UnaryKind::kSquare:
      map_unary(x, y, n, [](float v) { return v * v; });
      return;
    case UnaryKind::kSoftplus:
      map_unary(x, y, n, [p](float v) {
        const float z = p * v;
        // log(1+e^z)/eta, stable for large |z|.
        return z > 20.0f ? v
                         : (z < -20.0f ? std::exp(z) / p
                                       : std::log1p(std::exp(z)) / p);
      });
      return;
  }
  NF_CHECK(false, "unary_map: unknown op %d", static_cast<int>(op));
}

void binary_map(BinaryKind op, const float* a, const float* b, float* y,
                std::int64_t n) {
  switch (op) {
    case BinaryKind::kAdd:
      map_binary(a, b, y, n, [](float u, float v) { return u + v; });
      return;
    case BinaryKind::kSub:
      map_binary(a, b, y, n, [](float u, float v) { return u - v; });
      return;
    case BinaryKind::kMul:
      map_binary(a, b, y, n, [](float u, float v) { return u * v; });
      return;
    case BinaryKind::kDiv:
      map_binary(a, b, y, n, [](float u, float v) { return u / v; });
      return;
  }
  NF_CHECK(false, "binary_map: unknown op %d", static_cast<int>(op));
}

double reduce_sum(const float* x, std::int64_t n) {
  // Deterministic blocked reduction: the per-block partials are combined in
  // block order, so the value is bitwise identical at every thread count.
  return runtime::parallel_reduce(
      elem_grain(n), static_cast<std::size_t>(n), 0.0,
      [=](std::size_t i0, std::size_t i1) {
        double s = 0.0;
        for (std::size_t i = i0; i < i1; ++i)
          s += static_cast<double>(x[i]);
        return s;
      },
      [](double a, double b) { return a + b; });
}

void group_norm_fwd(const GroupNormGeom& g, const float* x, const float* gamma,
                    const float* beta, float* y, double* mean_out,
                    double* istd_out) {
  const int N = g.batch, C = g.channels, H = g.height, W = g.width;
  const int groups = g.groups;
  NF_CHECK(groups > 0 && C % groups == 0,
           "group_norm_fwd: C=%d not divisible by groups=%d", C, groups);
  const int cpg = C / groups;
  const std::int64_t plane = static_cast<std::int64_t>(H) * W;
  const std::int64_t gsize = cpg * plane;
  // A sample's groups run up to kMaxGroupChains at a time: all their
  // statistics first (side by side), then their normalization, so an
  // in-place call (y == x) reads each group before overwriting it.
  for (int n = 0; n < N; ++n)
    for (int g0 = 0; g0 < groups; g0 += kMaxGroupChains) {
      const int k = std::min(kMaxGroupChains, groups - g0);
      with_static_count<kMaxGroupChains>(k, [&](auto kc) {
        constexpr int kG = decltype(kc)::value;
        const std::int64_t off = (static_cast<std::int64_t>(n) * C +
                                  static_cast<std::int64_t>(g0) * cpg) *
                                 plane;
        const float* base[kG];
        for (int b = 0; b < kG; ++b) base[b] = x + off + b * gsize;
        double m[kG], istd[kG];
        group_sums<kG>(base, gsize, m);
        group_mean_istd<kG>(base, gsize, g.eps, m, istd);
        for (int b = 0; b < kG; ++b) {
          const int gi = g0 + b;
          if (mean_out) mean_out[n * groups + gi] = m[b];
          if (istd_out) istd_out[n * groups + gi] = istd[b];
          for (int c = 0; c < cpg; ++c)
            group_norm_row(base[b] + c * plane, y + off + b * gsize + c * plane,
                           plane, m[b], istd[b], gamma[gi * cpg + c],
                           beta[gi * cpg + c], false);
        }
      });
    }
}

// Contraction is off for this function only: the kernel TUs build with
// -march=native, and fusing the double multiply-adds below into FMAs would
// move the input gradient's low bits away from the portable build's (and
// from every fill produced before this kernel moved out of the autograd op).
__attribute__((optimize("fp-contract=off"))) void group_norm_bwd(
    const GroupNormGeom& g, const float* x, const double* mean,
    const double* istd, const float* gamma, const float* gy, float* gx,
    float* ggamma, float* gbeta) {
  const int N = g.batch, C = g.channels, H = g.height, W = g.width;
  const int groups = g.groups;
  NF_CHECK(groups > 0 && C % groups == 0,
           "group_norm_bwd: C=%d not divisible by groups=%d", C, groups);
  const int cpg = C / groups;
  const std::int64_t gsize = static_cast<std::int64_t>(cpg) * H * W;
  for (int n = 0; n < N; ++n) {
    for (int gi = 0; gi < groups; ++gi) {
      const double m = mean[n * groups + gi];
      const double is = istd[n * groups + gi];
      const std::int64_t off = (static_cast<std::int64_t>(n) * C + gi * cpg) * H * W;
      const float* xb = x + off;
      const float* gb = gy + off;
      // dgamma/dbeta, plus the two group-wide sums needed for dx.
      double sum_dxhat = 0.0, sum_dxhat_xhat = 0.0;
      for (int c = 0; c < cpg; ++c) {
        const double gm = gamma[gi * cpg + c];
        const float* xc = xb + static_cast<std::int64_t>(c) * H * W;
        const float* gc = gb + static_cast<std::int64_t>(c) * H * W;
        double dg = 0.0, db = 0.0;
        for (int i = 0; i < H * W; ++i) {
          const double xhat = (static_cast<double>(xc[i]) - m) * is;
          const double dxhat = static_cast<double>(gc[i]) * gm;
          sum_dxhat += dxhat;
          sum_dxhat_xhat += dxhat * xhat;
          dg += static_cast<double>(gc[i]) * xhat;
          db += static_cast<double>(gc[i]);
        }
        if (ggamma) ggamma[gi * cpg + c] += static_cast<float>(dg);
        if (gbeta) gbeta[gi * cpg + c] += static_cast<float>(db);
      }
      if (!gx) continue;
      const double inv_n = 1.0 / static_cast<double>(gsize);
      for (int c = 0; c < cpg; ++c) {
        const double gm = gamma[gi * cpg + c];
        const float* xc = xb + static_cast<std::int64_t>(c) * H * W;
        const float* gc = gb + static_cast<std::int64_t>(c) * H * W;
        float* gxc = gx + off + static_cast<std::int64_t>(c) * H * W;
        for (int i = 0; i < H * W; ++i) {
          const double xhat = (static_cast<double>(xc[i]) - m) * is;
          const double dxhat = static_cast<double>(gc[i]) * gm;
          gxc[i] += static_cast<float>(
              is * (dxhat - inv_n * sum_dxhat - xhat * inv_n * sum_dxhat_xhat));
        }
      }
    }
  }
}

void maxpool2x2_fwd(std::int64_t planes, int height, int width, const float* x,
                    float* y, std::int64_t* argmax) {
  const int H = height, W = width;
  NF_CHECK(H % 2 == 0 && W % 2 == 0, "maxpool2x2_fwd: odd extent %dx%d", H, W);
  const int Ho = H / 2, Wo = W / 2;
  std::int64_t o = 0;
  for (std::int64_t nc = 0; nc < planes; ++nc) {
    const float* plane = x + nc * H * W;
    for (int i = 0; i < Ho; ++i) {
      for (int j = 0; j < Wo; ++j) {
        const std::int64_t base = static_cast<std::int64_t>(2 * i) * W + 2 * j;
        std::int64_t best = base;
        float bv = plane[base];
        for (const std::int64_t cand : {base + 1, base + W, base + W + 1}) {
          if (plane[cand] > bv) {
            bv = plane[cand];
            best = cand;
          }
        }
        y[o] = bv;
        if (argmax) argmax[o] = nc * H * W + best;
        ++o;
      }
    }
  }
}

void upsample2x_fwd(std::int64_t planes, int height, int width, const float* x,
                    float* y) {
  const int H = height, W = width;
  for (std::int64_t nc = 0; nc < planes; ++nc) {
    const float* sp = x + nc * H * W;
    float* dp = y + nc * 4 * H * W;
    for (int i = 0; i < H; ++i) {
      for (int j = 0; j < W; ++j) {
        const float v = sp[i * W + j];
        const std::int64_t b = static_cast<std::int64_t>(2 * i) * 2 * W + 2 * j;
        dp[b] = v;
        dp[b + 1] = v;
        dp[b + 2 * W] = v;
        dp[b + 2 * W + 1] = v;
      }
    }
  }
}

void concat_channels_fwd(int batch, int channels_a, int channels_b,
                         std::int64_t plane, const float* a, const float* b,
                         float* y) {
  const std::int64_t Ca = channels_a, Cb = channels_b;
  for (int n = 0; n < batch; ++n) {
    std::copy(a + n * Ca * plane, a + (n + 1) * Ca * plane,
              y + n * (Ca + Cb) * plane);
    std::copy(b + n * Cb * plane, b + (n + 1) * Cb * plane,
              y + (n * (Ca + Cb) + Ca) * plane);
  }
}

/// Stride-1 outputs at most this wide run a batch of samples as one
/// whole-batch GEMM.  Measured per sample at batch 8 (3x3, 64 -> 64
/// channels, one AVX-512 thread): a 2x2 plane takes 0.009 ms through the
/// fused GEMM against 0.015 ms through per-sample direct kernels, a 3x3
/// plane 0.019 ms against 0.015 ms, a 6x6 plane 0.079 ms against 0.041 ms.
constexpr int kConvBatchGemmMaxWidth = 2;

/// Does the fused block take the packed GEMM for a batch of samples?
/// Strided convs always do (at batch 1 too: the direct kernel is stride-1
/// only), stride-1 convs only at batch > 1 and only on the narrowest
/// outputs; a single stride-1 sample always runs direct.  Geometry-only —
/// batch-independent — so it also selects the conv's one packed weight
/// form (conv_weight_pack); conv2d_gn_act_fwd consumes it directly.
static bool fused_conv_uses_gemm(const Conv2dGeom& g) {
  return g.stride != 1 || g.out_width <= kConvBatchGemmMaxWidth;
}

std::size_t conv_weight_pack_floats(const Conv2dGeom& g) {
  // GEMM convs consume a gemm_pack_a A panel (a single stride-1 sample of
  // such a conv runs direct on the raw filters instead).  Direct-kernel
  // convs consume the filters transposed to [k][o] in kConvOr-channel blocks:
  // the raw [o][k] layout makes every k-step touch kConvOr distinct cache
  // lines (one per output channel), which falls out of L1 as soon as
  // O * K * 4 bytes does — exactly the deep narrow stages; the transposed
  // panel puts each k's block of weights on one line.  Values and FMA
  // order are untouched, so the packed form is bitwise-neutral.  Only full
  // kConvOr blocks are packed; the remainder channels (the 1-channel head)
  // read the raw filters.
  const int K = g.in_channels * g.kernel_h * g.kernel_w;
  if (fused_conv_uses_gemm(g)) return gemm_packed_a_floats(g.out_channels, K);
  return static_cast<std::size_t>(g.out_channels - g.out_channels % kConvOr) *
         static_cast<std::size_t>(K);
}

void conv_weight_pack(const Conv2dGeom& g, const float* w, float* dst) {
  const int O = g.out_channels;
  const int K = g.in_channels * g.kernel_h * g.kernel_w;
  if (fused_conv_uses_gemm(g)) {
    gemm_pack_a(w, O, K, dst);
    return;
  }
  for (int ob = 0; ob + kConvOr <= O; ob += kConvOr)
    for (int k = 0; k < K; ++k)
      for (int i = 0; i < kConvOr; ++i)
        *dst++ = w[static_cast<std::size_t>(ob + i) * K + k];
}

void conv2d_gn_act_fwd(const Conv2dGeom& g, int groups, float eps, ActKind act,
                       const float* x, const float* w,
                       const float* packed_w, const float* bias,
                       const float* gamma, const float* beta, float* y) {
  NF_TRACE_SPAN("nn.conv2d_fused");
  const int C = g.in_channels, H = g.height, W = g.width;
  const int O = g.out_channels, kh = g.kernel_h, kw = g.kernel_w;
  const int Hout = g.out_height, Wout = g.out_width;
  const int K = C * kh * kw;
  const int cols = Hout * Wout;
  check_unfold_geometry("conv2d_gn_act_fwd", H, W, kh, kw, g.stride, g.padding,
                        Hout, Wout);
  NF_CHECK(groups >= 0 && (groups == 0 || O % groups == 0),
           "conv2d_gn_act_fwd: O=%d not divisible by groups=%d", O, groups);
  NF_CHECK(groups == 0 || (gamma && beta),
           "conv2d_gn_act_fwd: normalization without gamma/beta");
  const bool relu = act == ActKind::kRelu;
  const std::size_t unfold_elems = static_cast<std::size_t>(K) * cols;
  // As in conv2d_fwd, the serial threshold scales with the batch so batched
  // inference forks even on layers too small to fork per sample.
  std::optional<runtime::ThreadPool::SerialRegion> serial;
  if (unfold_elems * static_cast<std::size_t>(g.batch) <=
      kSerialConvUnfoldElems)
    serial.emplace();

  bool epilogue_in_kernel = false;
  if (fused_conv_uses_gemm(g) && (g.batch > 1 || g.stride != 1)) {
    // Whole-batch fused GEMM (a strided conv's single sample included):
    // every sample's unfold columns concatenate into one (K x batch*cols)
    // right-hand side gathered straight from the input
    // (pack_conv_sliver_batched, no im2col buffer) and the filters multiply
    // it in a single product.  On the narrowest outputs this beats
    // per-sample direct kernels, which fill few lanes per vector; the
    // batch restores full-width slivers and amortizes every per-call cost
    // across B samples.  Bitwise: each output element's accumulation chain
    // in the wide GEMM is identical to its chain in a per-sample product
    // and in the direct kernel — the K-slab decomposition depends only on
    // K, and columns are independent accumulator lanes — so batch-B stays
    // byte-identical to B batch-1 runs (asserted by tests/test_inference.cpp).
    // A pre-packed panel removes the per-call A packing with the identical
    // decomposition.
    const int NB = g.batch * cols;
    // GEMM output is (O x batch*cols) — sample-minor — while y is
    // (batch x O x cols), so the product lands in scratch and a pure copy
    // fans the rows out per sample.
    static thread_local AlignedBuffer<float> tls_cbig;
    float* cbig = tls_cbig.ensure(static_cast<std::size_t>(O) * NB);
    const auto gather = [=](int s, float* dst) {
      pack_conv_sliver_batched(x, C, H, W, kh, kw, g.stride, g.padding, Hout,
                               Wout, g.batch, s, dst);
    };
    if (packed_w)
      gemm_prepacked_a(O, NB, K, packed_w, gather, cbig, false);
    else
      gemm_packed_b(O, NB, K, w, gather, cbig, false);
    const std::size_t out_rows = static_cast<std::size_t>(g.batch) * O;
    runtime::parallel_for(
        runtime::grain_for_cost(0.5 * cols, out_rows), out_rows,
        [=](std::size_t r0, std::size_t r1) {
          for (std::size_t r = r0; r < r1; ++r) {
            const std::size_t n = r / static_cast<std::size_t>(O);
            const std::size_t o = r % static_cast<std::size_t>(O);
            std::memcpy(y + r * cols,
                        cbig + o * static_cast<std::size_t>(NB) + n * cols,
                        sizeof(float) * static_cast<std::size_t>(cols));
          }
        });
  } else {
    // Direct convolution (see the block comment above conv_tile), at
    // every stride-1 output width.  The zero-padded input plane is
    // materialized ONCE per call (disjoint row writes, any order — the pads
    // are constants), then every output row just indexes into it: the
    // per-output-row jobs touch no scratch beyond a small pointer table, and
    // no input row is copied kh times the way a per-row padding buffer
    // would.  A padding-0 layer needs no plane at all unless it is narrow:
    // the pointers alias the input rows directly (the fused analogue of the
    // identity-unfold im2col skip).  The job partition never changes any
    // element's chain, so the result is bitwise stable at any thread count.
    const int P = g.padding;
    const int plane_h = H + 2 * P;
    const int prow_len = W + 2 * P;
    const std::size_t n_rows = static_cast<std::size_t>(C) * kh;
    // Group adjacent rows per job so the tiles can fill wide vectors
    // (narrow, 4- and 8-wide outputs) and share weight broadcasts across
    // rows (8- and 16-wide); the grouping depends only on the geometry,
    // never the thread count.  A narrow job's rows share one vector and one
    // pointer table; the last job of a sample may hold fewer.
    const ConvShape shape = conv_shape(Wout, Hout);
    const bool narrow = shape == ConvShape::kNarrow;
    const int rpj =
        narrow ? (kConvNarrowLanes - Wout) / prow_len + 1
        : shape == ConvShape::kQuad4 || shape == ConvShape::kQuad8 ? 4
        : shape == ConvShape::kPair8 || shape == ConvShape::kPair16 ? 2
                                                                    : 1;
    const int tables = narrow ? 1 : rpj;
    const int jobs_per_sample = (Hout + rpj - 1) / rpj;
    const std::size_t jobs =
        static_cast<std::size_t>(g.batch) * jobs_per_sample;
    const float* padded = nullptr;
    if (P > 0 || narrow) {
      // Caller-thread grow-only scratch; pool jobs only ever read it.  The
      // zeroed vector of slack past the last plane bounds the narrow
      // kernel's junk-lane reads.
      static thread_local AlignedBuffer<float> tls_padded;
      const std::size_t pad_rows =
          static_cast<std::size_t>(g.batch) * C * plane_h;
      float* pad = tls_padded.ensure(pad_rows * prow_len + kConvNarrowLanes);
      std::memset(pad + pad_rows * prow_len, 0,
                  sizeof(float) * kConvNarrowLanes);
      runtime::parallel_for(
          runtime::grain_for_cost(0.5 * prow_len, pad_rows), pad_rows,
          [=](std::size_t r0, std::size_t r1) {
            for (std::size_t r = r0; r < r1; ++r) {
              const std::size_t nc = r / static_cast<std::size_t>(plane_h);
              const int ii =
                  static_cast<int>(r % static_cast<std::size_t>(plane_h)) - P;
              float* dst = pad + r * prow_len;
              if (ii < 0 || ii >= H) {
                std::memset(dst, 0, sizeof(float) * prow_len);
                continue;
              }
              for (int v = 0; v < P; ++v) dst[v] = 0.0f;
              std::memcpy(dst + P, x + (nc * H + ii) * W, sizeof(float) * W);
              for (int v = 0; v < P; ++v) dst[P + W + v] = 0.0f;
            }
          });
      padded = pad;
    }
    // ~10 sustained FLOP/ns for the register-blocked kernel.
    const double row_ns = 2.0 * static_cast<double>(O) * K *
                          static_cast<double>(Wout) * rpj / 10.0;
    // A GEMM conv's packed form is the GEMM panel, which the direct kernel
    // cannot read; its single samples take the raw filters.
    const float* wpack = fused_conv_uses_gemm(g) ? nullptr : packed_w;
    // The in-kernel epilogue below folds bias+activation into the job that
    // produced the rows (L1-hot) — groups > 0 still needs the full-tensor
    // statistics pass, so normalized layers keep the standalone epilogue.
    const bool fold = groups == 0 && (bias != nullptr || relu);
    epilogue_in_kernel = fold;
    runtime::parallel_for(
        runtime::grain_for_cost(row_ns, jobs), jobs,
        [=](std::size_t r0, std::size_t r1) {
          static thread_local std::vector<const float*> tls_ptrs;
          tls_ptrs.resize(n_rows * static_cast<std::size_t>(tables));
          const float** ptrs = tls_ptrs.data();
          for (std::size_t r = r0; r < r1; ++r) {
            const int n =
                static_cast<int>(r / static_cast<std::size_t>(jobs_per_sample));
            const int oi =
                static_cast<int>(r % static_cast<std::size_t>(jobs_per_sample)) *
                rpj;
            const int rows = std::min(rpj, Hout - oi);
            // Padded row oi+ki holds input row oi+ki-P (zeros outside); with
            // no plane the base aliases the sample and the formula is the
            // same.
            const float* base =
                padded ? padded + (static_cast<std::size_t>(n) * C * plane_h) *
                                      prow_len
                       : x + static_cast<std::int64_t>(n) * C * H * W;
            for (int set = 0; set < tables; ++set)
              for (int c = 0; c < C; ++c)
                for (int ki = 0; ki < kh; ++ki)
                  ptrs[static_cast<std::size_t>(set) * n_rows +
                       static_cast<std::size_t>(c) * kh + ki] =
                      base + (static_cast<std::size_t>(c) * plane_h +
                              static_cast<std::size_t>(oi + ki + set)) *
                                 prow_len;
            float* yrow = y + static_cast<std::int64_t>(n) * O * cols +
                          static_cast<std::int64_t>(oi) * Wout;
            // Full channel blocks, then the O % kConvOr remainder channels
            // one at a time on the raw filters.
            const ConvJob jb{ptrs, n_rows, K, C, kh, kw, Wout, cols};
            const int full = O - O % kConvOr;
            if (wpack)
              conv_direct_job<kConvOr, true>(shape, jb, rows, prow_len, wpack,
                                             0, full, yrow);
            else
              conv_direct_job<kConvOr, false>(shape, jb, rows, prow_len, w, 0,
                                              full, yrow);
            conv_direct_job<1, false>(shape, jb, rows, prow_len, w, full, O,
                                      yrow);
            if (!fold) continue;
            // Bias + activation on the rows this job just wrote, exactly the
            // arithmetic of the standalone epilogue pass (bias add only when
            // a bias exists: adding 0.0f would flip the sign bit of -0.0).
            for (int o = 0; o < O; ++o) {
              float* row = yrow + static_cast<std::int64_t>(o) * cols;
              if (bias) {
                const float bv = bias[o];
                for (int i = 0; i < Wout * rows; ++i)
                  row[i] = activate(relu, row[i] + bv);
              } else {
                for (int i = 0; i < Wout * rows; ++i)
                  row[i] = activate(relu, row[i]);
              }
            }
          }
        });
  }

  // Epilogue.  Bias add, group statistics, normalization, and activation
  // reproduce the unfused kernels' arithmetic exactly: float bias add per
  // element, double mean/variance accumulated over the group in flat index
  // order, the same normalize-then-scale cast points, activation last.
  if (groups > 0) {
    const int cpg = O / groups;
    const std::int64_t gsize = static_cast<std::int64_t>(cpg) * cols;
    // One job per chunk of up to kMaxGroupChains consecutive groups of one
    // sample, their chains stepping together; each group's chains stay the
    // unfused kernels' serial ones, so the result is bitwise identical for
    // any range partition.  ~1 ns per element across the bias, statistics
    // and normalize passes at 8 chains (one AVX-512 thread).
    const int chunks = (groups + kMaxGroupChains - 1) / kMaxGroupChains;
    const std::size_t jobs = static_cast<std::size_t>(g.batch) * chunks;
    const double chunk_ns =
        1.0 * static_cast<double>(std::min(groups, kMaxGroupChains) * gsize);
    runtime::parallel_for(
        runtime::grain_for_cost(chunk_ns, jobs), jobs,
        [=](std::size_t j0, std::size_t j1) {
          for (std::size_t job = j0; job < j1; ++job) {
            const int n = static_cast<int>(job) / chunks;
            const int g0 = (static_cast<int>(job) % chunks) * kMaxGroupChains;
            const int k = std::min(kMaxGroupChains, groups - g0);
            with_static_count<kMaxGroupChains>(k, [=](auto kc) {
              constexpr int kG = decltype(kc)::value;
              float* base[kG];
              for (int b = 0; b < kG; ++b)
                base[b] = y + (static_cast<std::int64_t>(n) * O +
                               static_cast<std::int64_t>(g0 + b) * cpg) *
                                  cols;
              double m[kG], istd[kG];
              if (bias) {
                // Bias lands with the same per-element float rounding as
                // the unfused bias pass; the mean accumulates the stored
                // values in the same flat order the unfused statistics walk.
                double s[kG] = {};
                for (int c = 0; c < cpg; ++c) {
                  float bv[kG];
                  float* rows[kG];
                  for (int b = 0; b < kG; ++b) {
                    bv[b] = bias[(g0 + b) * cpg + c];
                    rows[b] = base[b] + static_cast<std::int64_t>(c) * cols;
                  }
                  for (int i = 0; i < cols; ++i)
                    for (int b = 0; b < kG; ++b) {
                      const float v = rows[b][i] + bv[b];
                      rows[b][i] = v;
                      s[b] += static_cast<double>(v);
                    }
                }
                for (int b = 0; b < kG; ++b) m[b] = s[b];
              } else {
                group_sums<kG>(base, gsize, m);
              }
              group_mean_istd<kG>(base, gsize, eps, m, istd);
              for (int b = 0; b < kG; ++b)
                for (int c = 0; c < cpg; ++c) {
                  const int ch = (g0 + b) * cpg + c;
                  float* row = base[b] + static_cast<std::int64_t>(c) * cols;
                  group_norm_row(row, row, cols, m[b], istd[b], gamma[ch],
                                 beta[ch], relu);
                }
            });
          }
        });
  } else if (!epilogue_in_kernel && (bias || relu)) {
    const std::size_t rows = static_cast<std::size_t>(g.batch) * O;
    runtime::parallel_for(
        runtime::grain_for_cost(2.0 * static_cast<double>(cols), rows), rows,
        [=](std::size_t r0, std::size_t r1) {
          for (std::size_t r = r0; r < r1; ++r) {
            const int o = static_cast<int>(r % static_cast<std::size_t>(O));
            float* row = y + r * static_cast<std::size_t>(cols);
            if (bias) {
              const float bv = bias[o];
              for (int i = 0; i < cols; ++i)
                row[i] = activate(relu, row[i] + bv);
            } else {
              for (int i = 0; i < cols; ++i) row[i] = activate(relu, row[i]);
            }
          }
        });
  }
}

}  // namespace neurfill::nn

#include "nn/gemm.hpp"

#include <algorithm>
#include <cstddef>
#include <cstring>

#include "common/aligned.hpp"
#include "nn/backend/gemm_internal.hpp"
#include "common/check.hpp"
#include "obs/trace.hpp"
#include "runtime/parallel.hpp"

// Cache-blocked, register-tiled GEMM (BLIS-style), shared by all three
// transpose variants.
//
// Decomposition:
//   * B is packed once per call into column slivers of kNr columns, each
//     sliver stored k-major and contiguous, zero-padded to kNr.  Packing
//     absorbs the transpose of the `nt` variant, so the inner kernel always
//     streams B unit-stride.
//   * The row dimension is cut into tiles of kMc rows.  For each K-slab of
//     kKc, a tile packs its slice of A into an Mr-interleaved panel (again
//     absorbing the `tn` transpose) and then walks B slivers, computing one
//     kMr x kNr register tile per (row sliver, column sliver) pair.
//   * The micro-kernel is plain C written so the compiler vectorizes the
//     kNr-wide j-loop into FMAs and keeps the kMr*kNr accumulator in
//     registers; there is no data-dependent branching in the hot loop.
//
// Determinism: the tile/slab/sliver decomposition is a pure function of
// (M, N, K) — never of the thread count — and each C element is written by
// exactly one parallel block (the one owning its row tile and column
// chunk) across every K-slab, with K-slabs processed in ascending order by
// that owner.  Every C element therefore accumulates its products in the
// same fixed order at any thread count, making results bitwise identical
// from 1 thread to N (asserted by tests/test_runtime.cpp).  Within one
// element the order is: slab partials in ascending k-slab order, each
// partial summed over ascending k.
//
// Parallel grain: blocks are (row tile, column chunk) pairs; the grain is
// derived from the per-block FLOP count via runtime::grain_for_cost with
// the sustained kernel throughput measured by bench/bench_runtime_scaling,
// so small products run inline and large ones split into ~25 us blocks.

namespace neurfill::nn {

namespace {

// Micro/cache tile sizes.  kMr x kNr is the register tile: kNr floats span
// two 8-wide (or one 16-wide) FMA vector, and kMr = 6 rows leave enough
// vector registers for the B row and the broadcast of A even on 16-register
// AVX2.  kKc sizes the packed panels: a B sliver slab (kKc * kNr floats)
// stays resident in L1 while kMc/kMr row slivers stream over it, and an A
// tile panel (kMc * kKc floats, ~96 KiB) stays in L2.
constexpr int kMr = 6;
constexpr int kNr = 16;
constexpr int kKc = 256;
static_assert(kKc == kGemmKc,
              "gemm_internal.hpp advertises the K-slab depth to the direct "
              "convolution kernel");
constexpr int kMc = 96;
static_assert(kMc % kMr == 0, "row tiles must hold whole A slivers");
static_assert(kNr == kGemmNr,
              "gemm_internal.hpp advertises the packed sliver width");

/// Sustained packed-kernel throughput in FLOP/ns, measured single-threaded
/// by bench_runtime_scaling on the baseline machine; used only to convert
/// tile FLOPs into block cost for grain derivation.
constexpr double kKernelFlopsPerNs = 15.0;

/// ~cost of packing one element (strided load + contiguous store), ns.
constexpr double kPackNsPerElem = 0.5;

/// Shared precondition for every kernel: non-negative dimensions and, when
/// the product is non-empty, live buffers to stream through.
void check_gemm_args(const char* name, int M, int N, int K, const float* A,
                     const float* B, const float* C) {
  NF_CHECK(M >= 0 && N >= 0 && K >= 0, "%s: negative dimension M=%d N=%d K=%d",
           name, M, N, K);
  if (M > 0 && N > 0) {
    NF_CHECK(C != nullptr, "%s: null C with M=%d N=%d", name, M, N);
    if (K > 0)
      NF_CHECK(A != nullptr && B != nullptr, "%s: null input operand", name);
  }
}

/// Multiply-add count of one product, for the nn.gemm_flops counter.
/// Unused when the tracing macros are compiled out.
[[maybe_unused]] std::int64_t gemm_flops(int M, int N, int K) {
  return std::int64_t{2} * M * N * K;
}

constexpr int ceil_div(int a, int b) { return (a + b - 1) / b; }

/// Is the A operand stored (M x K) row-major, or (K x M) with the kernel
/// consuming its transpose?  Same question for B with (K x N) vs (N x K).
enum class Op { kNone, kTrans };

/// Packs column sliver `s` of the (logical K x N) operand B into `dst`:
/// K rows of kNr floats each, zero-padded past column N.
void pack_b_sliver(Op op, const float* b, int K, int N, int s, float* dst) {
  const int j0 = s * kNr;
  const int nr = std::min(kNr, N - j0);
  if (op == Op::kNone) {  // B is (K x N) row-major: contiguous row chunks
    for (int k = 0; k < K; ++k) {
      const float* src = b + static_cast<std::size_t>(k) * N + j0;
      float* row = dst + static_cast<std::size_t>(k) * kNr;
      for (int jj = 0; jj < nr; ++jj) row[jj] = src[jj];
      for (int jj = nr; jj < kNr; ++jj) row[jj] = 0.0f;
    }
  } else {  // B is (N x K): gather one column of it per packed lane
    for (int k = 0; k < K; ++k) {
      float* row = dst + static_cast<std::size_t>(k) * kNr;
      for (int jj = 0; jj < nr; ++jj)
        row[jj] = b[static_cast<std::size_t>(j0 + jj) * K + k];
      for (int jj = nr; jj < kNr; ++jj) row[jj] = 0.0f;
    }
  }
}

/// Packs `mr` rows of the (logical M x K) operand A, rows [i0, i0+mr),
/// K-slab [k0, k0+kc), into an Mr-interleaved panel: kc groups of kMr
/// floats, zero-padded past row mr.  `lda` is A's storage row stride: K
/// for a (M x K) row-major A, M for a (K x M) one — or wider when A is a
/// block of a larger matrix.
void pack_a_sliver(Op op, const float* a, int lda, int i0, int mr, int k0,
                   int kc, float* dst) {
  if (op == Op::kNone) {  // A is (M x K) row-major
    for (int k = 0; k < kc; ++k) {
      float* group = dst + static_cast<std::size_t>(k) * kMr;
      for (int ii = 0; ii < mr; ++ii)
        group[ii] = a[static_cast<std::size_t>(i0 + ii) * lda + (k0 + k)];
      for (int ii = mr; ii < kMr; ++ii) group[ii] = 0.0f;
    }
  } else {  // A is (K x M): each k group is a contiguous run of M-storage
    for (int k = 0; k < kc; ++k) {
      const float* src = a + static_cast<std::size_t>(k0 + k) * lda + i0;
      float* group = dst + static_cast<std::size_t>(k) * kMr;
      for (int ii = 0; ii < mr; ++ii) group[ii] = src[ii];
      for (int ii = mr; ii < kMr; ++ii) group[ii] = 0.0f;
    }
  }
}

/// Register-tile kernel: acc(kMr x kNr) = sum over kc of a-group outer
/// b-row, then stored into (or added to) the mr x nr live corner of C.
/// `ap`/`bp` are packed panels, fully padded, so the loop nest is branch
/// free.  The kNr-wide rows are expressed with GCC/Clang vector extensions
/// (one 64-byte vector per accumulator row) rather than left to the
/// auto-vectorizer, which keeps the kMr accumulators in vector registers
/// and lowers `a * b` to broadcast FMAs on every ISA width (1 zmm, 2 ymm,
/// or 4 xmm per row).  Vector semantics are lane-wise, so the per-element
/// sum order — and with it the bitwise result — is identical to the scalar
/// fallback's ascending-k chain.
#if defined(__GNUC__) || defined(__clang__)
#define NEURFILL_GEMM_VECTOR_EXT 1
typedef float VNr __attribute__((vector_size(kNr * sizeof(float))));
#endif

void micro_kernel(int kc, const float* __restrict__ ap,
                  const float* __restrict__ bp, float* __restrict__ c,
                  int ldc, int mr, int nr, bool overwrite) {
  float acc[kMr * kNr] = {};
#if NEURFILL_GEMM_VECTOR_EXT
  {
    VNr vacc[kMr] = {};
    for (int k = 0; k < kc; ++k) {
      VNr b;
      __builtin_memcpy(&b, bp + static_cast<std::size_t>(k) * kNr, sizeof b);
      const float* __restrict__ a = ap + static_cast<std::size_t>(k) * kMr;
      for (int i = 0; i < kMr; ++i) vacc[i] += a[i] * b;
    }
    __builtin_memcpy(acc, vacc, sizeof vacc);
  }
#else
  for (int k = 0; k < kc; ++k) {
    const float* __restrict__ b = bp + static_cast<std::size_t>(k) * kNr;
    const float* __restrict__ a = ap + static_cast<std::size_t>(k) * kMr;
    for (int i = 0; i < kMr; ++i) {
      const float av = a[i];
      float* __restrict__ acci = acc + static_cast<std::size_t>(i) * kNr;
      for (int j = 0; j < kNr; ++j) acci[j] += av * b[j];
    }
  }
#endif
  if (mr == kMr && nr == kNr) {  // full tile: vectorizable writeback
    if (overwrite) {
      for (int i = 0; i < kMr; ++i)
        for (int j = 0; j < kNr; ++j)
          c[static_cast<std::size_t>(i) * ldc + j] =
              acc[static_cast<std::size_t>(i) * kNr + j];
    } else {
      for (int i = 0; i < kMr; ++i)
        for (int j = 0; j < kNr; ++j)
          c[static_cast<std::size_t>(i) * ldc + j] +=
              acc[static_cast<std::size_t>(i) * kNr + j];
    }
  } else {  // edge tile: only the live corner exists in C
    for (int i = 0; i < mr; ++i) {
      float* crow = c + static_cast<std::size_t>(i) * ldc;
      const float* arow = acc + static_cast<std::size_t>(i) * kNr;
      if (overwrite) {
        for (int j = 0; j < nr; ++j) crow[j] = arow[j];
      } else {
        for (int j = 0; j < nr; ++j) crow[j] += arow[j];
      }
    }
  }
}

/// Offset of row tile `t`'s panel inside a gemm_pack_a buffer.  Tiles
/// before `t` are all full (kMc rows, kMc/kMr slivers) and contribute
/// t_slivers * K * kMr floats each; within a tile, slab k0's block starts
/// after its t_slivers * k0 * kMr predecessor floats (all earlier slabs are
/// kKc deep).
std::size_t packed_a_tile_offset(int t, int K) {
  return static_cast<std::size_t>(t) * (kMc / kMr) * K * kMr;
}

/// The driver proper, generic over how B slivers are produced: the three
/// public transpose variants pack from a materialized B, gemm_packed_b
/// forwards a caller gather.  Everything after packing is identical, so all
/// entries share one decomposition and one bitwise-determinism argument.
/// When `prepacked_a` is non-null it holds the gemm_pack_a panel for A and
/// the in-loop A packing is skipped (A itself may then be null).  `lda`
/// overrides A's storage stride (default: the natural one for `aop`).
template <typename PackB>
void gemm_driver_impl(int M, int N, int K, const float* A,
                      const PackB& pack_b_fn, float* C, bool accumulate,
                      Op aop, const float* prepacked_a = nullptr,
                      int lda = -1) {
  if (lda < 0) lda = aop == Op::kNone ? K : M;
  NF_TRACE_SPAN("nn.gemm");
  NF_COUNTER_ADD("nn.gemm_flops", gemm_flops(M, N, K));
  if (M <= 0 || N <= 0) return;
  if (K <= 0) {
    if (!accumulate)
      std::memset(C, 0,
                  sizeof(float) * static_cast<std::size_t>(M) *
                      static_cast<std::size_t>(N));
    return;
  }

  // Pack B once per call.  The buffer is thread_local: it belongs to this
  // invocation on the calling thread (grow-only, so steady-state GEMM does
  // no allocation at all); pool workers write disjoint slivers of it during
  // the packing job below, and the pool's join orders those writes before
  // the compute job reads them.
  const int n_slivers = ceil_div(N, kNr);
  static thread_local AlignedBuffer<float> tls_bp;
  float* bp = tls_bp.ensure(static_cast<std::size_t>(n_slivers) * K * kNr);
  {
    const double sliver_ns = kPackNsPerElem * K * kNr;
    runtime::parallel_for(
        runtime::grain_for_cost(sliver_ns, static_cast<std::size_t>(n_slivers)),
        static_cast<std::size_t>(n_slivers),
        [&](std::size_t s0, std::size_t s1) {
          for (std::size_t s = s0; s < s1; ++s)
            pack_b_fn(static_cast<int>(s),
                      bp + s * static_cast<std::size_t>(K) * kNr);
        });
  }

  // Parallel blocks are (row tile, column chunk) pairs.  The column split
  // matters for the skinny prepacked products the inference path produces
  // (M = output channels, a handful of row slivers; N = batch x pixels,
  // thousands of columns): row tiles alone would leave one block and zero
  // scaling.  It is gated on prepacked_a because for the materialized-A
  // paths row tiles already occupy the pool, and the finer jobs plus the
  // per-chunk A re-pack measurably cost the mid-size autograd GEMMs at 4
  // threads (bench_runtime_scaling conv2d_fwd_speedup_4t).  Each C element
  // is still written by exactly one block — the one owning its (tile,
  // chunk) — across every K-slab, slabs in ascending order, so the
  // per-element accumulation chain is untouched by the extra split (a pure
  // function of (M, N, K) and the packing mode, never of the thread
  // count).
  const int m_tiles = ceil_div(M, kMc);
  constexpr int kNChunkSlivers = 16;  // 256 columns per chunk
  const int chunk_slivers = prepacked_a ? kNChunkSlivers : n_slivers;
  const int n_chunks = ceil_div(n_slivers, chunk_slivers);
  const std::size_t jobs =
      static_cast<std::size_t>(m_tiles) * static_cast<std::size_t>(n_chunks);
  const double job_ns = 2.0 * std::min(M, kMc) *
                        static_cast<double>(std::min(N, chunk_slivers * kNr)) *
                        static_cast<double>(K) / kKernelFlopsPerNs;
  runtime::parallel_for(
      runtime::grain_for_cost(job_ns, jobs), jobs,
      [=](std::size_t j0, std::size_t j1) {
        // Per-thread A panel scratch (kMc x kKc floats, ~96 KiB), reused
        // across every tile and every call this thread ever runs.
        static thread_local AlignedBuffer<float> tls_ap;
        float* scratch_ap =
            prepacked_a ? nullptr
                        : tls_ap.ensure(static_cast<std::size_t>(kMc) * kKc);
        for (std::size_t j = j0; j < j1; ++j) {
          const std::size_t t = j / static_cast<std::size_t>(n_chunks);
          const int js0 = static_cast<int>(j % static_cast<std::size_t>(
                                                   n_chunks)) *
                          chunk_slivers;
          const int js1 = std::min(n_slivers, js0 + chunk_slivers);
          const int i0 = static_cast<int>(t) * kMc;
          const int tile_rows = std::min(kMc, M - i0);
          const int t_slivers = ceil_div(tile_rows, kMr);
          for (int k0 = 0; k0 < K; k0 += kKc) {
            const int kc = std::min(kKc, K - k0);
            const bool overwrite = (k0 == 0) && !accumulate;
            const float* ap;
            if (prepacked_a) {
              ap = prepacked_a + packed_a_tile_offset(static_cast<int>(t), K) +
                   static_cast<std::size_t>(t_slivers) * k0 * kMr;
            } else {
              for (int is = 0; is < t_slivers; ++is)
                pack_a_sliver(aop, A, lda, i0 + is * kMr,
                              std::min(kMr, tile_rows - is * kMr), k0, kc,
                              scratch_ap + static_cast<std::size_t>(is) * kc *
                                               kMr);
              ap = scratch_ap;
            }
            for (int js = js0; js < js1; ++js) {
              const float* bps =
                  bp + (static_cast<std::size_t>(js) * K + k0) * kNr;
              const int nr = std::min(kNr, N - js * kNr);
              for (int is = 0; is < t_slivers; ++is) {
                const int mr = std::min(kMr, tile_rows - is * kMr);
                micro_kernel(kc,
                             ap + static_cast<std::size_t>(is) * kc * kMr, bps,
                             C +
                                 static_cast<std::size_t>(i0 + is * kMr) * N +
                                 static_cast<std::size_t>(js) * kNr,
                             N, mr, nr, overwrite);
              }
            }
          }
        }
      });
}

void gemm_driver(const char* name, Op aop, Op bop, int M, int N, int K,
                 const float* A, const float* B, float* C, bool accumulate) {
  check_gemm_args(name, M, N, K, A, B, C);
  gemm_driver_impl(
      M, N, K, A,
      [&](int s, float* dst) { pack_b_sliver(bop, B, K, N, s, dst); }, C,
      accumulate, aop);
}

}  // namespace

void gemm_packed_b(int M, int N, int K, const float* A,
                   const GemmPackBFn& pack_b, float* C, bool accumulate) {
  NF_CHECK(M >= 0 && N >= 0 && K >= 0,
           "gemm_packed_b: negative dimension M=%d N=%d K=%d", M, N, K);
  if (M > 0 && N > 0) {
    NF_CHECK(C != nullptr, "gemm_packed_b: null C with M=%d N=%d", M, N);
    if (K > 0)
      NF_CHECK(A != nullptr && pack_b != nullptr,
               "gemm_packed_b: null input operand");
  }
  gemm_driver_impl(M, N, K, A, pack_b, C, accumulate, Op::kNone);
}

std::size_t gemm_packed_a_floats(int M, int K) {
  NF_CHECK(M >= 0 && K >= 0, "gemm_packed_a_floats: negative dimension M=%d K=%d",
           M, K);
  std::size_t slivers = 0;
  for (int i0 = 0; i0 < M; i0 += kMc)
    slivers += static_cast<std::size_t>(ceil_div(std::min(kMc, M - i0), kMr));
  return slivers * static_cast<std::size_t>(K) * kMr;
}

void gemm_pack_a(const float* A, int M, int K, float* dst) {
  NF_CHECK(M >= 0 && K >= 0, "gemm_pack_a: negative dimension M=%d K=%d", M, K);
  if (M <= 0 || K <= 0) return;
  NF_CHECK(A != nullptr && dst != nullptr, "gemm_pack_a: null operand");
  // Serial: runs once per constant operand (session compile), not per GEMM.
  const int m_tiles = ceil_div(M, kMc);
  for (int t = 0; t < m_tiles; ++t) {
    const int i0 = t * kMc;
    const int tile_rows = std::min(kMc, M - i0);
    const int t_slivers = ceil_div(tile_rows, kMr);
    float* tile_dst = dst + packed_a_tile_offset(t, K);
    for (int k0 = 0; k0 < K; k0 += kKc) {
      const int kc = std::min(kKc, K - k0);
      float* slab_dst = tile_dst + static_cast<std::size_t>(t_slivers) * k0 * kMr;
      for (int is = 0; is < t_slivers; ++is)
        pack_a_sliver(Op::kNone, A, K, i0 + is * kMr,
                      std::min(kMr, tile_rows - is * kMr), k0, kc,
                      slab_dst + static_cast<std::size_t>(is) * kc * kMr);
    }
  }
}

void gemm_prepacked_a(int M, int N, int K, const float* packed_a,
                      const GemmPackBFn& pack_b, float* C, bool accumulate) {
  NF_CHECK(M >= 0 && N >= 0 && K >= 0,
           "gemm_prepacked_a: negative dimension M=%d N=%d K=%d", M, N, K);
  if (M > 0 && N > 0) {
    NF_CHECK(C != nullptr, "gemm_prepacked_a: null C with M=%d N=%d", M, N);
    if (K > 0)
      NF_CHECK(packed_a != nullptr && pack_b != nullptr,
               "gemm_prepacked_a: null input operand");
  }
  gemm_driver_impl(M, N, K, static_cast<const float*>(nullptr), pack_b, C,
                   accumulate, Op::kNone, packed_a);
}

void gemm_nn(int M, int N, int K, const float* A, const float* B, float* C,
             bool accumulate) {
  gemm_driver("gemm_nn", Op::kNone, Op::kNone, M, N, K, A, B, C, accumulate);
}

void gemm_nt(int M, int N, int K, const float* A, const float* B, float* C,
             bool accumulate) {
  gemm_driver("gemm_nt", Op::kNone, Op::kTrans, M, N, K, A, B, C, accumulate);
}

void gemm_tn(int M, int N, int K, const float* A, const float* B, float* C,
             bool accumulate) {
  gemm_driver("gemm_tn", Op::kTrans, Op::kNone, M, N, K, A, B, C, accumulate);
}

void gemm_tn_block(int M, int N, int K, const float* A, int lda,
                   const float* B, float* C, bool accumulate) {
  check_gemm_args("gemm_tn_block", M, N, K, A, B, C);
  NF_CHECK(lda >= M, "gemm_tn_block: lda %d < M %d", lda, M);
  gemm_driver_impl(
      M, N, K, A,
      [&](int s, float* dst) { pack_b_sliver(Op::kNone, B, K, N, s, dst); },
      C, accumulate, Op::kTrans, nullptr, lda);
}

}  // namespace neurfill::nn

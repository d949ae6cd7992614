#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/aligned.hpp"
#include "nn/backend/backend.hpp"
#include "nn/tensor.hpp"
#include "nn/unet.hpp"

// Tape-free inference engine (docs/inference.md).  An InferenceSession
// compiles a UNet into a static, topologically ordered op graph once —
// fused conv+groupnorm+activation blocks, pool/upsample/concat nodes, and
// a liveness-planned arena of reused activation buffers — then executes
// forward passes with zero steady-state allocation.  The same graph also
// runs in reverse (run_saving + run_vjp): input cotangents for frozen
// weights, planned at compile time.  Results are bitwise identical to the
// autograd module evaluation and input gradient at any thread count
// (pinned by tests/test_inference.cpp), because every kernel reproduces
// the same accumulation orders through the same compute backend.
//
// This directory is lint-enforced tape-free: nf_lint's infer-no-autograd
// rule forbids the tape API surface here, so the engine can never silently
// regress into building autograd state.

namespace neurfill::nn {

struct InferenceOptions {
  /// Reuse activation buffers once their last consumer has executed
  /// (liveness-planned arena).  Off gives every value a private block —
  /// the aliasing-free reference the arena planner is tested against.
  bool reuse_buffers = true;
  /// Execute conv blocks through the fused conv+groupnorm+activation
  /// kernel.  Off runs the unfused backend kernel chain in place — the
  /// fusion-free reference path.
  bool fuse = true;
  /// Pre-pack constant conv weight panels at compile time through the
  /// backend (Backend::conv_weight_pack), hoisting the GEMM's per-call A
  /// packing out of every forward.  Results are bitwise identical either
  /// way; off keeps the pack-per-call reference path.
  bool prepack_weights = true;
  /// Plan the per-thread arena for at least this batch size on the first
  /// run(), so a session that alternates batch sizes up to `max_batch`
  /// reaches zero steady-state allocation immediately instead of growing
  /// on the first large batch.  Larger run() batches still work (the arena
  /// grows once).  Clamped to >= 1.
  int max_batch = 1;
};

class InferenceSession {
 public:
  /// Compiles `net` for inputs of spatial extent height x width (each must
  /// be positive and divisible by 2^depth).  Parameter storage is shared
  /// with (and kept alive independently of) `net`.  Weights are treated as
  /// constant from compile time on: layers with a backend packed form are
  /// snapshotted into pre-packed panels here (InferenceOptions::
  /// prepack_weights), so mutating parameters after construction is
  /// unsupported — rebuild the session after weight updates.
  InferenceSession(const UNet& net, int height, int width,
                   InferenceOptions options = {});

  /// One batched NCHW pass: `input` is [batch, in_channels, H, W],
  /// `output` is [batch, out_channels, H, W], both caller-owned and
  /// non-overlapping.  Thread-safe (per-thread arena) and deterministic:
  /// the result is bitwise identical at any thread count, and a batch-B
  /// call equals B batch-1 calls sample for sample.  Steady state performs
  /// no allocation: the arena is a grow-only thread_local buffer.
  void run(const float* input, float* output, int batch = 1) const;

  /// Floats of the record run_saving() fills for one run_vjp() call.
  std::size_t saved_floats() const { return saved_floats_; }

  /// Batch-1 forward pass that also records, into `saved` (saved_floats()
  /// caller-owned floats, 8-byte aligned), what the reverse pass reads:
  /// each GroupNorm block's pre-norm conv output with its per-group mean and
  /// inverse standard deviation, each ReLU block's activation mask (one
  /// bit per element), and each max pool's argmax.  Activations themselves
  /// stay in the forward arena.  `output` is bitwise identical to
  /// run(input, output, 1).  Thread-safe like run().
  void run_saving(const float* input, float* output, float* saved) const;

  /// Vector-Jacobian product of the compiled graph with frozen weights:
  /// d_input = (d output / d input)^T d_output for the record of one
  /// run_saving() call.  Input cotangents only (no weight adjoints), through
  /// the same backend kernels in the same accumulation order as the autograd
  /// reverse sweep, so d_input is bitwise the autograd input gradient.
  /// Cotangents live in a liveness-planned per-thread arena: thread-safe,
  /// no steady-state allocation.
  void run_vjp(const float* saved, const float* d_output,
               float* d_input) const;

  int in_channels() const { return in_channels_; }
  int out_channels() const { return out_channels_; }
  int height() const { return height_; }
  int width() const { return width_; }
  /// Arena footprint per batch sample, in floats (introspection/tests).
  std::size_t arena_floats_per_sample() const { return arena_floats_; }
  std::size_t node_count() const { return nodes_.size(); }

 private:
  struct ValueSpec {
    int channels = 0;
    int height = 0;
    int width = 0;
    bool external = false;    ///< the session input, not arena-backed
    std::size_t offset = 0;   ///< per-sample float offset into the arena
    std::size_t cot_offset = 0;  ///< run_vjp(): cotangent arena offset
  };

  struct ConvBlockSpec {
    Conv2dGeom geom;            ///< batch filled in at run time
    const float* weight = nullptr;
    const float* bias = nullptr;
    const float* gamma = nullptr;
    const float* beta = nullptr;
    int groups = 0;             ///< 0: no normalization
    float eps = 0.0f;
    ActKind act = ActKind::kNone;
    float slope = 0.0f;
    /// Offset of this block's pre-packed weight panel in packed_weights_,
    /// or -1 when the layer has no packed form (or prepacking is off).
    std::ptrdiff_t packed_offset = -1;
    /// run_saving() record offsets: the pre-norm conv output and the
    /// per-group (mean, istd) doubles (GroupNorm blocks), and the ReLU
    /// mask, one bit per output element (ReLU blocks).
    std::size_t prenorm_offset = 0;
    std::size_t stats_offset = 0;
    std::size_t mask_offset = 0;
  };

  struct Node {
    enum class Kind { kConvBlock, kMaxPool, kUpsample, kConcat };
    Kind kind = Kind::kConvBlock;
    int in0 = -1;
    int in1 = -1;  ///< kConcat only (second operand)
    int out = -1;
    ConvBlockSpec conv;  ///< kConvBlock only
    /// run_saving() record offset of a max pool's int64 argmax per output.
    std::size_t argmax_offset = 0;
    /// run_vjp(): whether this node is the first (in reverse order) to
    /// touch in0's / in1's cotangent, which it then zeroes before it
    /// accumulates; and the arena offset of the conv block's activation /
    /// normalization cotangent temporaries.
    bool zero_in0 = false;
    bool zero_in1 = false;
    std::size_t tmp_offset = 0;
  };

  int add_value(int channels, int height, int width);
  int add_conv_block(const void* conv_module, const void* norm_module,
                     ActKind act, int in_id);
  static std::size_t value_floats(const ValueSpec& v);
  void plan_arena(bool reuse);
  void plan_reverse();
  void prepack_weights();
  float* value_ptr(int vid, float* arena, int batch) const;

  std::vector<ValueSpec> values_;
  std::vector<Node> nodes_;
  std::vector<Tensor> keep_;  ///< shares ownership of the parameter storage
  /// Compile-time weight panels (Backend::conv_weight_pack), one region per
  /// conv block with a packed form; valid only on the backend that was
  /// active at compile time (run() passes them only through that backend's
  /// packed entry point, which ignores panels it did not produce).
  AlignedBuffer<float> packed_weights_;
  Backend* pack_backend_ = nullptr;  ///< backend the panels were packed on
  std::size_t arena_floats_ = 0;
  std::size_t saved_floats_ = 0;  ///< run_saving() record
  std::size_t cot_floats_ = 0;    ///< run_vjp() cotangent arena
  int out_value_ = -1;
  int in_channels_ = 0;
  int out_channels_ = 0;
  int height_ = 0;
  int width_ = 0;
  bool fuse_ = true;
  int max_batch_ = 1;
};

}  // namespace neurfill::nn

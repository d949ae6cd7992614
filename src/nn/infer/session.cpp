#include "nn/infer/session.hpp"

#include <cstdint>
#include <cstring>
#include <map>
#include <string>

#include "common/aligned.hpp"
#include "common/check.hpp"
#include "nn/module.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

// Graph compilation + execution for the tape-free inference fast path.
// The compiler mirrors the module evaluation order of UNet exactly (encoder
// blocks with skips and 2x2 pools, bottleneck, upsample+conv / concat /
// double-conv decoder stages, 1x1 head) so the planned graph computes the
// same floats through the same kernels — bitwise, not just within
// tolerance.  See docs/inference.md for the arena-planning and fusion
// rules; tests/test_inference.cpp pins the equivalences.
//
// NOTE: this translation unit must stay free of the autograd tape API —
// nf_lint's infer-no-autograd rule enforces it.

namespace neurfill::nn {

namespace {

/// Per-sample float footprint of a value, rounded up to 16 floats so every
/// arena offset stays 64-byte aligned (offsets scale by the batch size at
/// run time, which preserves the alignment).
std::size_t aligned_floats(int channels, int height, int width) {
  const std::size_t raw = static_cast<std::size_t>(channels) *
                          static_cast<std::size_t>(height) *
                          static_cast<std::size_t>(width);
  return (raw + 15u) & ~static_cast<std::size_t>(15u);
}

/// Best-fit arena planner: smallest adequate free block, ties to the lowest
/// offset; the remainder is split off and stays free.  Blocks are not
/// coalesced — the graph is compiled once and the UNet's release pattern
/// (same sizes recur every stage) reuses split blocks exactly, so coalescing
/// would buy nothing for permanent planning cost.  With reuse off every
/// allocation is fresh (the aliasing-free reference).
class BestFit {
 public:
  explicit BestFit(bool reuse) : reuse_(reuse) {}

  std::size_t alloc(std::size_t need) {
    std::size_t best = free_.size();
    for (std::size_t i = 0; reuse_ && i < free_.size(); ++i) {
      if (free_[i].size < need) continue;
      if (best == free_.size() || free_[i].size < free_[best].size ||
          (free_[i].size == free_[best].size &&
           free_[i].offset < free_[best].offset))
        best = i;
    }
    if (best == free_.size()) {
      const std::size_t offset = top_;
      top_ += need;
      return offset;
    }
    const std::size_t offset = free_[best].offset;
    if (free_[best].size > need) {
      free_[best].offset += need;
      free_[best].size -= need;
    } else {
      free_.erase(free_.begin() + static_cast<std::ptrdiff_t>(best));
    }
    return offset;
  }

  void release(std::size_t offset, std::size_t size) {
    if (reuse_) free_.push_back({offset, size});
  }

  std::size_t top() const { return top_; }

 private:
  struct Block {
    std::size_t offset;
    std::size_t size;
  };
  std::vector<Block> free_;
  std::size_t top_ = 0;
  bool reuse_;
};

/// The per-thread forward arena run() and run_saving() share (they never
/// nest on one thread): grow-only, so steady state allocates nothing.
float* thread_arena(std::size_t floats) {
  static thread_local AlignedBuffer<float> tls_arena;
  return tls_arena.ensure(floats);
}

}  // namespace

std::size_t InferenceSession::value_floats(const ValueSpec& v) {
  return aligned_floats(v.channels, v.height, v.width);
}

int InferenceSession::add_value(int channels, int height, int width) {
  NF_CHECK(channels > 0 && height > 0 && width > 0,
           "InferenceSession: bad value shape %dx%dx%d", channels, height,
           width);
  ValueSpec v;
  v.channels = channels;
  v.height = height;
  v.width = width;
  values_.push_back(v);
  return static_cast<int>(values_.size()) - 1;
}

int InferenceSession::add_conv_block(const void* conv_module,
                                     const void* norm_module, ActKind act,
                                     int in_id) {
  const auto* conv = static_cast<const Conv2d*>(conv_module);
  const auto* norm = static_cast<const GroupNorm*>(norm_module);
  const ValueSpec& in = values_[in_id];

  const Tensor& w = conv->weight();
  NF_CHECK(w.ndim() == 4, "InferenceSession: conv weight must be 4-D");
  NF_CHECK(w.dim(1) == in.channels,
           "InferenceSession: conv expects %d input channels, value has %d",
           w.dim(1), in.channels);

  Conv2dGeom g;
  g.batch = 1;  // patched to the actual batch at run time
  g.in_channels = in.channels;
  g.height = in.height;
  g.width = in.width;
  g.out_channels = w.dim(0);
  g.kernel_h = w.dim(2);
  g.kernel_w = w.dim(3);
  g.stride = conv->stride();
  g.padding = conv->padding();
  g.out_height = (in.height + 2 * g.padding - g.kernel_h) / g.stride + 1;
  g.out_width = (in.width + 2 * g.padding - g.kernel_w) / g.stride + 1;
  NF_CHECK(g.out_height > 0 && g.out_width > 0,
           "InferenceSession: conv output collapsed to %dx%d", g.out_height,
           g.out_width);

  Node node;
  node.kind = Node::Kind::kConvBlock;
  node.in0 = in_id;
  node.out = add_value(g.out_channels, g.out_height, g.out_width);
  node.conv.geom = g;
  node.conv.weight = w.data();
  node.conv.act = act;
  keep_.push_back(w);
  if (conv->bias().defined()) {
    node.conv.bias = conv->bias().data();
    keep_.push_back(conv->bias());
  }
  if (norm != nullptr) {
    NF_CHECK(norm->groups() > 0 && g.out_channels % norm->groups() == 0,
             "InferenceSession: %d channels not divisible into %d groups",
             g.out_channels, norm->groups());
    node.conv.groups = norm->groups();
    node.conv.eps = 1e-5f;  // GroupNorm's module eps (ops.hpp default)
    node.conv.gamma = norm->gamma().data();
    node.conv.beta = norm->beta().data();
    keep_.push_back(norm->gamma());
    keep_.push_back(norm->beta());
  }
  nodes_.push_back(node);
  return node.out;
}

InferenceSession::InferenceSession(const UNet& net, int height, int width,
                                   InferenceOptions options)
    : fuse_(options.fuse) {
  const UNetConfig& cfg = net.config();
  NF_CHECK(height > 0 && width > 0, "InferenceSession: bad extent %dx%d",
           height, width);
  const int div = 1 << cfg.depth;
  NF_CHECK(height % div == 0 && width % div == 0,
           "InferenceSession: %dx%d not divisible by 2^depth = %d", height,
           width, div);
  in_channels_ = cfg.in_channels;
  out_channels_ = cfg.out_channels;
  height_ = height;
  width_ = width;

  // Index the module tree by dotted path.  (std::map keeps iteration — and
  // any failure messages — deterministic.)
  std::map<std::string, const Module*> index;
  for (const auto& entry : net.named_modules())
    index.emplace(entry.first, entry.second);
  auto conv_at = [&index](const std::string& name) -> const Conv2d* {
    auto it = index.find(name);
    NF_CHECK(it != index.end(), "InferenceSession: missing module %s",
             name.c_str());
    const auto* conv = dynamic_cast<const Conv2d*>(it->second);
    NF_CHECK(conv != nullptr, "InferenceSession: %s is not a Conv2d",
             name.c_str());
    return conv;
  };
  auto gn_at = [&index](const std::string& name) -> const GroupNorm* {
    auto it = index.find(name);
    if (it == index.end()) return nullptr;  // norm disabled in this net
    const auto* norm = dynamic_cast<const GroupNorm*>(it->second);
    NF_CHECK(norm != nullptr, "InferenceSession: %s is not a GroupNorm",
             name.c_str());
    return norm;
  };
  // DoubleConv evaluates conv1 -> [norm1] -> relu -> conv2 -> [norm2] ->
  // relu; each half is one fused block.
  auto double_conv = [&](const std::string& prefix, int v) {
    v = add_conv_block(conv_at(prefix + ".conv1"), gn_at(prefix + ".norm1"),
                       ActKind::kRelu, v);
    return add_conv_block(conv_at(prefix + ".conv2"), gn_at(prefix + ".norm2"),
                          ActKind::kRelu, v);
  };

  int v = add_value(cfg.in_channels, height, width);
  values_[v].external = true;

  std::vector<int> skips;
  for (int d = 0; d < cfg.depth; ++d) {
    v = double_conv("enc" + std::to_string(d), v);
    skips.push_back(v);
    const ValueSpec spec = values_[v];
    Node pool;
    pool.kind = Node::Kind::kMaxPool;
    pool.in0 = v;
    pool.out = add_value(spec.channels, spec.height / 2, spec.width / 2);
    nodes_.push_back(pool);
    v = pool.out;
  }
  v = double_conv("bottleneck", v);
  for (int d = cfg.depth - 1; d >= 0; --d) {
    const ValueSpec spec = values_[v];
    Node up;
    up.kind = Node::Kind::kUpsample;
    up.in0 = v;
    up.out = add_value(spec.channels, spec.height * 2, spec.width * 2);
    nodes_.push_back(up);
    // Post-upsample 3x3 conv halves the channels; no norm, no activation.
    v = add_conv_block(conv_at("up" + std::to_string(d)), nullptr,
                       ActKind::kNone, up.out);
    // concat(skip, v) — skip first, matching the module evaluation.
    const ValueSpec& a = values_[skips[d]];
    const ValueSpec& b = values_[v];
    NF_CHECK(a.height == b.height && a.width == b.width,
             "InferenceSession: concat extent mismatch at stage %d", d);
    Node cat;
    cat.kind = Node::Kind::kConcat;
    cat.in0 = skips[d];
    cat.in1 = v;
    cat.out = add_value(a.channels + b.channels, a.height, a.width);
    nodes_.push_back(cat);
    v = double_conv("dec" + std::to_string(d), cat.out);
  }
  v = add_conv_block(conv_at("head"), nullptr, ActKind::kNone, v);
  out_value_ = v;
  NF_CHECK(values_[out_value_].channels == cfg.out_channels,
           "InferenceSession: head produced %d channels, expected %d",
           values_[out_value_].channels, cfg.out_channels);

  plan_arena(options.reuse_buffers);
  plan_reverse();
  if (options.prepack_weights) prepack_weights();
}

void InferenceSession::prepack_weights() {
  // Snapshot every conv block with a packed weight form into one panel
  // buffer, once at compile time; the fused kernel's contract makes them
  // bitwise-neutral (same decomposition, same bytes the in-loop packer
  // would have produced).
  std::size_t total = 0;
  std::vector<std::size_t> sizes(nodes_.size(), 0);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].kind != Node::Kind::kConvBlock) continue;
    sizes[i] = conv_weight_pack_floats(nodes_[i].conv.geom);
    total += sizes[i];
  }
  if (total == 0) return;
  float* base = packed_weights_.ensure(total);
  std::size_t offset = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (sizes[i] == 0) continue;
    conv_weight_pack(nodes_[i].conv.geom, nodes_[i].conv.weight,
                     base + offset);
    nodes_[i].conv.packed_offset = static_cast<std::ptrdiff_t>(offset);
    offset += sizes[i];
  }
}

void InferenceSession::plan_arena(bool reuse) {
  // Liveness: a value is dead after its last consuming node; the session
  // output survives to the final copy-out.
  const std::size_t n_nodes = nodes_.size();
  std::vector<std::size_t> last_use(values_.size(), 0);
  for (std::size_t i = 0; i < n_nodes; ++i) {
    last_use[nodes_[i].in0] = i;
    if (nodes_[i].in1 >= 0) last_use[nodes_[i].in1] = i;
  }
  last_use[out_value_] = n_nodes;

  BestFit arena(reuse);
  for (std::size_t i = 0; i < n_nodes; ++i) {
    const Node& node = nodes_[i];
    ValueSpec& out = values_[node.out];
    // Allocate the output BEFORE releasing dying inputs: kernels never run
    // in place across a node, so the output block must not alias an input
    // even when that input dies at this node.
    out.offset = arena.alloc(value_floats(out));
    const int ins[2] = {node.in0, node.in1};
    for (int k = 0; k < 2; ++k) {
      const int vid = ins[k];
      if (vid < 0 || values_[vid].external) continue;
      if (k == 1 && node.in1 == node.in0) continue;  // consumed twice
      if (last_use[vid] == i)
        arena.release(values_[vid].offset, value_floats(values_[vid]));
    }
  }
  arena_floats_ = arena.top();
}

void InferenceSession::plan_reverse() {
  // Saved record, one 16-float-aligned slot per item the adjoints read:
  // GroupNorm blocks' pre-norm conv outputs and statistics, ReLU masks (a
  // bit per element — the mask is all relu' needs, and several fill starts
  // hold their records at once), and max-pool argmaxes.
  std::size_t top = 0;
  const auto slot = [&top](std::size_t floats) {
    const std::size_t at = top;
    top += (floats + 15u) & ~static_cast<std::size_t>(15u);
    return at;
  };
  for (Node& node : nodes_) {
    const ValueSpec& out = values_[node.out];
    const std::size_t numel =
        static_cast<std::size_t>(out.channels) * out.height * out.width;
    if (node.kind == Node::Kind::kMaxPool) {
      node.argmax_offset = slot(2 * numel);  // one int64 per output
      continue;
    }
    if (node.kind != Node::Kind::kConvBlock) continue;
    if (node.conv.groups > 0) {
      node.conv.prenorm_offset = slot(numel);
      node.conv.stats_offset = slot(4 * static_cast<std::size_t>(node.conv.groups));
    }
    if (node.conv.act == ActKind::kRelu)
      node.conv.mask_offset = slot(
          (relu_mask_words(out.channels,
                           static_cast<std::int64_t>(out.height) * out.width) +
           1) /
          2);
  }
  saved_floats_ = top;

  // Cotangent arena, planned over the reverse node order: a value's
  // cotangent is born at its first consumer in reverse order (which zeroes
  // it) and dies once its producer has propagated it.  The session output's
  // cotangent is the caller's d_output and the input's is the caller's
  // d_input, so neither occupies the arena.
  std::vector<bool> born(values_.size(), false);
  BestFit cot(true);
  for (std::size_t r = nodes_.size(); r-- > 0;) {
    Node& node = nodes_[r];
    const int ins[2] = {node.in0, node.in1};
    bool* zero[2] = {&node.zero_in0, &node.zero_in1};
    for (int k = 0; k < 2; ++k) {
      const int vid = ins[k];
      if (vid < 0 || values_[vid].external || born[vid]) continue;
      NF_CHECK(!(k == 1 && node.in1 == node.in0),
               "InferenceSession: a node consuming one value twice has no "
               "reverse plan");
      born[vid] = true;
      *zero[k] = true;
      values_[vid].cot_offset = cot.alloc(value_floats(values_[vid]));
    }
    const ValueSpec& out = values_[node.out];
    if (node.kind == Node::Kind::kConvBlock) {  // [d_act][d_norm] as needed
      const std::size_t tmp =
          value_floats(out) *
          ((node.conv.act == ActKind::kRelu ? 1u : 0u) +
           (node.conv.groups > 0 ? 1u : 0u));
      node.tmp_offset = cot.alloc(tmp);
      cot.release(node.tmp_offset, tmp);
    }
    if (node.out != out_value_) cot.release(out.cot_offset, value_floats(out));
  }
  cot_floats_ = cot.top();
}

float* InferenceSession::value_ptr(int vid, float* arena, int batch) const {
  return arena + values_[vid].offset * static_cast<std::size_t>(batch);
}

const float* InferenceSession::packed_panel(const ConvBlockSpec& c) const {
  return c.packed_offset >= 0 ? packed_weights_.data() + c.packed_offset
                              : nullptr;
}

void InferenceSession::run(const float* input, float* output,
                           int batch) const {
  NF_CHECK(batch >= 1, "InferenceSession::run: batch must be >= 1, got %d",
           batch);
  NF_CHECK(input != nullptr && output != nullptr,
           "InferenceSession::run: null buffer");
  NF_TRACE_SPAN("nn.infer_run");
  NF_GAUGE_SET("infer.batch", batch);
  NF_COUNTER_ADD("infer.samples", batch);
  if (batch > 1) NF_COUNTER_ADD("infer.batched_runs", 1);

  // Grow-only per-thread arena: zero allocation in steady state, and
  // concurrent run() calls from different threads never share activations.
  // A run sizes it for the batch it asks for, so once a thread has run its
  // largest batch, later runs never reallocate; the high-water tracker
  // feeds the gauge and the grow-event counter that the
  // zero-steady-state-allocation tests pin.
  static thread_local std::size_t tls_arena_high_water = 0;
  const std::size_t need = arena_floats_ * static_cast<std::size_t>(batch);
  if (need > tls_arena_high_water) {
    tls_arena_high_water = need;
    NF_COUNTER_ADD("infer.arena_grow_events", 1);
    NF_GAUGE_SET("infer.arena_high_water_bytes",
                 static_cast<double>(need * sizeof(float)));
  }
  float* arena = thread_arena(need);

  for (const Node& node : nodes_) {
    const ValueSpec& in_spec = values_[node.in0];
    const float* in0 = in_spec.external
                           ? input
                           : value_ptr(node.in0, arena, batch);
    float* out = value_ptr(node.out, arena, batch);
    switch (node.kind) {
      case Node::Kind::kConvBlock: {
        Conv2dGeom g = node.conv.geom;
        g.batch = batch;
        if (fuse_) {
          conv2d_gn_act_fwd(g, node.conv.groups, node.conv.eps, node.conv.act,
                            in0, node.conv.weight, packed_panel(node.conv),
                            node.conv.bias, node.conv.gamma, node.conv.beta,
                            out);
        } else {
          conv2d_fwd(g, in0, node.conv.weight, node.conv.bias, out);
          const std::int64_t numel = static_cast<std::int64_t>(batch) *
                                     g.out_channels * g.out_height *
                                     g.out_width;
          if (node.conv.groups > 0) {
            GroupNormGeom ng;
            ng.batch = batch;
            ng.channels = g.out_channels;
            ng.height = g.out_height;
            ng.width = g.out_width;
            ng.groups = node.conv.groups;
            ng.eps = node.conv.eps;
            group_norm_fwd(ng, out, node.conv.gamma, node.conv.beta, out,
                           nullptr, nullptr);
          }
          if (node.conv.act == ActKind::kRelu)
            unary_map(UnaryKind::kRelu, 0.0f, out, out, numel);
        }
        break;
      }
      case Node::Kind::kMaxPool:
        maxpool2x2_fwd(static_cast<std::int64_t>(batch) * in_spec.channels,
                       in_spec.height, in_spec.width, in0, out, nullptr);
        break;
      case Node::Kind::kUpsample:
        upsample2x_fwd(static_cast<std::int64_t>(batch) * in_spec.channels,
                       in_spec.height, in_spec.width, in0, out);
        break;
      case Node::Kind::kConcat: {
        const ValueSpec& b_spec = values_[node.in1];
        const float* in1 = b_spec.external
                               ? input
                               : value_ptr(node.in1, arena, batch);
        concat_channels_fwd(
            batch, in_spec.channels, b_spec.channels,
            static_cast<std::int64_t>(in_spec.height) * in_spec.width, in0,
            in1, out);
        break;
      }
    }
  }

  const ValueSpec& out_spec = values_[out_value_];
  const std::size_t out_floats = static_cast<std::size_t>(batch) *
                                 static_cast<std::size_t>(out_spec.channels) *
                                 out_spec.height * out_spec.width;
  std::memcpy(output, value_ptr(out_value_, arena, batch),
              out_floats * sizeof(float));
}

void InferenceSession::run_saving(const float* input, float* output,
                                  float* saved) const {
  NF_CHECK(input != nullptr && output != nullptr && saved != nullptr,
           "InferenceSession::run_saving: null buffer");
  NF_TRACE_SPAN("nn.infer_run_saving");
  float* arena = thread_arena(arena_floats_);
  const auto in_at = [&](int vid) -> const float* {
    return values_[vid].external ? input : value_ptr(vid, arena, 1);
  };

  for (const Node& node : nodes_) {
    const ValueSpec& in_spec = values_[node.in0];
    const float* in0 = in_at(node.in0);
    float* out = value_ptr(node.out, arena, 1);
    switch (node.kind) {
      case Node::Kind::kConvBlock: {
        // The fused block itself, writing the record on the way: the
        // pre-norm output and group statistics of a GroupNorm block, the
        // mask of a ReLU block.
        const ConvBlockSpec& c = node.conv;
        ConvBlockRecord rec;
        if (c.groups > 0) {
          rec.prenorm = saved + c.prenorm_offset;
          rec.mean = reinterpret_cast<double*>(saved + c.stats_offset);
          rec.istd = rec.mean + c.groups;
        }
        if (c.act == ActKind::kRelu)
          rec.relu_mask =
              reinterpret_cast<std::uint16_t*>(saved + c.mask_offset);
        conv2d_gn_act_fwd(c.geom, c.groups, c.eps, c.act, in0, c.weight,
                          packed_panel(c), c.bias, c.gamma, c.beta, out, &rec);
        break;
      }
      case Node::Kind::kMaxPool:
        maxpool2x2_fwd(
            in_spec.channels, in_spec.height, in_spec.width, in0, out,
            reinterpret_cast<std::int64_t*>(saved + node.argmax_offset));
        break;
      case Node::Kind::kUpsample:
        upsample2x_fwd(in_spec.channels, in_spec.height, in_spec.width, in0,
                       out);
        break;
      case Node::Kind::kConcat: {
        const ValueSpec& b_spec = values_[node.in1];
        concat_channels_fwd(
            1, in_spec.channels, b_spec.channels,
            static_cast<std::int64_t>(in_spec.height) * in_spec.width, in0,
            in_at(node.in1), out);
        break;
      }
    }
  }
  const ValueSpec& out_spec = values_[out_value_];
  std::memcpy(output, value_ptr(out_value_, arena, 1),
              static_cast<std::size_t>(out_spec.channels) * out_spec.height *
                  out_spec.width * sizeof(float));
}

void InferenceSession::run_vjp(const float* saved, const float* d_output,
                               float* d_input) const {
  NF_CHECK(saved != nullptr && d_output != nullptr && d_input != nullptr,
           "InferenceSession::run_vjp: null buffer");
  NF_TRACE_SPAN("nn.infer_vjp");
  static thread_local AlignedBuffer<float> tls_cot;
  float* arena = tls_cot.ensure(cot_floats_);
  const auto numel = [](const ValueSpec& v) {
    return static_cast<std::size_t>(v.channels) * v.height * v.width;
  };
  // Every contribution accumulates (+=) into a cotangent that starts at
  // zero, exactly as the autograd sweep's lazily zeroed gradient buffers.
  const auto cot_of = [&](int vid, bool zero) -> float* {
    const ValueSpec& v = values_[vid];
    float* p = v.external ? d_input : arena + v.cot_offset;
    if (zero) std::memset(p, 0, numel(v) * sizeof(float));
    return p;
  };
  std::memset(d_input, 0, numel(values_[0]) * sizeof(float));  // the input

  for (std::size_t r = nodes_.size(); r-- > 0;) {
    const Node& node = nodes_[r];
    const ValueSpec& out = values_[node.out];
    const float* d_out =
        node.out == out_value_ ? d_output : arena + out.cot_offset;
    const ValueSpec& in_spec = values_[node.in0];
    float* d_in0 = cot_of(node.in0, node.zero_in0);
    switch (node.kind) {
      case Node::Kind::kConvBlock: {
        const ConvBlockSpec& c = node.conv;
        const std::size_t n = numel(out);
        const float* d_pre = d_out;  // cotangent of the conv output
        if (c.act == ActKind::kRelu) {
          // relu'(a) = [a > 0]; the output is positive exactly where its
          // input was, so the mask recorded from the output is exact.
          float* d_act = arena + node.tmp_offset;
          relu_mask_bwd(
              c.geom.out_channels,
              static_cast<std::int64_t>(c.geom.out_height) * c.geom.out_width,
              reinterpret_cast<const std::uint16_t*>(saved + c.mask_offset),
              d_out, d_act);
          d_pre = d_act;
        }
        if (c.groups > 0) {
          float* d_norm = arena + node.tmp_offset +
                          (c.act == ActKind::kRelu ? value_floats(out) : 0);
          std::memset(d_norm, 0, n * sizeof(float));
          GroupNormGeom ng;
          ng.batch = 1;
          ng.channels = c.geom.out_channels;
          ng.height = c.geom.out_height;
          ng.width = c.geom.out_width;
          ng.groups = c.groups;
          ng.eps = c.eps;
          const double* stats =
              reinterpret_cast<const double*>(saved + c.stats_offset);
          group_norm_bwd(ng, saved + c.prenorm_offset, stats, stats + c.groups,
                         c.gamma, d_pre, d_norm, nullptr, nullptr);
          d_pre = d_norm;
        }
        conv2d_bwd(c.geom, nullptr, c.weight, d_pre, d_in0, nullptr, nullptr,
                   /*direct=*/true);
        break;
      }
      case Node::Kind::kMaxPool: {
        // The recorded argmax is the forward kernel's (earliest index wins
        // ties); each output's cotangent lands there.
        const auto* argmax = reinterpret_cast<const std::int64_t*>(
            saved + node.argmax_offset);
        const std::size_t n = numel(out);
        for (std::size_t o = 0; o < n; ++o) d_in0[argmax[o]] += d_out[o];
        break;
      }
      case Node::Kind::kUpsample: {
        const int H = in_spec.height, W = in_spec.width;
        for (int c = 0; c < in_spec.channels; ++c) {
          const float* gp = d_out + static_cast<std::size_t>(c) * 4 * H * W;
          float* sp = d_in0 + static_cast<std::size_t>(c) * H * W;
          for (int i = 0; i < H; ++i)
            for (int j = 0; j < W; ++j) {
              const std::int64_t b =
                  static_cast<std::int64_t>(2 * i) * 2 * W + 2 * j;
              sp[i * W + j] +=
                  gp[b] + gp[b + 1] + gp[b + 2 * W] + gp[b + 2 * W + 1];
            }
        }
        break;
      }
      case Node::Kind::kConcat: {
        const std::size_t na = numel(in_spec);
        for (std::size_t i = 0; i < na; ++i) d_in0[i] += d_out[i];
        float* d_in1 = cot_of(node.in1, node.zero_in1);
        const std::size_t nb = numel(values_[node.in1]);
        for (std::size_t i = 0; i < nb; ++i) d_in1[i] += d_out[na + i];
        break;
      }
    }
  }
}

}  // namespace neurfill::nn

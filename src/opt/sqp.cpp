#include "opt/sqp.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "common/check.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/static_count.hpp"
#include "obs/trace.hpp"

namespace neurfill {

namespace {
double dot(const VecD& a, const VecD& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

/// Dot chains per term: lane 0 runs y_t'v, lane 1 runs (Bs_t)'v.
typedef double TermLanes __attribute__((vector_size(2 * sizeof(double))));

/// Most terms whose dot chains one pass over the packed rows steps.
constexpr int kTermsPerPass = 8;

/// dots[2t], dots[2t+1] = the serial sums over i of row_i[2t] * v[i] and
/// row_i[2t+1] * v[i] for K terms, every chain stepping once per row.
/// Contraction is off in this TU (src/opt/CMakeLists.txt), so each step is
/// the multiply and then the add of the one-dot-at-a-time loop.
template <int K>
void term_dots(const double* packed, std::size_t stride, const double* v,
               std::size_t n, double* dots) {
  TermLanes acc[K] = {};
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = packed + i * stride;
    for (int t = 0; t < K; ++t) {
      TermLanes pair;
      std::memcpy(&pair, row + 2 * t, sizeof pair);
      acc[t] += pair * v[i];
    }
  }
  std::memcpy(dots, acc, sizeof acc);
}

bool all_finite(const VecD& v) {
  for (const double x : v)
    if (!std::isfinite(x)) return false;
  return true;
}

/// Bounded exponential-shrink retries after a poisoned evaluation.
constexpr int kMaxPoisonShrinks = 5;
}  // namespace

void LbfgsHessian::reset() {
  raw_.clear();
  packed_.clear();
  curv_.clear();
  sigma_ = 1.0;
}

void LbfgsHessian::update(const VecD& s, const VecD& y) {
  const double sy = dot(s, y);
  const double ss = dot(s, s);
  if (ss <= 1e-300) return;  // zero step: nothing to learn
  raw_.push_back({s, y});
  while (static_cast<int>(raw_.size()) > memory_) raw_.pop_front();
  // Scale B0 to the newest curvature when it is positive.
  if (sy > 1e-12 * ss) sigma_ = dot(y, y) / sy;
  rebuild();
}

void LbfgsHessian::rebuild() {
  const std::size_t n = raw_.empty() ? 0 : raw_.front().s.size();
  // Rows hold room for every term from the first pair on, so a history
  // growing to `memory_` pairs never reallocates them.
  const std::size_t stride = row_stride();
  packed_.resize(n * stride);
  curv_.clear();
  VecD Bs, y;
  for (const Pair& p : raw_) {
    // Bs = B_current * s via the terms packed so far.
    apply(p.s, Bs);
    const double sBs = dot(p.s, Bs);
    if (sBs <= 1e-300) continue;
    double sy = dot(p.s, p.y);
    y = p.y;
    // Powell damping: blend y toward Bs when curvature is weak/negative so
    // the update keeps B positive definite.
    if (sy < 0.2 * sBs) {
      const double theta = 0.8 * sBs / (sBs - sy);
      for (std::size_t i = 0; i < n; ++i)
        y[i] = theta * p.y[i] + (1.0 - theta) * Bs[i];
      sy = dot(p.s, y);
    }
    const std::size_t t = curv_.size();
    for (std::size_t i = 0; i < n; ++i) {
      packed_[i * stride + t] = y[i];
      packed_[i * stride + t + 1] = Bs[i];
    }
    curv_.push_back(sy);
    curv_.push_back(sBs);
  }
}

void LbfgsHessian::export_state(
    double* sigma, std::vector<std::pair<VecD, VecD>>* pairs) const {
  *sigma = sigma_;
  pairs->clear();
  pairs->reserve(raw_.size());
  for (const Pair& p : raw_) pairs->emplace_back(p.s, p.y);
}

void LbfgsHessian::restore_state(
    double sigma, const std::vector<std::pair<VecD, VecD>>& pairs) {
  raw_.clear();
  for (const auto& [s, y] : pairs) raw_.push_back({s, y});
  while (static_cast<int>(raw_.size()) > memory_) raw_.pop_front();
  sigma_ = sigma;
  rebuild();
}

void LbfgsHessian::apply(const VecD& v, VecD& out) const {
  const std::size_t n = v.size();
  const std::size_t stride = row_stride();
  const int terms = static_cast<int>(curv_.size() / 2);
  // Pass 1: c[2t] = y_t'v / s_t'y_t and c[2t+1] = (Bs_t)'v / s_t'Bs_t.
  VecD c(curv_.size());
  for (int t0 = 0; t0 < terms; t0 += kTermsPerPass)
    with_static_count<kTermsPerPass>(
        std::min(kTermsPerPass, terms - t0), [&](auto kc) {
          term_dots<decltype(kc)::value>(packed_.data() + 2 * t0, stride,
                                         v.data(), n, c.data() + 2 * t0);
        });
  for (std::size_t j = 0; j < c.size(); ++j) c[j] /= curv_[j];
  // Pass 2: out[i] = sigma v[i], then each term's contribution in order.
  out.resize(n);
  const double sigma = sigma_;
  const double* packed = packed_.data();
  const std::size_t chains = c.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t row = i * stride;
    double o = sigma * v[i];
    for (std::size_t j = 0; j < chains; j += 2)
      o += packed[row + j] * c[j] - packed[row + j + 1] * c[j + 1];
    out[i] = o;
  }
}

SqpResult sqp_minimize(const ObjectiveFn& f, VecD x0, const Box& box,
                       const SqpOptions& options) {
  NF_TRACE_SPAN("opt.sqp");
  const std::size_t n = x0.size();
  if (box.lo.size() != n)
    throw std::invalid_argument("sqp_minimize: box size mismatch");
  SqpResult res;
  box.clamp(x0);
  res.x = std::move(x0);

  // Every objective evaluation funnels through here so the sqp.poison
  // fault site can poison any chosen evaluation.
  const auto eval = [&](const VecD& x, VecD* grad) -> double {
    double v = f(x, grad);
    ++res.function_evaluations;
    if (NF_FAULT("sqp.poison")) v = std::numeric_limits<double>::quiet_NaN();
    return v;
  };

  LbfgsHessian hessian(options.lbfgs_memory);
  VecD g(n), g_new(n);
  VecD trial(n), s(n), y(n);
  double fx = std::numeric_limits<double>::infinity();
  int start_it = 0;

  // The objective may run the reference simulator, whose deadline raises
  // ErrorException(kDeadlineExceeded) mid-evaluation.  res.x always holds
  // the last *accepted* iterate, so catching here degrades to an honest
  // best-so-far result instead of tearing down the run.
  try {
    if (options.resume) {
      const SqpState& st = *options.resume;
      NF_CHECK(st.x.size() == n && st.g.size() == n,
               "sqp resume: state dimension %zu/%zu, expected %zu",
               st.x.size(), st.g.size(), n);
      res.x = st.x;
      g = st.g;
      fx = st.f;
      start_it = st.iteration;
      res.iterations = st.iteration;
      res.function_evaluations = st.function_evaluations;
      hessian.restore_state(st.lbfgs_sigma, st.lbfgs_pairs);
    } else {
      fx = eval(res.x, &g);
      NF_CHECK(g.size() == n, "sqp: gradient size %zu, expected %zu", g.size(),
               n);
      // A poisoned *first* evaluation leaves nothing to backtrack to: the
      // start is abandoned with f = +inf so MSP sorting drops it (the
      // NMMSO analogue drops the poisoned swarm member).
      if (!std::isfinite(fx) || !all_finite(g)) {
        res.poisoned = true;
        res.f = std::numeric_limits<double>::infinity();
        return res;
      }
    }

  for (int it = start_it; it < options.max_iterations; ++it) {
    // Loop-top snapshot: with this state a restarted process re-runs
    // iteration `it` bitwise-identically (docs/robustness.md).
    if (options.checkpoint_hook) {
      SqpState st;
      st.x = res.x;
      st.g = g;
      st.f = fx;
      st.iteration = it;
      st.function_evaluations = res.function_evaluations;
      hessian.export_state(&st.lbfgs_sigma, &st.lbfgs_pairs);
      options.checkpoint_hook(st);
    }
    if (options.deadline.expired()) {
      res.timed_out = true;
      break;
    }
    res.iterations = it + 1;
    NF_TRACE_SPAN("opt.sqp_step");
    NF_COUNTER_ADD("opt.sqp_iterations", 1);
    // Convergence: projected gradient (KKT residual for box constraints).
    double pg_inf = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double pg = g[i];
      if (res.x[i] <= box.lo[i] + 1e-12 && pg > 0.0) pg = 0.0;
      if (res.x[i] >= box.hi[i] - 1e-12 && pg < 0.0) pg = 0.0;
      pg_inf = std::max(pg_inf, std::fabs(pg));
    }
    if (pg_inf < options.tolerance) {
      res.converged = true;
      break;
    }

    // QP subproblem over the shifted box lo-x <= d <= hi-x.
    Box shifted;
    shifted.lo.resize(n);
    shifted.hi.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      shifted.lo[i] = box.lo[i] - res.x[i];
      shifted.hi[i] = box.hi[i] - res.x[i];
    }
    const HessVec Bv = [&hessian](const VecD& v, VecD& out) {
      hessian.apply(v, out);
    };
    BoxQpResult qp;
    {
      NF_TRACE_SPAN("opt.box_qp");
      qp = solve_box_qp(Bv, g, shifted, options.qp);
    }
    const VecD& d = qp.d;
    const double gd = dot(g, d);
    double dnorm = 0.0;
    for (const double v : d) dnorm = std::max(dnorm, std::fabs(v));
    if (dnorm < 1e-14 || gd > -1e-16) {
      // No descent available from the quadratic model.
      res.converged = pg_inf < 10.0 * options.tolerance;
      break;
    }

    // Armijo backtracking along the (feasible) SQP direction.  The first
    // trial (alpha = 1, accepted almost every time) is evaluated with its
    // gradient, so an accepted first trial needs no second evaluation; the
    // value does not depend on whether a gradient was asked for, so the
    // iterates are the same either way.  Later trials are value-only, and
    // the point they accept is evaluated again for its gradient.
    double alpha = 1.0;
    double f_trial = fx;
    bool accepted = false;
    bool have_grad = false;
    {
      NF_TRACE_SPAN("opt.line_search");
      for (int ls = 0; ls < options.max_line_search; ++ls) {
        for (std::size_t i = 0; i < n; ++i) trial[i] = res.x[i] + alpha * d[i];
        box.clamp(trial);  // guard rounding
        const bool with_grad = ls == 0 && options.gradient_at_first_trial;
        f_trial = eval(trial, with_grad ? &g_new : nullptr);
        // A NaN trial value fails the Armijo comparison below, so a poisoned
        // line-search evaluation already degrades to "shrink and retry" —
        // just account for it.
        if (!std::isfinite(f_trial)) ++res.numeric_recoveries;
        if (f_trial <= fx + options.armijo_c1 * alpha * gd) {
          accepted = true;
          have_grad = with_grad;
          break;
        }
        alpha *= 0.5;
      }
    }
    if (!accepted) break;  // line search failed: stationary to our accuracy

    const double f_old = fx;
    double f_new = have_grad ? f_trial : eval(trial, &g_new);
    NF_CHECK(g_new.size() == n, "sqp: gradient size %zu, expected %zu",
             g_new.size(), n);
    // Poisoned value/gradient mid-run: back off toward the last accepted
    // iterate with exponentially shrinking steps (bounded retries) instead
    // of aborting — one NaN would otherwise propagate through the L-BFGS
    // pairs into every later iterate.
    int shrinks = 0;
    while ((!std::isfinite(f_new) || !all_finite(g_new)) &&
           shrinks < kMaxPoisonShrinks) {
      ++shrinks;
      ++res.numeric_recoveries;
      alpha *= 0.25;
      for (std::size_t i = 0; i < n; ++i) trial[i] = res.x[i] + alpha * d[i];
      box.clamp(trial);
      f_new = eval(trial, &g_new);
    }
    if (!std::isfinite(f_new) || !all_finite(g_new)) {
      res.poisoned = true;  // unrecoverable: keep the last good iterate
      break;
    }
    // In a clean run f_new is the accepted trial's value (deterministic,
    // so <= f_old by Armijo); after poison shrinks the landing point can be
    // uphill, in which case stop at the best-so-far instead of accepting.
    if (f_new > f_old) break;
    fx = f_new;
    for (std::size_t i = 0; i < n; ++i) {
      s[i] = trial[i] - res.x[i];
      y[i] = g_new[i] - g[i];
    }
    {
      NF_TRACE_SPAN("opt.lbfgs_update");
      hessian.update(s, y);
    }
    res.x = trial;
    g = g_new;
    if (std::fabs(f_old - fx) <
        1e-12 * std::max(1.0, std::fabs(f_old))) {
      res.converged = true;
      break;
    }
  }
  } catch (const ErrorException& e) {
    if (e.err.code != ErrorCode::kDeadlineExceeded) throw;
    res.timed_out = true;
  }
  res.f = fx;
  NF_COUNTER_ADD("opt.sqp_evaluations", res.function_evaluations);
  return res;
}

}  // namespace neurfill

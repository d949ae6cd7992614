#include "nn/optim.hpp"

#include <cmath>

namespace neurfill::nn {

Adam::Adam(std::vector<Tensor> params, float lr, float beta1, float beta2,
           float eps)
    : params_(std::move(params)), lr_(lr), beta1_(beta1), beta2_(beta2),
      eps_(eps) {
  m_.resize(params_.size());
  v_.resize(params_.size());
  for (std::size_t i = 0; i < params_.size(); ++i) {
    m_[i].assign(static_cast<std::size_t>(params_[i].numel()), 0.0f);
    v_[i].assign(static_cast<std::size_t>(params_[i].numel()), 0.0f);
  }
}

void Adam::zero_grad() {
  for (auto& p : params_) p.zero_grad();
}

void Adam::step() {
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Tensor& p = params_[i];
    if (!p.has_grad()) continue;
    const float* g = p.grad();
    float* d = p.data();
    float* m = m_[i].data();
    float* v = v_[i].data();
    const std::int64_t n = p.numel();
    for (std::int64_t k = 0; k < n; ++k) {
      m[k] = beta1_ * m[k] + (1.0f - beta1_) * g[k];
      v[k] = beta2_ * v[k] + (1.0f - beta2_) * g[k] * g[k];
      const double mhat = static_cast<double>(m[k]) / bc1;
      const double vhat = static_cast<double>(v[k]) / bc2;
      d[k] -= static_cast<float>(static_cast<double>(lr_) * mhat /
                                 (std::sqrt(vhat) + static_cast<double>(eps_)));
    }
  }
}

}  // namespace neurfill::nn

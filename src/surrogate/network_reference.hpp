#pragma once

#include <vector>

#include "common/grid2d.hpp"
#include "surrogate/cmp_network.hpp"

// The autograd reference of the CMP neural network's objective: the
// extraction layer, the UNet module forward and the objective and merge
// layers built op by op on the tape (CmpSurrogate::forward_heights and nn
// ops), with gradients from one backward sweep.  CmpNetwork::evaluate runs
// the compiled equivalent and is pinned against this bitwise, in values,
// heights and gradients (tests/test_inference.cpp, tests/test_neurfill.cpp);
// bench_inference times the two side by side.  Fill never runs it.

namespace neurfill {

/// `network`'s evaluate(x, with_grad) through the autograd tape.  A
/// gradient sweep also accumulates into the surrogate's parameter
/// gradients, so gradient evaluations over networks that share one
/// surrogate must not run concurrently.
CmpNetwork::Eval reference_evaluate(const CmpNetwork& network,
                                    const std::vector<GridD>& x,
                                    bool with_grad);

}  // namespace neurfill

#pragma once

#include <type_traits>
#include <utility>

#include "common/check.hpp"

namespace neurfill {

/// Calls f(std::integral_constant<int, k>{}) for a runtime count
/// 1 <= k <= kMax.  The bitwise-pinned reductions step k independent serial
/// chains side by side (GroupNorm groups, L-BFGS dot products); a
/// compile-time k lets the compiler unroll them with every accumulator in a
/// register.
template <int kMax, typename F>
void with_static_count(int k, F&& f) {
  NF_CHECK(k >= 1 && k <= kMax, "with_static_count: %d outside [1, %d]", k,
           kMax);
  [&]<int... I>(std::integer_sequence<int, I...>) {
    static_cast<void>(
        ((k == I + 1 && (f(std::integral_constant<int, I + 1>{}), true)) ||
         ...));
  }(std::make_integer_sequence<int, kMax>{});
}

}  // namespace neurfill

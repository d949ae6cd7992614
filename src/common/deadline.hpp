#pragma once

// Monotonic run deadlines (docs/robustness.md).
//
// A Deadline is a point on the steady clock, threaded by value through the
// simulate/optimize loops.  Loops check expired() at points where their
// best-so-far state is a *valid* answer (between optimizer iterations,
// between MSP starts, between training epochs), so an expired deadline
// degrades to "return the best feasible result with timed_out set" rather
// than tearing down mid-update.  The default-constructed Deadline is
// infinite and costs one branch to check — loops thread it unconditionally.

#include <chrono>
#include <limits>

namespace neurfill {

class Deadline {
 public:
  /// Infinite: never expires.
  Deadline() = default;

  /// Expires `seconds` from now.  A budget now() cannot take (NaN, or half
  /// the clock's range, about 146 years, or more) means no deadline.
  static Deadline after_seconds(double seconds) {
    using Clock = std::chrono::steady_clock;
    if (!(seconds <
          std::chrono::duration<double>(Clock::duration::max()).count() / 2))
      return Deadline();
    Deadline d;
    d.infinite_ = false;
    d.at_ = Clock::now() +
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(seconds));
    return d;
  }

  static Deadline infinite() { return Deadline(); }

  bool is_infinite() const { return infinite_; }

  bool expired() const {
    return !infinite_ && std::chrono::steady_clock::now() >= at_;
  }

  /// Seconds until expiry (negative once expired; +inf for the infinite
  /// deadline).
  double remaining_seconds() const {
    if (infinite_) return std::numeric_limits<double>::infinity();
    return std::chrono::duration<double>(at_ - std::chrono::steady_clock::now())
        .count();
  }

 private:
  bool infinite_ = true;
  std::chrono::steady_clock::time_point at_{};
};

}  // namespace neurfill

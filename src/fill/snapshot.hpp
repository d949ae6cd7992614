#pragma once

// Optimization snapshot for interruption-safe NeurFill runs
// (docs/robustness.md): the complete MSP-SQP drive state of a pkb/mm run —
// the start list and one record per start (pending, mid-flight with its
// loop-top SqpState, or finished with its SqpResult).  Starts run
// concurrently, so every in-flight start has its own record.  nf_fill
// writes one periodically (--snapshot) and `--resume` continues from it;
// because SQP is deterministic from its loop-top state, a resumed run
// produces a fill bitwise identical to the uninterrupted one
// (tests/resume_kill_test.sh).

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "opt/sqp.hpp"

namespace neurfill {

struct FillSnapshot {
  /// Per-start drive progress.
  struct StartRecord {
    enum class State : std::uint32_t { kPending = 0, kRunning = 1, kDone = 2 };
    State state = State::kPending;
    long evaluations = 0;  ///< this start's objective evaluations so far
    SqpState sqp;          ///< kRunning: loop-top state to continue from
    SqpResult result;      ///< kDone: the finished start
  };

  std::string method;    ///< "pkb" | "mm"; resume refuses a mismatch
  std::size_t dims = 0;  ///< flattened variable count; resume refuses a mismatch
  /// Objective evaluations spent before the drive (PKB sweep, NMMSO).
  long evaluations = 0;
  std::vector<VecD> starts;  ///< full MSP start list (phase complete)
  /// One record per start, in start order; empty when captured before the
  /// drive began (every start pending).
  std::vector<StartRecord> records;
};

/// Atomic (write-temp + rename), CRC-checksummed NFCP write.
[[nodiscard]] Expected<void> save_fill_snapshot(const FillSnapshot& snap,
                                  const std::string& path);

/// kNotFound when absent, kCorrupt (naming file/section) on damage.
[[nodiscard]] Expected<FillSnapshot> load_fill_snapshot(const std::string& path);

}  // namespace neurfill

#pragma once

// Optimization snapshot for interruption-safe NeurFill runs
// (docs/robustness.md): the complete MSP-SQP drive state of a pkb/mm run —
// whether mm's multi-modal search (NMMSO) is still pending or which modes
// it found, and one record per start (pending, mid-flight with its
// loop-top SqpState, or finished with its SqpResult).  Starts run
// concurrently with each other and with NMMSO, so every in-flight start has
// its own record.  nf_fill writes one periodically (--snapshot) and
// `--resume` continues from it; because NMMSO is deterministic and SQP is
// deterministic from its loop-top state, a resumed run produces a fill
// bitwise identical to the uninterrupted one (tests/resume_kill_test.sh).

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
    /// This start's objective evaluations so far (the PKB start's include
    /// its sweep).
    long evaluations = 0;
    SqpState sqp;          ///< kRunning: loop-top state to continue from
    SqpResult result;      ///< kDone: the finished start
  };

  std::string method;    ///< "pkb" | "mm"; resume refuses a mismatch
  std::size_t dims = 0;  ///< flattened variable count; resume refuses a mismatch
  /// mm: NMMSO has not finished.  Its mid-search state is not stored; a
  /// resume re-runs the deterministic search.  Always false for pkb.
  bool search_pending = false;
  long search_evaluations = 0;  ///< NMMSO's evaluations once it finished
  std::vector<VecD> modes;      ///< the NMMSO modes refined as starts
  /// One record per start in drive order: the starts that need no NMMSO
  /// (PKB, then mm's target-density fills), then one per mode once the
  /// search finished.
  std::vector<StartRecord> records;
};

/// Atomic (write-temp + rename), CRC-checksummed NFCP write.
[[nodiscard]] Expected<void> save_fill_snapshot(const FillSnapshot& snap,
                                  const std::string& path);

/// kNotFound when absent, kCorrupt (naming file/section) on damage.
[[nodiscard]] Expected<FillSnapshot> load_fill_snapshot(const std::string& path);

}  // namespace neurfill

#pragma once

// Shared pieces of the end-to-end fill benchmark (README.md): run options,
// bench-side stage spans, the result that main() prints, and the helpers
// every workload uses to prepare inputs and check outputs.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/grid2d.hpp"
#include "fill/neurfill.hpp"
#include "layout/window_grid.hpp"
#include "obs/trace.hpp"
#include "surrogate/cmp_network.hpp"

namespace neurfill::perfbench {

/// Trained surrogate every workload loads; a run without it is refused.
inline constexpr const char* kSurrogatePrefix = "data/unet_cmp";

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< scratch directory inside the checkout
};

/// What a workload hands back to main().  `e2e` holds the end-to-end
/// metrics of an untraced run, `layers` the per-layer metrics of a traced
/// one; main() fills in whichever names a workload did not report.
struct WorkloadResult {
  long attempted = 0;
  long failed = 0;
  bool correct = true;
  std::vector<std::string> problems;  ///< why `correct` is false
  std::map<std::string, double> e2e;
  std::map<std::string, double> layers;
  std::vector<std::string> notes;  ///< human-readable lines (sample counts)

  void fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
};

WorkloadResult run_mono(const RunOptions& opt, const std::string& method,
                        int windows);
WorkloadResult run_tiled(const RunOptions& opt);
WorkloadResult run_serve(const RunOptions& opt);

/// Seconds on the steady clock the obs layer uses for its spans.
double now_s();

/// Runs `fn()` inside a bench-side stage span `name` (static storage): an
/// obs::SpanTimer, so the stage lands in the program's span totals when
/// metrics are on and in the calling thread's trace buffer when tracing is.
template <typename Fn>
auto staged(const char* name, Fn&& fn) {
  const obs::SpanTimer span(name);
  return fn();
}

/// Per-thread trace buffers are bounded; the traced run snapshots and
/// resets them around each job so no job can overflow them, and counts
/// what it saw.  Any dropped event invalidates the traced run.
struct TraceWatch {
  long events = 0;
  long max_events_per_job = 0;
  long dropped = 0;
  /// Empties every buffer; call only while no thread records spans.
  void begin_job();
  /// Counts and drops what the buffers hold since begin_job().
  void end_job();
};

/// Adds the trace counts to the notes; a dropped event fails the run.
void report_trace(const TraceWatch& tw, WorkloadResult* r);

/// FNV-1a digest of a file's bytes; 0 when it cannot be read.
std::uint64_t file_digest(const std::string& path);
std::uint64_t file_size(const std::string& path);

/// The output check every workload applies to each written fill: the GLF
/// re-reads, has the input's window grid, and every window's realized
/// dummy density lies in [0, slack]; the solver's own fill vector `x`
/// must satisfy the same bound exactly.  Returns "" when the output passes,
/// else the reason.
std::string check_output(const std::string& out_path,
                         const WindowExtraction& input,
                         const std::vector<GridD>& x);

/// Loads the benchmark surrogate; a missing or unreadable artifact throws
/// (the benchmark never substitutes a quick-trained network).
std::shared_ptr<CmpSurrogate> load_benchmark_surrogate();

/// One generated input design as a job sees it: the GLF on disk plus its
/// window extraction and score coefficients (computed untimed, for set-up
/// warming, output checks and quality scoring).
struct DesignInput {
  char design = 'a';
  std::string path;
  WindowExtraction ext;
  ScoreCoefficients coeffs;
};

/// Generates design `d` (make_design_rect, `seed`) at wx x wy windows and
/// writes it to `path`; with `analyze`, re-reads it and fills ext/coeffs.
DesignInput prepare_design(char d, int wx, int wy, std::uint64_t seed,
                           const std::string& path, bool analyze);

/// The timed set-up of the fill workloads: drop the compiled session
/// cache, load the surrogate, and construct one CmpNetwork per plane shape
/// so jobs find their session compiled.  Returns the loaded surrogate;
/// `*seconds` receives the wall time.
std::shared_ptr<CmpSurrogate> warm_surrogate(
    const std::vector<const DesignInput*>& shapes, double* seconds);

/// One finished fill job: what the output checks and the quality score
/// need.  `key` names the job's spec (design, method); repeated specs must
/// produce byte-identical outputs.
struct JobRecord {
  std::size_t key = 0;
  std::string out_path;
  double wall_s = 0.0;
  std::vector<GridD> x;
  int numeric_recoveries = 0;
  std::string error;  ///< non-empty when the job threw or came back flagged
};

/// nf_fill's monolithic path for one design: read, extract, coefficients,
/// then lin or (network, calibration, pkb/mm solve), insertion, write —
/// each call a stage span.  `surrogate` is the warm set-up one.
JobRecord fill_job(const DesignInput& in, std::size_t key,
                   const std::string& out, const std::string& method,
                   const std::shared_ptr<const CmpSurrogate>& surrogate,
                   const NeurFillOptions& nopt = {});

/// Applies check_output to every job and requires every job of one key to
/// match the first one's bytes; returns the number of failed jobs.
long check_jobs(const std::vector<JobRecord>& jobs,
                const std::vector<const WindowExtraction*>& ext_of_key,
                WorkloadResult* r);

/// Snapshot of the program's obs registry (0 for absent names).
struct ObsTotals {
  std::map<std::string, double> counters;
  std::map<std::string, double> span_s;
  std::map<std::string, double> span_count;
  static ObsTotals take();
  double counter(const std::string& n) const;
  double span(const std::string& n) const;
  double calls(const std::string& n) const;
};

/// Fills the per-layer metrics every workload shares from the obs totals
/// (the program's own spans and counters plus the bench-side stages).
void add_common_layers(const ObsTotals& obs, WorkloadResult* r);

}  // namespace neurfill::perfbench

// nf_perfbench: the end-to-end fill benchmark (README.md).
//
//   nf_perfbench --workload W --seed N --seconds S --trace 0|1
//
// Runs from the repository root (it loads data/unet_cmp and works in
// .bench_work/).  Prints the provenance line, every metric by name with its
// unit, the output-check verdict, and last the JSON result line.

#include <sched.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "common/error.hpp"

namespace {

using namespace neurfill;
using namespace neurfill::perfbench;

/// The metrics BENCHMARK.json lists, in its order (run.py checks that the
/// names and units agree).
struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"fill_s", "s"},
    {"setup_s", "s"},
    {"quality", "score"},
    {"peak_rss_mb", "MiB"},
    {"job_p50_s", "s"},
    {"job_p90_s", "s"},
    {"max_jobs_per_s", "jobs/s"},
};

constexpr MetricDef kPerLayer[] = {
    {"geom.read_glf_s", "s"},
    {"geom.write_glf_s", "s"},
    {"geom.index_build_s", "s"},
    {"geom.write_fullchip_s", "s"},
    {"geom.bytes_read", "bytes"},
    {"geom.bytes_written", "bytes"},
    {"layout.extract_s", "s"},
    {"layout.insert_s", "s"},
    {"fill.coefficients_s", "s"},
    {"fill.calibrate_s", "s"},
    {"fill.solve_s", "s"},
    {"fill.objective_evaluations", "count"},
    {"fill.numeric_recoveries", "count"},
    {"cmp.simulate_count", "count"},
    {"cmp.simulate_s", "s"},
    {"cmp.contact_iterations", "count"},
    {"cmp.contact_retries", "count"},
    {"cmp.contact_degraded", "count"},
    {"opt.sqp_s", "s"},
    {"opt.sqp_step_s", "s"},
    {"opt.sqp_iterations", "count"},
    {"opt.sqp_evaluations", "count"},
    {"opt.nmmso_s", "s"},
    {"opt.nmmso_batches", "count"},
    {"opt.nmmso_evaluations", "count"},
    {"opt.nmmso_poison_drops", "count"},
    {"nn.conv2d_backward_s", "s"},
    {"nn.conv2d_fused_s", "s"},
    {"nn.gemm_s", "s"},
    {"nn.gemm_gflop", "GFLOP"},
    {"nn.infer_run_count", "count"},
    {"nn.infer_run_s", "s"},
    {"nn.infer_batch_mean", "count"},
    {"surrogate.load_count", "count"},
    {"surrogate.load_s", "s"},
    {"surrogate.compile_s", "s"},
    {"surrogate.network_s", "s"},
    {"surrogate.session_cache_hits", "count"},
    {"surrogate.session_cache_misses", "count"},
    {"surrogate.value_eval_ms", "ms"},
    {"surrogate.grad_eval_ms", "ms"},
    {"surrogate.grad_value_ratio", "ratio"},
    {"runtime.jobs", "count"},
    {"runtime.blocks", "count"},
    {"fullchip.tile_solves", "count"},
    {"fullchip.tile_ms_mean", "ms"},
    {"fullchip.stitch_s", "s"},
    {"fullchip.parallel_eff", "fraction"},
    {"fullchip.seam", "fraction"},
    {"serve.submit_rtt_ms_p50", "ms"},
    {"serve.submit_rtt_ms_p90", "ms"},
    {"serve.journal_commit_count", "count"},
    {"serve.journal_commit_s", "s"},
    {"serve.job_run_s", "s"},
    {"serve.queue_wait_s", "s"},
    {"serve.jobs_rejected", "count"},
    {"serve.jobs_retried", "count"},
    {"serve.latency_samples", "count"},
    {"loadgen.late_ms_p90", "ms"},
    {"failed_frac", "fraction"},
    {"obs.unattributed_frac", "fraction"},
    {"obs.trace_overhead_frac", "fraction"},
};

int usage() {
  std::fprintf(stderr,
               "usage: nf_perfbench --workload pkb_abc32|mm_abc32|tiled_a64|"
               "serve_mix --seed N --seconds S --trace 0|1\n"
               "                    [--git-sha SHA] [--source-digest HEX]\n");
  return 2;
}

/// Spin-loop probe of the cores this process can really use right now:
/// the same fixed work on one thread, then on every online CPU at once.
double effective_cores(int nproc) {
  auto spin = [](long iters) {
    volatile double acc = 1.0;
    for (long i = 0; i < iters; ++i) acc = acc * 1.0000001 + 1e-9;
    return acc;
  };
  auto timed = [](auto&& fn) {
    const double t0 = now_s();
    fn();
    return now_s() - t0;
  };
  long iters = 1 << 16;
  while (timed([&] { (void)spin(iters); }) < 0.04) iters *= 2;
  // Best of three on each side: a preempted sample only ever reads slower.
  double one = 1e30, all = 1e30;
  for (int rep = 0; rep < 3; ++rep) {
    one = std::min(one, timed([&] { (void)spin(iters); }));
    all = std::min(all, timed([&] {
      std::vector<std::thread> threads;
      for (int k = 0; k < nproc; ++k) threads.emplace_back([&] { (void)spin(iters); });
      for (std::thread& t : threads) t.join();
    }));
  }
  return static_cast<double>(nproc) * one / all;
}

std::string fs_name(const std::string& path) {
  struct statfs st {};
  if (::statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0x01021994ul: return "tmpfs";
    case 0xEF53ul: return "ext4";
    case 0x794C7630ul: return "overlayfs";
    case 0x58465342ul: return "xfs";
    case 0x9123683Eul: return "btrfs";
    case 0x6969ul: return "nfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%lx", static_cast<unsigned long>(st.f_type));
      return hex;
    }
  }
}

std::string provenance(const std::string& git_sha, const std::string& digest,
                       const std::string& work_dir) {
  const int nproc = static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN));
  cpu_set_t set;
  CPU_ZERO(&set);
  const int affinity = ::sched_getaffinity(0, sizeof(set), &set) == 0
                           ? CPU_COUNT(&set)
                           : nproc;
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"git_sha\":\"%s\",\"source_digest\":\"%s\",\"compiler\":\"%s\","
      "\"cxx_flags\":\"%s\",\"kernel_flags\":\"%s\",\"build_type\":\"%s\","
      "\"nproc\":%d,\"affinity_cpus\":%d,\"effective_cores\":%.2f,"
      "\"work_fs\":\"%s\",\"journal_fs\":\"%s\"}",
      git_sha.c_str(), digest.c_str(), NF_PB_COMPILER, NF_PB_CXX_FLAGS,
      NF_PB_KERNEL_FLAGS, NF_PB_BUILD_TYPE, nproc, affinity,
      effective_cores(affinity), fs_name(work_dir).c_str(),
      fs_name(work_dir).c_str());
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  std::string git_sha = "unknown", digest = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      opt.seconds = std::atof(v.c_str());
      have_seconds = opt.seconds > 0.0;
    } else if (a == "--trace") {
      opt.trace = v == "1";
      have_trace = v == "0" || v == "1";
    } else if (a == "--git-sha") {
      git_sha = v;
    } else if (a == "--source-digest") {
      digest = v;
    } else {
      return usage();
    }
  }
  if (!have_seed || !have_seconds || !have_trace) return usage();
  if (opt.workload != "pkb_abc32" && opt.workload != "mm_abc32" &&
      opt.workload != "tiled_a64" && opt.workload != "serve_mix")
    return usage();

  // A quick-trained stand-in is a different network: refuse to run.
  {
    Expected<std::shared_ptr<CmpSurrogate>> s = load_surrogate(kSurrogatePrefix);
    if (!s.ok()) {
      std::fprintf(stderr,
                   "nf_perfbench: cannot load the surrogate '%s' (%s); "
                   "refusing to run with a quick-trained substitute\n",
                   kSurrogatePrefix, s.error().to_string().c_str());
      return 3;
    }
  }

  opt.work_dir = ".bench_work/" + opt.workload + "-" + std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::remove_all(opt.work_dir, ec);
  std::filesystem::create_directories(opt.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "nf_perfbench: cannot create %s: %s\n",
                 opt.work_dir.c_str(), ec.message().c_str());
    return 1;
  }
  const std::string host = provenance(git_sha, digest, opt.work_dir);

  WorkloadResult r;
  int rc = 0;
  try {
    if (opt.workload == "pkb_abc32") r = run_mono(opt, "pkb", 32);
    if (opt.workload == "mm_abc32") r = run_mono(opt, "mm", 32);
    if (opt.workload == "tiled_a64") r = run_tiled(opt);
    if (opt.workload == "serve_mix") r = run_serve(opt);
  } catch (const ErrorException& e) {
    std::fprintf(stderr, "nf_perfbench: %s\n", e.err.to_string().c_str());
    rc = 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nf_perfbench: %s\n", e.what());
    rc = 1;
  }
  std::filesystem::remove_all(opt.work_dir, ec);
  std::filesystem::remove(".bench_work", ec);  // only when empty
  if (rc != 0) return rc;

  if (r.attempted > 0)
    r.layers["failed_frac"] =
        static_cast<double>(r.failed) / static_cast<double>(r.attempted);
  const MetricDef* begin = opt.trace ? std::begin(kPerLayer) : std::begin(kEndToEnd);
  const MetricDef* end = opt.trace ? std::end(kPerLayer) : std::end(kEndToEnd);
  const auto& values = opt.trace ? r.layers : r.e2e;

  std::printf("host: %s\n", host.c_str());
  std::printf("workload %s seed %llu seconds %g trace %d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0);
  for (const std::string& n : r.notes) std::printf("%s\n", n.c_str());
  std::string json = "{";
  for (const MetricDef* m = begin; m != end; ++m) {
    auto it = values.find(m->name);
    double v = it == values.end() ? 0.0 : it->second;
    if (!opt.trace && it == values.end()) r.fail(std::string("no value for ") + m->name);
    if (!std::isfinite(v)) {
      r.fail(std::string("non-finite ") + m->name);
      v = 0.0;
    }
    std::printf("  %-32s %.6g %s\n", m->name, v, m->unit);
    char item[200];
    std::snprintf(item, sizeof(item), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  m == begin ? "" : ", ", m->name, v, m->unit);
    json += item;
  }
  json += "}";
  std::printf("output check: %ld of %ld jobs failed; %s\n", r.failed,
              r.attempted, r.correct ? "correct" : "NOT correct");
  for (const std::string& p : r.problems) std::printf("  problem: %s\n", p.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": %s}\n",
              r.correct && r.failed == 0 ? "true" : "false",
              std::max(1L, r.attempted), r.failed, json.c_str());
  return 0;
}

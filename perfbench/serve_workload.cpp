// serve_mix: an in-process nf_serve daemon (journal, scheduler, runner,
// poll() transport — assembled as tools/nf_serve.cpp does) driven from one
// loopback client thread.  Phase 1 is open-loop: seeded Poisson arrivals
// at a fixed rate well under capacity, each job timed from its scheduled
// send time until the client sees it completed.  Phase 2 is a saturating
// closed burst: every job submitted at once, then drained.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "common/deadline.hpp"
#include "common/resource.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "fill/problem.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/parallel.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "surrogate/infer.hpp"

namespace neurfill::perfbench {
namespace {

using serve::Client;
using serve::JsonValue;

/// One job spec of the mix and its copies per deck.  lin jobs on 8x8
/// designs (~15 ms) are dominated by journal commits, queueing and the
/// socket round trip; pkb jobs on the 16x16 design b (~0.35 s with their
/// per-iteration snapshots) carry real solves.  pkb runs on one spec only,
/// so job_p90_s does not fall on a boundary between two solve times.
///
/// No recorded nf_serve traffic exists to take the lin:pkb ratio from; the
/// 8:2 deck is an assumption, picked so job_p50_s falls among lin jobs and
/// job_p90_s in the middle of the pkb jobs (the slowest fifth of the mix).
/// Every run reports which kinds set each percentile.
struct Spec {
  char design;
  int windows;
  bool pkb;
  int per_deck;
};
constexpr Spec kSpecs[] = {
    {'a', 8, false, 4}, {'b', 8, false, 4}, {'b', 16, true, 2}};
/// Open-loop arrival rate (jobs/s), fixed so every commit sees the same
/// schedule: about a quarter of the mix's single-worker capacity on a
/// 4-vCPU host, so the median job rarely queues behind a pkb solve.
constexpr double kArrivalRate = 2.4;
/// SQP iteration budget of a pkb job (RunnerOptions::sqp_max_iterations,
/// which bench/bench_serve.cpp shrinks too): solves run to the cap, so a
/// pkb job's service time does not hinge on when the seeded design
/// converges.
constexpr int kPkbSqpIterations = 20;
/// Decks in each saturating burst; admission must hold all of them.
constexpr int kBurstDecks = 8;
/// Bursts per phase, each drained before the next is sent.  Two give about
/// 9 s of measured work; the idle point between them lets a traced run
/// empty the trace buffers before they fill.
constexpr int kBursts = 2;
constexpr std::size_t kQueueCapacity = 128;
constexpr int kSetupRepeats = 9;
constexpr double kPollS = 0.002;
constexpr double kMiB = 1024.0 * 1024.0;

/// One job as the client sees it.
struct ClientJob {
  std::size_t key = 0;  ///< index into kSpecs and the inputs
  std::string out;
  double due_s = 0.0;  ///< scheduled send time (open loop) or burst start
  std::string id;
  bool finished = false;
  double latency_s = 0.0;
  double run_s = 0.0;  ///< the daemon's wall time for the job's attempts
  std::string error;
};

struct PhaseStats {
  std::vector<double> latency_s, submit_rtt_ms, late_ms, wait_s;
  std::vector<bool> latency_pkb;  ///< job kind of each latency_s sample
  double burst_wall_s = 0.0;
  double burst_run_s = 0.0;
  long burst_done = 0;
};

std::string submit_line(const std::string& design, const std::string& out,
                        bool pkb) {
  return "{\"op\":\"submit\",\"design\":\"" + serve::json_escape(design) +
         "\",\"out\":\"" + serve::json_escape(out) + "\",\"method\":\"" +
         (pkb ? "pkb" : "lin") + "\"}";
}

/// The loopback client: sends submissions when due and polls outstanding
/// jobs until each reaches a terminal state.
class LoadClient {
 public:
  LoadClient(Client client, const std::vector<DesignInput>& inputs)
      : client_(std::move(client)), inputs_(inputs) {}

  void submit(ClientJob& job, PhaseStats& st) {
    const double t0 = now_s();
    st.late_ms.push_back(1e3 * (t0 - job.due_s));
    Expected<std::string> reply = client_.request_line(
        submit_line(inputs_[job.key].path, job.out, kSpecs[job.key].pkb));
    st.submit_rtt_ms.push_back(1e3 * (now_s() - t0));
    Expected<JsonValue> v = reply.ok() ? serve::json_parse(*reply)
                                       : Expected<JsonValue>(reply.error());
    if (!v.ok() || !v->get_bool("ok")) {
      job.finished = true;
      job.error = "submit rejected: " +
                  (reply.ok() ? *reply : reply.error().to_string());
      return;
    }
    job.id = v->get_string("id");
  }

  /// Polls one job; true once it is terminal.
  bool poll(ClientJob& job) {
    Expected<std::string> reply =
        client_.request_line("{\"op\":\"status\",\"id\":\"" + job.id + "\"}");
    Expected<JsonValue> v = reply.ok() ? serve::json_parse(*reply)
                                       : Expected<JsonValue>(reply.error());
    if (!v.ok() || !v->has("job")) {
      job.error = "status failed";
      job.finished = true;
      return true;
    }
    const JsonValue& rec = v->object.at("job");
    const std::string state = rec.get_string("state");
    if (state == "queued" || state == "running") return false;
    job.latency_s = now_s() - job.due_s;
    job.finished = true;
    if (rec.has("attempts"))
      for (const JsonValue& a : rec.object.at("attempts").array)
        job.run_s += a.get_number("runtime_s");
    if (state != "completed") {
      job.error = "job " + job.id + " ended " + state + ": " + rec.get_string("error");
    } else if (rec.has("outcome") &&
               (rec.object.at("outcome").get_bool("degraded") ||
                rec.object.at("outcome").get_bool("timed_out"))) {
      job.error = "job " + job.id + " completed degraded or timed out";
    }
    return true;
  }

  /// Sends every job at its due time and waits for all of them.  When
  /// `tw` is set, the trace buffers are drained whenever the daemon has
  /// gone idle (every submitted job terminal), which is when no thread
  /// can be recording.
  void run(std::vector<ClientJob>& jobs, PhaseStats& st, TraceWatch* tw) {
    std::size_t next = 0, done = 0;
    bool busy_since_drain = false;
    while (done < jobs.size()) {
      const double now = now_s();
      if (next < jobs.size() && jobs[next].due_s <= now) {
        submit(jobs[next], st);
        if (jobs[next].finished) ++done;
        ++next;
        busy_since_drain = true;
        continue;
      }
      std::size_t outstanding = 0;
      for (std::size_t k = 0; k < next; ++k) {
        if (jobs[k].finished) continue;
        if (poll(jobs[k])) {
          ++done;
        } else {
          ++outstanding;
        }
      }
      if (tw != nullptr && outstanding == 0 && busy_since_drain) {
        tw->end_job();
        busy_since_drain = false;
      }
      double sleep_s = kPollS;
      if (next < jobs.size())
        sleep_s = std::min(sleep_s, std::max(0.0, jobs[next].due_s - now_s()));
      if (sleep_s > 0.0)
        std::this_thread::sleep_for(std::chrono::duration<double>(sleep_s));
    }
  }

 private:
  Client client_;
  const std::vector<DesignInput>& inputs_;
};

/// Daemon + transport + worker threads; the destructor drains and joins,
/// so no thread outlives the data it uses on any exit path.
class LiveDaemon {
 public:
  LiveDaemon(std::unique_ptr<serve::Daemon> daemon, serve::Server server)
      : daemon_(std::move(daemon)), server_(std::move(server)) {
    transport_ = std::thread([this] { (void)server_.run(*daemon_); });
    worker_ = std::thread([this] { daemon_->run_worker(); });
  }
  LiveDaemon(const LiveDaemon&) = delete;
  LiveDaemon& operator=(const LiveDaemon&) = delete;
  ~LiveDaemon() {
    daemon_->request_drain();
    worker_.join();
    transport_.join();
  }
  int port() const { return server_.port(); }

 private:
  std::unique_ptr<serve::Daemon> daemon_;
  serve::Server server_;
  std::thread transport_;
  std::thread worker_;
};

/// `decks` shuffled copies of the job deck (kSpecs).  Whole decks keep
/// the job mix identical across seeds; the seed orders them and, in the
/// open loop, spaces them with exponential gaps at kArrivalRate (Poisson
/// arrivals).
std::vector<ClientJob> make_jobs(Rng& rng, const std::string& prefix,
                                 double start_s, int decks, bool open_loop) {
  std::vector<std::size_t> deck;
  for (std::size_t k = 0; k < std::size(kSpecs); ++k)
    deck.insert(deck.end(), static_cast<std::size_t>(kSpecs[k].per_deck), k);
  std::vector<ClientJob> jobs;
  double t = start_s;
  for (int d = 0; d < decks; ++d) {
    rng.shuffle(deck);
    for (std::size_t key : deck) {
      if (open_loop) t += -std::log(1.0 - rng.uniform()) / kArrivalRate;
      ClientJob j;
      j.key = key;
      j.out = prefix + std::to_string(jobs.size()) + ".glf";
      j.due_s = t;
      jobs.push_back(std::move(j));
    }
  }
  return jobs;
}

/// One open-loop phase followed by the bursts; all outcomes land in `all`.
PhaseStats run_phase(LoadClient& client, Rng& rng, const std::string& prefix,
                     double seconds, TraceWatch* tw,
                     std::vector<ClientJob>& all) {
  PhaseStats st;
  double deck_jobs = 0.0;
  for (const Spec& sp : kSpecs) deck_jobs += sp.per_deck;
  const int decks =
      std::max(1, static_cast<int>(std::lround(seconds * kArrivalRate / deck_jobs)));
  std::vector<ClientJob> open =
      make_jobs(rng, prefix + "o", now_s() + 0.05, decks, true);
  client.run(open, st, tw);
  for (const ClientJob& j : open) {
    if (!j.error.empty()) continue;
    st.latency_s.push_back(j.latency_s);
    st.latency_pkb.push_back(kSpecs[j.key].pkb);
    st.wait_s.push_back(j.latency_s - j.run_s);
  }
  all.insert(all.end(), open.begin(), open.end());

  for (int b = 0; b < kBursts; ++b) {
    const double t0 = now_s();
    std::vector<ClientJob> burst = make_jobs(
        rng, prefix + "b" + std::to_string(b) + "_", t0, kBurstDecks, false);
    PhaseStats burst_st;
    client.run(burst, burst_st, tw);
    double last = t0;
    for (const ClientJob& j : burst) {
      if (!j.error.empty()) continue;
      last = std::max(last, j.due_s + j.latency_s);
      st.burst_run_s += j.run_s;
      ++st.burst_done;
    }
    st.burst_wall_s += last - t0;
    all.insert(all.end(), burst.begin(), burst.end());
  }
  return st;
}

/// The job kinds of the open-loop samples that set percentile `p` (the
/// order statistics common/stats percentile interpolates between).
std::string kinds_at(const PhaseStats& st, double p) {
  std::vector<std::size_t> order(st.latency_s.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return st.latency_s[a] < st.latency_s[b];
  });
  const double rank = p / 100.0 * static_cast<double>(order.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, order.size() - 1);
  auto kind = [&](std::size_t i) { return st.latency_pkb[order[i]] ? "pkb" : "lin"; };
  return std::string(kind(lo)) + (hi == lo ? "" : std::string("/") + kind(hi));
}

}  // namespace

WorkloadResult run_serve(const RunOptions& opt) {
  WorkloadResult r;
  runtime::set_thread_count(1);
  // nf_serve keeps its instruments live for /metrics; so does this daemon.
  obs::set_metrics_enabled(true);

  Rng rng(opt.seed);
  std::vector<DesignInput> inputs;
  for (const Spec& sp : kSpecs)
    inputs.push_back(prepare_design(
        sp.design, sp.windows, sp.windows, rng.next_u64(),
        opt.work_dir + "/in_" + sp.design + std::to_string(sp.windows) + ".glf",
        true));
  // Timed set-up, as nf_serve starts: Daemon::create and Server::listen,
  // then the daemon's own runner loads the surrogate into its cache and
  // compiles the session of the pkb plane shape, through one warm-up attempt
  // per pkb spec whose deadline has already passed (its solve stops at the
  // first SQP check).  lin jobs build no network.  Open-loop jobs then find
  // both warm.  The warm-up's output lies in a directory that does not
  // exist, so the attempt fails at the write instead of committing a file:
  // output fsyncs are job work, and their latency on a shared disk would
  // swamp the set-up time.
  serve::DaemonOptions dopt;
  dopt.runner.default_surrogate = kSurrogatePrefix;
  dopt.scheduler.queue_capacity = kQueueCapacity;
  dopt.runner.sqp_max_iterations = kPkbSqpIterations;
  std::vector<double> setup_s;
  std::unique_ptr<serve::Daemon> daemon;
  std::optional<serve::Server> server;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    clear_surrogate_inference_cache();
    const double t0 = now_s();
    Expected<std::unique_ptr<serve::Daemon>> d = serve::Daemon::create(
        dopt, opt.work_dir + "/journal" + std::to_string(rep));
    if (!d.ok()) throw ErrorException(d.error());
    Expected<serve::Server> s = serve::Server::listen(0, "");
    if (!s.ok()) throw ErrorException(s.error());
    for (std::size_t key = 0; key < inputs.size(); ++key) {
      if (!kSpecs[key].pkb) continue;
      serve::JobRecord warm;
      warm.id = "warmup";
      warm.spec.design = inputs[key].path;
      warm.spec.out = opt.work_dir + "/no-such-dir/warmup.glf";
      warm.spec.method = "pkb";
      Expected<serve::JobOutcome> o =
          (*d)->runner().run(warm, Deadline::after_seconds(0.0), "", nullptr);
      if (!o.ok() && (*d)->runner().surrogate_cache_size() == 0)
        throw ErrorException(o.error());
    }
    setup_s.push_back(now_s() - t0);
    daemon = std::move(*d);
    server.reset();
    server.emplace(std::move(*s));
  }

  std::vector<ClientJob> all;
  PhaseStats st, untraced;
  double peak_rss = 0.0;
  TraceWatch tw;
  ObsTotals after;
  {
    LiveDaemon live(std::move(daemon), std::move(*server));
    Expected<Client> conn = Client::connect(live.port());
    if (!conn.ok()) throw ErrorException(conn.error());
    LoadClient client(std::move(*conn), inputs);
    if (opt.trace) {
      untraced = run_phase(client, rng, opt.work_dir + "/u_",
                           opt.seconds, nullptr, all);
      obs::reset_metrics();
      obs::set_tracing_enabled(true);
      tw.begin_job();
    }
    st = run_phase(client, rng, opt.work_dir + "/out_", opt.seconds,
                   opt.trace ? &tw : nullptr, all);
    obs::set_tracing_enabled(false);
    after = ObsTotals::take();
    peak_rss = static_cast<double>(peak_rss_bytes());
  }

  // Reference fills: every spec the daemon ran, through nf_fill's path
  // in-process at 4 threads.  Serve outputs must match them byte for byte.
  runtime::set_thread_count(4);
  const std::shared_ptr<CmpSurrogate> surrogate = load_benchmark_surrogate();
  NeurFillOptions nopt;
  nopt.sqp.max_iterations = kPkbSqpIterations;
  std::vector<JobRecord> jobs;
  std::vector<const WindowExtraction*> ext_of_key;
  std::vector<std::size_t> ref_of_key(inputs.size(), SIZE_MAX);
  for (std::size_t key = 0; key < inputs.size(); ++key) {
    ext_of_key.push_back(&inputs[key].ext);
    bool used = false;
    for (const ClientJob& j : all) used = used || j.key == key;
    if (!used) continue;
    ref_of_key[key] = jobs.size();
    jobs.push_back(fill_job(inputs[key], key,
                            opt.work_dir + "/ref_" + std::to_string(key) + ".glf",
                            kSpecs[key].pkb ? "pkb" : "lin", surrogate, nopt));
  }
  double quality = 0.0;
  long specs = 0;
  for (std::size_t key = 0; key < ref_of_key.size(); ++key) {
    if (ref_of_key[key] == SIZE_MAX) continue;
    const JobRecord& ref = jobs[ref_of_key[key]];
    if (!ref.error.empty()) continue;
    const FillProblem problem(inputs[key].ext, CmpSimulator(), inputs[key].coeffs);
    quality += problem.evaluate(ref.x).s_qual;
    ++specs;
  }
  for (const ClientJob& c : all) {
    JobRecord j;
    j.key = c.key;
    j.out_path = c.out;
    j.error = c.error;
    if (ref_of_key[c.key] != SIZE_MAX) j.x = jobs[ref_of_key[c.key]].x;
    jobs.push_back(std::move(j));
  }
  r.attempted = static_cast<long>(jobs.size());
  r.failed = check_jobs(jobs, ext_of_key, &r);

  char note[200];
  std::snprintf(note, sizeof(note),
                "samples: %zu open-loop latencies at %.1f jobs/s, %ld burst "
                "jobs, %zu set-ups",
                st.latency_s.size(), kArrivalRate, st.burst_done,
                setup_s.size());
  r.notes.push_back(note);
  if (st.latency_s.empty()) {
    r.fail("no open-loop job completed");
    return r;
  }
  std::size_t lin = 0;
  for (bool pkb : st.latency_pkb) lin += pkb ? 0 : 1;
  r.notes.push_back("job kinds: p50 set by " + kinds_at(st, 50.0) + ", p90 by " +
                    kinds_at(st, 90.0) + "; open-loop samples " +
                    std::to_string(lin) + " lin, " +
                    std::to_string(st.latency_s.size() - lin) + " pkb");
  if (opt.trace) {
    // The daemon's stages run behind its socket: only the program's own
    // spans and counters describe them.
    add_common_layers(after, &r);
    tw.end_job();
    report_trace(tw, &r);
    r.layers["serve.submit_rtt_ms_p50"] = percentile(st.submit_rtt_ms, 50.0);
    r.layers["serve.submit_rtt_ms_p90"] = percentile(st.submit_rtt_ms, 90.0);
    r.layers["serve.queue_wait_s"] = percentile(st.wait_s, 50.0);
    r.layers["serve.latency_samples"] = static_cast<double>(st.latency_s.size());
    r.layers["loadgen.late_ms_p90"] = percentile(st.late_ms, 90.0);
    r.layers["obs.unattributed_frac"] =
        st.burst_wall_s > 0.0 ? 1.0 - st.burst_run_s / st.burst_wall_s : 0.0;
    r.layers["obs.trace_overhead_frac"] =
        untraced.burst_run_s > 0.0 ? st.burst_run_s / untraced.burst_run_s - 1.0 : 0.0;
    return r;
  }
  r.e2e["fill_s"] = st.burst_run_s;
  r.e2e["setup_s"] = percentile(setup_s, 50.0);
  r.e2e["quality"] = specs > 0 ? quality / static_cast<double>(specs) : 0.0;
  r.e2e["peak_rss_mb"] = peak_rss / kMiB;
  r.e2e["job_p50_s"] = percentile(st.latency_s, 50.0);
  r.e2e["job_p90_s"] = percentile(st.latency_s, 90.0);
  r.e2e["max_jobs_per_s"] =
      st.burst_wall_s > 0.0 ? static_cast<double>(st.burst_done) / st.burst_wall_s : 0.0;
  return r;
}

}  // namespace neurfill::perfbench

// End-to-end integration tests: the full NeurFill framework (Fig. 7) on a
// small synthetic design with a briefly pre-trained surrogate.

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "common/checkpoint.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "fill/neurfill.hpp"
#include "fill/snapshot.hpp"
#include "fill/report.hpp"
#include "geom/designs.hpp"
#include "runtime/parallel.hpp"
#include "surrogate/network_reference.hpp"
#include "surrogate/trainer.hpp"

namespace neurfill {
namespace {

CmpProcessParams fast_params() {
  CmpProcessParams p;
  p.polish_time_s = 12.0;
  p.dt_s = 1.0;
  return p;
}

/// Shared fixture: one design, one briefly-trained surrogate.  Training a
/// tiny UNet on 16x16 assembled layouts takes well under a second per epoch
/// on one core.
class NeurFillPipeline : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    layout_ = new Layout(make_design('a', 16, 100.0, 3));
    WindowExtraction ext = extract_windows(*layout_);
    CmpSimulator sim(fast_params());
    ScoreCoefficients coeffs = make_coefficients(*layout_, ext, sim);
    problem_ = new FillProblem(ext, sim, coeffs);

    SurrogateConfig cfg;
    cfg.unet.base_channels = 4;
    cfg.unet.depth = 2;
    auto surrogate = std::make_shared<CmpSurrogate>(cfg, 21);
    TrainingDataGenerator gen({ext}, sim, 31, 4);
    TrainOptions topt;
    topt.epochs = 8;
    topt.dataset_size = 60;
    topt.grid_rows = topt.grid_cols = 16;
    topt.learning_rate = 3e-3f;
    train_surrogate(*surrogate, gen, topt);
    network_ = new CmpNetwork(surrogate, ext, coeffs);
    calibrate_network(*network_, *problem_);
  }
  static void TearDownTestSuite() {
    delete network_;
    delete problem_;
    delete layout_;
  }

  static Layout* layout_;
  static FillProblem* problem_;
  static CmpNetwork* network_;
};

Layout* NeurFillPipeline::layout_ = nullptr;
FillProblem* NeurFillPipeline::problem_ = nullptr;
CmpNetwork* NeurFillPipeline::network_ = nullptr;

TEST_F(NeurFillPipeline, TrainedSurrogateTracksSimulator) {
  // The surrogate regresses centered topography; after the short training
  // its mean absolute error on the design must stay well below the
  // simulator topography's peak-to-peak range.
  const std::vector<GridD> x = problem_->zero_fill();
  auto sim_h = problem_->simulator().simulate_heights(problem_->extraction(), x);
  double lo = 1e300, hi = -1e300;
  for (auto& h : sim_h) {
    double mean_h = 0.0;
    for (const double v : h) mean_h += v;
    mean_h /= static_cast<double>(h.size());
    for (auto& v : h) {
      v -= mean_h;
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
  }
  const auto net_h = network_->predict_heights(x);
  double err = 0.0;
  std::size_t n = 0;
  for (std::size_t l = 0; l < sim_h.size(); ++l)
    for (std::size_t k = 0; k < sim_h[l].size(); ++k) {
      err += std::fabs(net_h[l][k] - sim_h[l][k]);
      ++n;
    }
  const double mean_err = err / static_cast<double>(n);
  EXPECT_LT(mean_err / (hi - lo), 0.2);
}

TEST_F(NeurFillPipeline, NetworkObjectiveConsistent) {
  long evals = 0;
  const ObjectiveFn obj = make_network_objective(*problem_, *network_, &evals);
  const VecD v = problem_->flatten(problem_->zero_fill());
  const double f = obj(v, nullptr);
  const CmpNetwork::Eval net = network_->evaluate(problem_->zero_fill(), false);
  const PdScore pd = pd_score_and_gradient(problem_->extraction(),
                                           problem_->zero_fill(),
                                           problem_->coefficients());
  EXPECT_NEAR(f, -(net.s_plan + pd.s_pd), 1e-12);
  EXPECT_EQ(evals, 1);
  VecD g;
  obj(v, &g);
  EXPECT_EQ(g.size(), v.size());
  EXPECT_EQ(evals, 2);
}

TEST_F(NeurFillPipeline, PkbImprovesTrueQuality) {
  NeurFillOptions opt;
  opt.sqp.max_iterations = 15;
  opt.pkb_steps = 6;
  const FillRunResult res = neurfill_pkb(*problem_, *network_, opt);
  EXPECT_EQ(res.method, "NeurFill (PKB)");
  EXPECT_GT(res.objective_evaluations, 6);
  // Feasibility.
  const Box b = problem_->bounds();
  const VecD v = problem_->flatten(res.x);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_GE(v[i], -1e-9);
    EXPECT_LE(v[i], b.hi[i] + 1e-9);
  }
  // Ground-truth quality improves over no fill.
  const double q0 = problem_->evaluate(problem_->zero_fill()).s_qual;
  const double q1 = problem_->evaluate(res.x).s_qual;
  EXPECT_GT(q1, q0);
}

TEST_F(NeurFillPipeline, MmAtLeastMatchesSurrogateObjectiveOfPkb) {
  NeurFillOptions opt;
  opt.sqp.max_iterations = 10;
  opt.pkb_steps = 5;
  opt.nmmso.max_evaluations = 60;
  opt.mm_starts = 2;
  const FillRunResult pkb = neurfill_pkb(*problem_, *network_, opt);
  const FillRunResult mm = neurfill_mm(*problem_, *network_, opt);
  EXPECT_EQ(mm.method, "NeurFill (MM)");
  // MM's start pool includes the PKB start, so on the surrogate objective it
  // can only do at least as well as PKB (up to line-search wiggle).
  const ObjectiveFn obj = make_network_objective(*problem_, *network_);
  const double f_pkb = obj(problem_->flatten(pkb.x), nullptr);
  const double f_mm = obj(problem_->flatten(mm.x), nullptr);
  EXPECT_LE(f_mm, f_pkb + 1e-6);
}

TEST_F(NeurFillPipeline, MmIsIdenticalAcrossThreadCounts) {
  // Full-drive determinism gate for the compiled surrogate path: the MM flow
  // (prepacked session weights, compiled reverse-pass gradients, NMMSO and
  // the MSP starts running concurrently on the pool) must produce
  // byte-identical fills and equal evaluation counts at 1, 2, 4 and 8
  // threads.
  NeurFillOptions opt;
  opt.sqp.max_iterations = 4;
  opt.pkb_steps = 4;
  opt.nmmso.max_evaluations = 30;
  opt.mm_starts = 2;

  std::vector<FillRunResult> runs;
  for (const int threads : {1, 2, 4, 8}) {
    runtime::set_thread_count(threads);
    runs.push_back(neurfill_mm(*problem_, *network_, opt));
  }
  runtime::set_thread_count(0);  // restore the environment default

  const VecD first = problem_->flatten(runs[0].x);
  for (std::size_t r = 1; r < runs.size(); ++r) {
    EXPECT_EQ(runs[r].objective_evaluations, runs[0].objective_evaluations)
        << "run " << r;
    const VecD fill = problem_->flatten(runs[r].x);
    ASSERT_EQ(fill.size(), first.size());
    for (std::size_t i = 0; i < first.size(); ++i)
      ASSERT_EQ(fill[i], first[i]) << "run " << r << " var " << i;
  }
}

TEST_F(NeurFillPipeline, SearchAndSqpMatchAutogradReference) {
  // Drive-level differential of the compiled surrogate against the autograd
  // reference (surrogate/network_reference.hpp): NMMSO on the compiled
  // network objective, as neurfill_mm sets it up, and NMMSO on the
  // reference find the same modes with the same evaluation count; SQP from
  // the best mode then takes the same iterates on either objective.
  const FillProblem& problem = *problem_;
  const CmpNetwork& network = *network_;
  const ObjectiveFn compiled = make_network_objective(problem, network);
  const ObjectiveFn reference = [&](const VecD& v, VecD* grad) -> double {
    const std::vector<GridD> x = problem.unflatten(v);
    const CmpNetwork::Eval net = reference_evaluate(network, x, grad != nullptr);
    const PdScore pd =
        pd_score_and_gradient(problem.extraction(), x, problem.coefficients());
    if (grad) {
      grad->assign(v.size(), 0.0);
      std::size_t k = 0;
      for (std::size_t l = 0; l < net.grad.size(); ++l)
        for (std::size_t w = 0; w < net.grad[l].size(); ++w, ++k)
          (*grad)[k] = -(net.grad[l][w] + pd.grad[l][w]);
    }
    return -(net.s_plan + pd.s_pd);
  };
  const auto maximize = [](const ObjectiveFn& f) {
    return [f](const VecD& v, VecD*) { return -f(v, nullptr); };
  };

  NmmsoOptions nopt;
  nopt.max_evaluations = 40;
  Nmmso search(maximize(compiled), problem.bounds(), nopt);
  Nmmso ref_search(maximize(reference), problem.bounds(), nopt);
  const std::vector<Mode> modes = search.run();
  const std::vector<Mode> ref_modes = ref_search.run();
  EXPECT_EQ(search.evaluations_used(), ref_search.evaluations_used());
  ASSERT_FALSE(modes.empty());
  ASSERT_EQ(modes.size(), ref_modes.size());
  for (std::size_t m = 0; m < modes.size(); ++m) {
    EXPECT_EQ(modes[m].value, ref_modes[m].value) << "mode " << m;
    ASSERT_EQ(modes[m].x, ref_modes[m].x) << "mode " << m;
  }

  SqpOptions sopt;
  sopt.max_iterations = 6;
  std::vector<SqpState> trail, ref_trail;
  sopt.checkpoint_hook = [&trail](const SqpState& st) { trail.push_back(st); };
  const SqpResult res =
      sqp_minimize(compiled, modes[0].x, problem.bounds(), sopt);
  sopt.checkpoint_hook = [&ref_trail](const SqpState& st) {
    ref_trail.push_back(st);
  };
  const SqpResult ref =
      sqp_minimize(reference, modes[0].x, problem.bounds(), sopt);
  ASSERT_EQ(trail.size(), ref_trail.size());
  EXPECT_GT(trail.size(), 1u);
  for (std::size_t k = 0; k < trail.size(); ++k) {
    EXPECT_EQ(trail[k].f, ref_trail[k].f) << "iteration " << k;
    ASSERT_EQ(trail[k].x, ref_trail[k].x) << "iteration " << k;
    ASSERT_EQ(trail[k].g, ref_trail[k].g) << "iteration " << k;
  }
  EXPECT_EQ(res.x, ref.x);
  EXPECT_EQ(res.f, ref.f);
  EXPECT_EQ(res.function_evaluations, ref.function_evaluations);
}

TEST_F(NeurFillPipeline, ReportScoresAreAssembled) {
  NeurFillOptions opt;
  opt.sqp.max_iterations = 5;
  opt.pkb_steps = 4;
  const FillRunResult res = neurfill_pkb(*problem_, *network_, opt);
  const MethodReport rep = score_fill_result(*problem_, *layout_, res);
  EXPECT_EQ(rep.method, "NeurFill (PKB)");
  EXPECT_GT(rep.score.overall, 0.0);
  EXPECT_LE(rep.score.quality.s_qual, 1.0 + 1e-9);
  EXPECT_GT(rep.file_size_bytes, 0.0);
  EXPECT_GT(rep.memory_bytes, 0.0);
  EXPECT_GE(rep.truth.delta_h, 0.0);
}

TEST_F(NeurFillPipeline, CalibrationAnchorsAndMonotonicity) {
  // The log-space power fit is exact at the zero-fill anchor whenever a
  // calibration was fitted; it is exact at the full-fill anchor too when
  // the exponent did not clamp (a weak surrogate can be nearly fill-blind,
  // needing an exponent beyond the guard).  In every case b > 0 preserves
  // the fill-improves-sigma direction the optimizer relies on.
  const WindowExtraction& ext = problem_->extraction();
  const std::vector<GridD> zero = problem_->zero_fill();
  std::vector<GridD> full;
  for (const auto& l : ext.layers) full.push_back(l.slack);

  const auto& cal = network_->sigma_calibration();
  EXPECT_GT(cal.b, 0.0);

  const PlanarityMetrics t0 = compute_planarity(
      problem_->simulator().simulate_heights(ext, zero));
  const CmpNetwork::Eval c0 = network_->evaluate(zero, false);
  const bool fitted = cal.b != 1.0 || cal.a != 0.0;
  if (fitted) {
    EXPECT_NEAR(c0.sigma, t0.sigma, 2e-2 * std::max(t0.sigma, 1.0));
  }

  const PlanarityMetrics t1 = compute_planarity(
      problem_->simulator().simulate_heights(ext, full));
  const CmpNetwork::Eval c1 = network_->evaluate(full, false);
  if (fitted && cal.b > 0.11 && cal.b < 9.9) {
    // Unclamped: both anchors exact.
    EXPECT_NEAR(c1.sigma, t1.sigma, 2e-2 * std::max(t1.sigma, 1.0));
  }
  // Monotonicity: the simulator says full fill flattens this design, and
  // the calibrated network must agree on the *direction*.
  ASSERT_LT(t1.sigma, t0.sigma);
  EXPECT_LT(c1.sigma, c0.sigma);
}

TEST_F(NeurFillPipeline, InterruptedPkbResumesByteIdentical) {
  // docs/robustness.md resume contract: interrupt a run at its very first
  // checkpoint opportunity, then --resume; the resumed run's fill must be
  // bitwise identical to an uninterrupted one.
  NeurFillOptions opt;
  opt.sqp.max_iterations = 12;
  opt.pkb_steps = 6;
  const FillRunResult full = neurfill_pkb(*problem_, *network_, opt);

  const std::string snap = ::testing::TempDir() + "neurfill_resume.nfcp";
  std::remove(snap.c_str());
  NeurFillOptions iopt = opt;
  iopt.snapshot_path = snap;
  std::atomic<bool> stop{true};  // pre-set: the first checkpoint hook throws
  iopt.interrupt = &stop;
  bool interrupted = false;
  try {
    neurfill_pkb(*problem_, *network_, iopt);
  } catch (const ErrorException& e) {
    interrupted = e.err.code == ErrorCode::kInterrupted;
  }
  ASSERT_TRUE(interrupted);

  NeurFillOptions ropt = opt;
  ropt.snapshot_path = snap;
  ropt.resume = true;
  const FillRunResult resumed = neurfill_pkb(*problem_, *network_, ropt);
  ASSERT_EQ(resumed.x.size(), full.x.size());
  for (std::size_t l = 0; l < full.x.size(); ++l)
    for (std::size_t k = 0; k < full.x[l].size(); ++k)
      EXPECT_EQ(resumed.x[l][k], full.x[l][k]);  // exact, not approximate
  EXPECT_EQ(resumed.objective_evaluations, full.objective_evaluations);
  EXPECT_EQ(resumed.iterations, full.iterations);
  std::remove(snap.c_str());
}

/// Starts mid-flight in a snapshot.
int in_flight(const FillSnapshot& s) {
  int n = 0;
  for (const FillSnapshot::StartRecord& r : s.records)
    n += r.state == FillSnapshot::StartRecord::State::kRunning ? 1 : 0;
  return n;
}

/// Runs MM with snapshots, raises the interrupt once the snapshot on disk
/// satisfies `when`, and returns the snapshot the interrupted run left.
Expected<FillSnapshot> interrupt_mm_when(
    const FillProblem& problem, const CmpNetwork& network,
    NeurFillOptions opt, const std::string& snap,
    const std::function<bool(const FillSnapshot&)>& when) {
  std::remove(snap.c_str());
  opt.snapshot_path = snap;
  std::atomic<bool> stop{false};
  opt.interrupt = &stop;
  std::atomic<bool> done{false};
  std::thread watcher([&] {
    while (!done.load()) {
      const Expected<FillSnapshot> s = load_fill_snapshot(snap);
      if (s.ok() && when(*s)) {
        stop.store(true);
        return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  bool interrupted = false;
  try {
    neurfill_mm(problem, network, opt);
  } catch (const ErrorException& e) {
    interrupted = e.err.code == ErrorCode::kInterrupted;
  }
  done.store(true);
  watcher.join();
  EXPECT_TRUE(interrupted);
  return load_fill_snapshot(snap);
}

TEST_F(NeurFillPipeline, InterruptedMmWithStartsInFlightResumesByteIdentical) {
  // Concurrent MSP starts: interrupt an MM drive while several starts are
  // mid-flight, each with its own snapshot record, then resume.  The fill
  // and the evaluation count must equal an uninterrupted run's exactly.
  NeurFillOptions opt;
  opt.sqp.max_iterations = 12;
  opt.pkb_steps = 4;
  opt.nmmso.max_evaluations = 30;
  opt.mm_starts = 2;
  runtime::set_thread_count(4);
  const FillRunResult full = neurfill_mm(*problem_, *network_, opt);

  const std::string snap = ::testing::TempDir() + "neurfill_mm_resume.nfcp";
  // Raise the interrupt once the snapshot shows two starts mid-flight.
  const Expected<FillSnapshot> saved = interrupt_mm_when(
      *problem_, *network_, opt, snap,
      [](const FillSnapshot& s) { return in_flight(s) >= 2; });
  ASSERT_TRUE(saved.ok());
  EXPECT_GE(in_flight(*saved), 2);

  NeurFillOptions ropt = opt;
  ropt.snapshot_path = snap;
  ropt.resume = true;
  const FillRunResult resumed = neurfill_mm(*problem_, *network_, ropt);
  runtime::set_thread_count(0);
  ASSERT_EQ(resumed.x.size(), full.x.size());
  for (std::size_t l = 0; l < full.x.size(); ++l)
    for (std::size_t k = 0; k < full.x[l].size(); ++k)
      ASSERT_EQ(resumed.x[l][k], full.x[l][k]);
  EXPECT_EQ(resumed.objective_evaluations, full.objective_evaluations);
  EXPECT_EQ(resumed.iterations, full.iterations);
  std::remove(snap.c_str());
}

TEST_F(NeurFillPipeline, InterruptedMmWithSearchPendingResumesByteIdentical) {
  // NMMSO runs beside the starts that need nothing from it.  Interrupt
  // while the search is still pending and at least two of those starts are
  // mid-flight: the snapshot holds their records and no modes, and the
  // resume runs the search again and continues the starts.  The fill and
  // the evaluation count must equal an uninterrupted run's exactly.
  NeurFillOptions opt;
  opt.sqp.max_iterations = 12;
  opt.pkb_steps = 4;
  opt.nmmso.max_evaluations = 400;  // a search that outlasts the starts
  opt.mm_starts = 2;
  runtime::set_thread_count(4);
  const FillRunResult full = neurfill_mm(*problem_, *network_, opt);

  const std::string snap = ::testing::TempDir() + "neurfill_mm_pending.nfcp";
  const Expected<FillSnapshot> saved = interrupt_mm_when(
      *problem_, *network_, opt, snap, [](const FillSnapshot& s) {
        return s.search_pending && in_flight(s) >= 2;
      });
  ASSERT_TRUE(saved.ok());
  EXPECT_TRUE(saved->search_pending);
  EXPECT_TRUE(saved->modes.empty());
  EXPECT_GE(in_flight(*saved), 2);

  NeurFillOptions ropt = opt;
  ropt.snapshot_path = snap;
  ropt.resume = true;
  const FillRunResult resumed = neurfill_mm(*problem_, *network_, ropt);
  runtime::set_thread_count(0);
  ASSERT_EQ(resumed.x.size(), full.x.size());
  for (std::size_t l = 0; l < full.x.size(); ++l)
    for (std::size_t k = 0; k < full.x[l].size(); ++k)
      ASSERT_EQ(resumed.x[l][k], full.x[l][k]);
  EXPECT_EQ(resumed.objective_evaluations, full.objective_evaluations);
  EXPECT_EQ(resumed.iterations, full.iterations);
  std::remove(snap.c_str());
}

TEST_F(NeurFillPipeline, VersionOneSnapshotIsRefusedWithStructuredError) {
  // Version-1 snapshots held one mid-flight start; they cannot describe
  // concurrent starts, so resume refuses them instead of guessing.
  const std::string snap = ::testing::TempDir() + "neurfill_v1.nfcp";
  CheckpointWriter w;
  ByteWriter meta;
  meta.u32(1);
  meta.str("pkb");
  meta.u64(problem_->bounds().size());
  meta.i64(0);
  meta.u32(0);
  meta.u32(0);
  meta.u32(0);
  w.add_section("meta", meta.take());
  w.add_section("starts", ByteWriter().take());
  w.add_section("completed", ByteWriter().take());
  ASSERT_TRUE(w.commit(snap).ok());
  NeurFillOptions opt;
  opt.snapshot_path = snap;
  opt.resume = true;
  try {
    neurfill_pkb(*problem_, *network_, opt);
    FAIL() << "a version-1 snapshot was accepted";
  } catch (const ErrorException& e) {
    EXPECT_EQ(e.err.code, ErrorCode::kCorrupt);
    EXPECT_NE(e.err.message.find("version 1"), std::string::npos)
        << e.err.message;
  }
  std::remove(snap.c_str());
}

TEST_F(NeurFillPipeline, VersionTwoSnapshotIsRefusedWithStructuredError) {
  // Version-2 snapshots stored the final start list: NMMSO always finished
  // before any start ran.  They cannot describe a pending search beside
  // running starts, so resume refuses them instead of guessing.
  const std::string snap = ::testing::TempDir() + "neurfill_v2.nfcp";
  CheckpointWriter w;
  ByteWriter meta;
  meta.u32(2);
  meta.str("pkb");
  meta.u64(problem_->bounds().size());
  meta.i64(0);  // evaluations before the drive
  meta.u32(0);  // starts
  meta.u32(0);  // records
  w.add_section("meta", meta.take());
  w.add_section("starts", ByteWriter().take());
  w.add_section("records", ByteWriter().take());
  ASSERT_TRUE(w.commit(snap).ok());
  NeurFillOptions opt;
  opt.snapshot_path = snap;
  opt.resume = true;
  try {
    neurfill_pkb(*problem_, *network_, opt);
    FAIL() << "a version-2 snapshot was accepted";
  } catch (const ErrorException& e) {
    EXPECT_EQ(e.err.code, ErrorCode::kCorrupt);
    EXPECT_NE(e.err.message.find("version 2"), std::string::npos)
        << e.err.message;
  }
  std::remove(snap.c_str());
}

TEST_F(NeurFillPipeline, SnapshotRenameFaultsStillResumeFromLastGood) {
  // Random snapshot commits fail mid-write (rename fault): the run itself
  // must be unaffected, the snapshot on disk stays the last *good* image,
  // and resuming from it reproduces the identical fill.
  NeurFillOptions opt;
  opt.sqp.max_iterations = 12;
  opt.pkb_steps = 6;
  const FillRunResult full = neurfill_pkb(*problem_, *network_, opt);

  const std::string snap = ::testing::TempDir() + "neurfill_lastgood.nfcp";
  std::remove(snap.c_str());
  NeurFillOptions fopt = opt;
  fopt.snapshot_path = snap;
  fault::disarm_all();
  fault::arm_prob("io.rename", 0.5, 13);
  const FillRunResult faulted = neurfill_pkb(*problem_, *network_, fopt);
  fault::disarm_all();
  for (std::size_t l = 0; l < full.x.size(); ++l)
    for (std::size_t k = 0; k < full.x[l].size(); ++k)
      EXPECT_EQ(faulted.x[l][k], full.x[l][k]);

  // Whatever intermediate state survived on disk, resuming from it lands on
  // the same answer (a missing snapshot falls back to a clean fresh run).
  NeurFillOptions ropt = opt;
  ropt.snapshot_path = snap;
  ropt.resume = true;
  const FillRunResult resumed = neurfill_pkb(*problem_, *network_, ropt);
  for (std::size_t l = 0; l < full.x.size(); ++l)
    for (std::size_t k = 0; k < full.x[l].size(); ++k)
      EXPECT_EQ(resumed.x[l][k], full.x[l][k]);
  std::remove(snap.c_str());
}

TEST_F(NeurFillPipeline, CorruptSnapshotResumeIsStructuredError) {
  const std::string snap = ::testing::TempDir() + "neurfill_corrupt.nfcp";
  std::ofstream(snap, std::ios::binary) << "NFCPgarbage-not-a-checkpoint";
  NeurFillOptions opt;
  opt.snapshot_path = snap;
  opt.resume = true;
  bool corrupt = false;
  try {
    neurfill_pkb(*problem_, *network_, opt);
  } catch (const ErrorException& e) {
    corrupt = e.err.code == ErrorCode::kCorrupt;
  }
  EXPECT_TRUE(corrupt);

  // A well-formed container whose start count its sections cannot hold is
  // damage too, refused before the count sizes any allocation.
  CheckpointWriter w;
  ByteWriter meta;
  meta.u32(3);
  meta.str("mm");
  meta.u64(problem_->bounds().size());
  meta.u32(0);         // search finished
  meta.i64(0);         // its evaluations
  meta.u32(1u << 30);  // modes
  meta.u32(1u << 30);  // records
  w.add_section("meta", meta.take());
  w.add_section("modes", ByteWriter().take());
  w.add_section("records", ByteWriter().take());
  ASSERT_TRUE(w.commit(snap).ok());
  const Expected<FillSnapshot> loaded = load_fill_snapshot(snap);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.error().code, ErrorCode::kCorrupt);

  // A readable snapshot whose records do not fit the drive's starts (mm
  // has four starts before its modes) is refused on resume.
  FillSnapshot wrong;
  wrong.method = "mm";
  wrong.dims = problem_->bounds().size();
  wrong.search_pending = true;
  wrong.records.resize(2);
  ASSERT_TRUE(save_fill_snapshot(wrong, snap).ok());
  bool refused = false;
  try {
    neurfill_mm(*problem_, *network_, opt);
  } catch (const ErrorException& e) {
    refused = e.err.code == ErrorCode::kCorrupt;
  }
  EXPECT_TRUE(refused);
  std::remove(snap.c_str());
}

TEST_F(NeurFillPipeline, DeadlineExpiryReturnsBestFeasibleFlagged) {
  NeurFillOptions opt;
  opt.sqp.max_iterations = 12;
  opt.pkb_steps = 6;
  opt.deadline = Deadline::after_seconds(0.0);  // already expired
  const FillRunResult res = neurfill_pkb(*problem_, *network_, opt);
  EXPECT_TRUE(res.timed_out);
  const Box b = problem_->bounds();
  const VecD v = problem_->flatten(res.x);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_GE(v[i], -1e-9);
    EXPECT_LE(v[i], b.hi[i] + 1e-9);
  }
}

TEST_F(NeurFillPipeline, SurrogateGradientlessVsGradientAgreement) {
  // The surrogate objective used by SQP must be the same function NMMSO
  // explores (value path vs gradient path consistency).
  const ObjectiveFn obj = make_network_objective(*problem_, *network_);
  VecD v = problem_->flatten(problem_->zero_fill());
  for (std::size_t i = 0; i < v.size(); i += 7) v[i] = 0.01;
  VecD g;
  const double f1 = obj(v, nullptr);
  const double f2 = obj(v, &g);
  EXPECT_EQ(f1, f2);
}

}  // namespace
}  // namespace neurfill

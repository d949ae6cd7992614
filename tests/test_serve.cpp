// Tests of the nf_serve daemon subsystem (docs/serving.md):
//  * wire protocol — JSON parse/render round-trips, malformed-input and
//    depth-bound rejection, HTTP response shape;
//  * job records — serialize/deserialize round-trip, truncation and
//    range validation;
//  * write-ahead journal — recovery, and the corruption matrix: a record
//    file truncated at EVERY byte prefix and bit-flipped at EVERY byte
//    must either recover the identical record or quarantine, never yield
//    a different record;
//  * scheduler — admission control (kOverloaded/kQueueFull, sub-second
//    rejection), deterministic jitter-free backoff, retry-until-exhausted,
//    interrupt re-queue, drain;
//  * runner — artifact production, corrupt-snapshot quarantine with a
//    byte-identical re-solve, the surrogate cache, serve.worker_crash;
//  * daemon end-to-end over a real loopback socket, including the
//    serve.accept and serve.reply_short_write fault sites.

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.hpp"
#include "common/log.hpp"
#include "geom/designs.hpp"
#include "geom/glf_io.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/job.hpp"
#include "serve/journal.hpp"
#include "serve/protocol.hpp"
#include "serve/runner.hpp"
#include "serve/scheduler.hpp"
#include "serve/server.hpp"

namespace neurfill::serve {
namespace {

std::string test_dir(const std::string& leaf) {
  const std::string dir = ::testing::TempDir() + "nf_serve_" + leaf;
  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);  // hermetic across reruns
  return dir;
}

std::vector<char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

JobRecord sample_record() {
  JobRecord rec;
  rec.id = "j000042";
  rec.spec.design = "in.glf";
  rec.spec.out = "out.glf";
  rec.spec.method = "pkb";
  rec.spec.surrogate = "w/unet";
  rec.spec.window_um = 50.0;
  rec.spec.deadline_s = 12.5;
  rec.spec.max_attempts = 3;
  rec.state = JobState::kFailed;
  JobAttempt a;
  a.ok = false;
  a.code = ErrorCode::kNonConverged;
  a.message = "[opt.sqp] non_converged: residual too high";
  a.runtime_s = 1.25;
  rec.attempts.push_back(a);
  a.ok = true;
  a.code = ErrorCode::kIo;
  a.message.clear();
  a.runtime_s = 2.5;
  rec.attempts.push_back(a);
  rec.outcome.dummies = 123;
  rec.outcome.runtime_s = 3.5;
  rec.outcome.evaluations = 77;
  rec.outcome.degraded = true;
  rec.final_error = "[serve.scheduler] retry_exhausted: 3 attempts failed";
  return rec;
}

// ---------------------------------------------------------------- protocol

TEST(ServeProtocol, ParseRenderRoundTrip) {
  const std::string text =
      R"({"a":[1,2.5,-3],"b":{"c":"x\ny","d":true,"e":null},"f":"ué",)"
      R"("g":1e300})";
  Expected<JsonValue> v = json_parse(text);
  ASSERT_TRUE(v.ok()) << v.error().to_string();
  EXPECT_EQ(v->object.at("a").array.size(), 3u);
  EXPECT_DOUBLE_EQ(v->object.at("a").array[1].number, 2.5);
  EXPECT_EQ(v->object.at("b").object.at("c").string, "x\ny");
  EXPECT_TRUE(v->object.at("b").object.at("d").boolean);
  EXPECT_EQ(v->object.at("b").object.at("e").kind, JsonValue::Kind::kNull);
  EXPECT_EQ(v->object.at("f").string, "u\xc3\xa9");
  EXPECT_EQ(v->object.at("g").number, 1e300);
  // Render -> parse -> render is a fixed point (sorted keys, stable
  // number formatting).
  const std::string once = json_render(*v);
  Expected<JsonValue> again = json_parse(once);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(json_render(*again), once);
  EXPECT_EQ(again->object.at("g").number, 1e300);
  // JSON has no NaN or infinity.
  EXPECT_EQ(json_render(json_number(std::nan(""))), "null");
  EXPECT_EQ(json_render(json_number(-HUGE_VAL)), "null");
}

TEST(ServeProtocol, TypedAccessorsFallBack) {
  Expected<JsonValue> v =
      json_parse(R"({"s":"x","n":4,"b":true,"wrong":"kind"})");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->get_string("s"), "x");
  EXPECT_EQ(v->get_string("missing", "dflt"), "dflt");
  EXPECT_EQ(v->get_number("n"), 4.0);
  EXPECT_EQ(v->get_number("wrong", -1.0), -1.0);
  EXPECT_TRUE(v->get_bool("b"));
  EXPECT_FALSE(v->get_bool("missing"));
}

TEST(ServeProtocol, MalformedInputIsStructuredError) {
  const char* bad[] = {
      "",           "{",       "[1,",      "\"unterminated", "{\"a\":}",
      "tru",        "1 2",     "{\"a\":1,}",                 "nul",
      "{\"a\" 1}",  "\x01",    "[1,2] []",
  };
  for (const char* text : bad) {
    Expected<JsonValue> v = json_parse(text);
    ASSERT_FALSE(v.ok()) << "accepted: " << text;
    EXPECT_EQ(v.error().code, ErrorCode::kInvalidArgument);
  }
}

TEST(ServeProtocol, DepthBoundStopsHostileNesting) {
  std::string deep;
  for (int i = 0; i < 64; ++i) deep += "[";
  EXPECT_FALSE(json_parse(deep).ok());
  // 8 levels is comfortably inside the bound.
  EXPECT_TRUE(json_parse("[[[[[[[[1]]]]]]]]").ok());
}

TEST(ServeProtocol, ErrorReplyAndHttpShape) {
  const std::string reply = error_reply(
      Error(ErrorCode::kOverloaded, "serve.admission", "queue full"));
  Expected<JsonValue> v = json_parse(reply);
  ASSERT_TRUE(v.ok());
  EXPECT_FALSE(v->get_bool("ok", true));
  EXPECT_EQ(v->get_string("code"), "overloaded");
  const std::string resp = http_response(200, "application/json", "{}\n");
  EXPECT_EQ(resp.rfind("HTTP/1.0 200", 0), 0u);
  EXPECT_NE(resp.find("Content-Length: 3"), std::string::npos);
  EXPECT_NE(resp.find("Connection: close"), std::string::npos);
  EXPECT_NE(resp.find("\r\n\r\n{}\n"), std::string::npos);
}

// --------------------------------------------------------------- job model

TEST(ServeJob, SerializeRoundTrip) {
  const JobRecord rec = sample_record();
  const std::vector<char> bytes = rec.serialize();
  Expected<JobRecord> back = JobRecord::deserialize(bytes);
  ASSERT_TRUE(back.ok()) << back.error().to_string();
  EXPECT_EQ(back->serialize(), bytes);
  EXPECT_EQ(back->id, rec.id);
  EXPECT_EQ(back->state, JobState::kFailed);
  ASSERT_EQ(back->attempts.size(), 2u);
  EXPECT_EQ(back->attempts[0].code, ErrorCode::kNonConverged);
  EXPECT_EQ(back->outcome.dummies, 123u);
  EXPECT_EQ(back->final_error, rec.final_error);
}

TEST(ServeJob, EveryTruncatedPrefixIsRejected) {
  const std::vector<char> bytes = sample_record().serialize();
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    const std::vector<char> prefix(bytes.begin(),
                                   bytes.begin() + static_cast<long>(n));
    Expected<JobRecord> r = JobRecord::deserialize(prefix);
    EXPECT_FALSE(r.ok()) << "prefix of " << n << " bytes parsed";
    if (!r.ok()) {
      EXPECT_EQ(r.error().code, ErrorCode::kCorrupt);
    }
  }
}

TEST(ServeJob, OutOfRangeStateAndVersionAreRejected) {
  JobRecord rec = sample_record();
  std::vector<char> bytes = rec.serialize();
  bytes[0] = 9;  // format version (little-endian u32 low byte)
  EXPECT_FALSE(JobRecord::deserialize(bytes).ok());
  bytes = rec.serialize();
  std::vector<char> trailing = bytes;
  trailing.push_back('x');
  EXPECT_FALSE(JobRecord::deserialize(trailing).ok());
}

// ----------------------------------------------------------------- journal

TEST(ServeJournal, WriteRecoverRoundTrip) {
  const std::string dir = test_dir("journal_rt");
  Expected<JobJournal> j = JobJournal::open(dir);
  ASSERT_TRUE(j.ok()) << j.error().to_string();
  JobRecord a = sample_record();
  a.id = "j000002";
  JobRecord b = sample_record();
  b.id = "j000001";
  b.state = JobState::kQueued;
  ASSERT_TRUE(j->write(a).ok());
  ASSERT_TRUE(j->write(b).ok());
  Expected<JobJournal::Recovery> rec = j->recover();
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->quarantined, 0u);
  ASSERT_EQ(rec->records.size(), 2u);
  // Sorted by id regardless of write/readdir order.
  EXPECT_EQ(rec->records[0].id, "j000001");
  EXPECT_EQ(rec->records[1].id, "j000002");
  j->remove("j000001");
  j->remove("j000002");
  Expected<JobJournal::Recovery> empty = j->recover();
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->records.empty());
}

// The crash-safety acceptance matrix: the on-disk record is truncated at
// every byte prefix and bit-flipped at every byte; recovery must either
// return the original record byte-for-byte or quarantine the file — a
// wrong-but-parseable record is the one outcome that may never happen.
TEST(ServeJournal, CorruptionMatrixNeverYieldsAWrongRecord) {
  const std::string dir = test_dir("journal_matrix");
  Expected<JobJournal> j = JobJournal::open(dir);
  ASSERT_TRUE(j.ok());
  JobRecord rec = sample_record();
  ASSERT_TRUE(j->write(rec).ok());
  const std::string path = j->record_path(rec.id);
  const std::vector<char> good = read_file(path);
  ASSERT_GT(good.size(), 32u);
  const std::vector<char> want = rec.serialize();

  std::size_t quarantined_total = 0;
  const auto check_variant = [&](const std::vector<char>& bytes,
                                 const std::string& what) {
    write_file(path, bytes);
    Expected<JobJournal::Recovery> r = j->recover();
    ASSERT_TRUE(r.ok()) << what;
    if (r->records.empty()) {
      EXPECT_EQ(r->quarantined, 1u) << what;
      quarantined_total++;
      std::remove((path + ".corrupt").c_str());
    } else {
      ASSERT_EQ(r->records.size(), 1u) << what;
      EXPECT_EQ(r->records[0].serialize(), want)
          << what << ": recovered a DIFFERENT record";
    }
  };

  for (std::size_t n = 0; n < good.size(); ++n) {
    check_variant(std::vector<char>(good.begin(),
                                    good.begin() + static_cast<long>(n)),
                  "truncation to " + std::to_string(n) + " bytes");
  }
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::vector<char> flipped = good;
    flipped[i] = static_cast<char>(flipped[i] ^ 0x40);
    check_variant(flipped, "bit flip at byte " + std::to_string(i));
  }
  // The container CRC makes essentially every variant quarantine; if most
  // sailed through the matrix is not testing anything.
  EXPECT_GT(quarantined_total, good.size());
  write_file(path, good);
  Expected<JobJournal::Recovery> r = j->recover();
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->records.size(), 1u);
  EXPECT_EQ(r->records[0].serialize(), want);
}

TEST(ServeJournal, RecordUnderWrongFilenameIsQuarantined) {
  const std::string dir = test_dir("journal_wrongname");
  Expected<JobJournal> j = JobJournal::open(dir);
  ASSERT_TRUE(j.ok());
  JobRecord rec = sample_record();
  ASSERT_TRUE(j->write(rec).ok());
  // A record copied over another job's file must not resurrect under the
  // wrong id.
  write_file(j->record_path("j000099"), read_file(j->record_path(rec.id)));
  Expected<JobJournal::Recovery> r = j->recover();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->quarantined, 1u);
  ASSERT_EQ(r->records.size(), 1u);
  EXPECT_EQ(r->records[0].id, rec.id);
}

TEST(ServeJournal, JournalWriteFaultFailsTheCommit) {
#if defined(NEURFILL_DISABLE_FAULTS)
  GTEST_SKIP() << "fault injection compiled out";
#endif
  fault::disarm_all();
  const std::string dir = test_dir("journal_fault");
  Expected<JobJournal> j = JobJournal::open(dir);
  ASSERT_TRUE(j.ok());
  fault::arm_hit("serve.journal_write", 1);
  Expected<void> w = j->write(sample_record());
  ASSERT_FALSE(w.ok());
  EXPECT_EQ(w.error().code, ErrorCode::kIo);
  fault::disarm_all();
  EXPECT_TRUE(j->write(sample_record()).ok());
}

// --------------------------------------------------------------- scheduler

SchedulerOptions fast_sched_opts() {
  SchedulerOptions o;
  o.queue_capacity = 4;
  o.max_records = 16;
  o.default_max_attempts = 3;
  o.backoff_base_s = 0.001;  // keep retry tests fast
  o.backoff_cap_s = 0.004;
  return o;
}

Scheduler::PersistFn noop_persist() {
  return [](const JobRecord&) { return Expected<void>(); };
}
Scheduler::SnapshotPathFn no_snapshot() {
  return [](const std::string&) { return std::string(); };
}

JobSpec quick_spec() {
  JobSpec s;
  s.design = "d.glf";
  s.out = "o.glf";
  s.method = "lin";
  return s;
}

/// Runs the scheduler worker on a thread; stops and joins on destruction.
struct WorkerThread {
  explicit WorkerThread(Scheduler& s)
      : sched(s), t([&s] { s.run_worker(); }) {}
  ~WorkerThread() {
    sched.stop();
    t.join();
  }
  Scheduler& sched;
  std::thread t;
};

JobState wait_terminal(Scheduler& s, const std::string& id,
                       double timeout_s = 30.0) {
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::duration<double>(timeout_s);
  JobRecord rec;
  while (std::chrono::steady_clock::now() < until) {
    if (s.find(id, &rec) && (rec.state == JobState::kCompleted ||
                             rec.state == JobState::kFailed ||
                             rec.state == JobState::kCancelled))
      return rec.state;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return rec.state;
}

TEST(ServeScheduler, RetryDelayIsPureAndCapped) {
  EXPECT_DOUBLE_EQ(retry_delay_s(0, 0.25, 30.0), 0.0);
  EXPECT_DOUBLE_EQ(retry_delay_s(1, 0.25, 30.0), 0.25);
  EXPECT_DOUBLE_EQ(retry_delay_s(2, 0.25, 30.0), 0.5);
  EXPECT_DOUBLE_EQ(retry_delay_s(3, 0.25, 30.0), 1.0);
  EXPECT_DOUBLE_EQ(retry_delay_s(10, 0.25, 30.0), 30.0);
  EXPECT_DOUBLE_EQ(retry_delay_s(60, 0.25, 30.0), 30.0);  // no overflow
  // Identical inputs, identical schedule — there is no jitter to diff.
  for (int k = 1; k < 8; ++k)
    EXPECT_DOUBLE_EQ(retry_delay_s(k, 0.1, 5.0), retry_delay_s(k, 0.1, 5.0));
}

TEST(ServeScheduler, RecoverableCodePolicy) {
  EXPECT_TRUE(is_recoverable(ErrorCode::kIo));
  EXPECT_TRUE(is_recoverable(ErrorCode::kNonConverged));
  EXPECT_TRUE(is_recoverable(ErrorCode::kNumericPoison));
  EXPECT_TRUE(is_recoverable(ErrorCode::kResourceExhausted));
  EXPECT_FALSE(is_recoverable(ErrorCode::kInvalidArgument));
  EXPECT_FALSE(is_recoverable(ErrorCode::kNotFound));
  EXPECT_FALSE(is_recoverable(ErrorCode::kCorrupt));
  EXPECT_FALSE(is_recoverable(ErrorCode::kDeadlineExceeded));
  EXPECT_FALSE(is_recoverable(ErrorCode::kOverloaded));
}

TEST(ServeScheduler, FullQueueRejectsOverloadedWithoutWaiting) {
  std::atomic<bool> release{false};
  Scheduler s(
      fast_sched_opts(),
      [&](const JobRecord&, const Deadline&, const std::string&,
          const std::atomic<bool>*) -> Expected<JobOutcome> {
        while (!release.load()) std::this_thread::sleep_for(
            std::chrono::milliseconds(1));
        return JobOutcome{};
      },
      noop_persist(), no_snapshot());
  WorkerThread worker(s);
  // First job runs (and blocks on `release`); wait for the worker to pick
  // it up so the next 4 submissions deterministically fill the queue.
  std::vector<std::string> ids;
  Expected<std::string> first = s.submit(quick_spec());
  ASSERT_TRUE(first.ok());
  ids.push_back(*first);
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < until && !s.stats().running)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_TRUE(s.stats().running);
  for (int i = 0; i < 4; ++i) {
    Expected<std::string> id = s.submit(quick_spec());
    ASSERT_TRUE(id.ok()) << i << ": " << id.error().message;
    ids.push_back(*id);
  }

  const auto t0 = std::chrono::steady_clock::now();
  Expected<std::string> rejected = s.submit(quick_spec());
  const double reject_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.error().code, ErrorCode::kOverloaded);
  // The acceptance bar is <10ms; allow slack for sanitizer builds while
  // still catching a deadline-long hang.
  EXPECT_LT(reject_s, 1.0);
  release.store(true);
  for (const std::string& id : ids)
    EXPECT_EQ(wait_terminal(s, id), JobState::kCompleted);
}

TEST(ServeScheduler, RecordTableFullRejectsQueueFull) {
  SchedulerOptions opts = fast_sched_opts();
  opts.max_records = 2;
  opts.queue_capacity = 8;
  Scheduler s(opts,
              [](const JobRecord&, const Deadline&, const std::string&,
                 const std::atomic<bool>*) -> Expected<JobOutcome> {
                return JobOutcome{};
              },
              noop_persist(), no_snapshot());
  ASSERT_TRUE(s.submit(quick_spec()).ok());
  ASSERT_TRUE(s.submit(quick_spec()).ok());
  Expected<std::string> third = s.submit(quick_spec());
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.error().code, ErrorCode::kQueueFull);
}

TEST(ServeScheduler, DrainingRejectsOverloaded) {
  Scheduler s(fast_sched_opts(),
              [](const JobRecord&, const Deadline&, const std::string&,
                 const std::atomic<bool>*) -> Expected<JobOutcome> {
                return JobOutcome{};
              },
              noop_persist(), no_snapshot());
  s.begin_drain();
  Expected<std::string> id = s.submit(quick_spec());
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.error().code, ErrorCode::kOverloaded);
}

TEST(ServeScheduler, PersistFailureRejectsAdmission) {
  Scheduler s(fast_sched_opts(),
              [](const JobRecord&, const Deadline&, const std::string&,
                 const std::atomic<bool>*) -> Expected<JobOutcome> {
                return JobOutcome{};
              },
              [](const JobRecord&) -> Expected<void> {
                return Error(ErrorCode::kIo, "test", "disk on fire");
              },
              no_snapshot());
  Expected<std::string> id = s.submit(quick_spec());
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.error().code, ErrorCode::kIo);
  EXPECT_EQ(s.stats().records, 0u);  // nothing retained
}

TEST(ServeScheduler, RecoverableFailuresRetryThenComplete) {
  std::atomic<int> calls{0};
  Scheduler s(fast_sched_opts(),
              [&](const JobRecord&, const Deadline&, const std::string&,
                  const std::atomic<bool>*) -> Expected<JobOutcome> {
                if (calls.fetch_add(1) < 2)
                  return Error(ErrorCode::kIo, "test", "transient");
                JobOutcome o;
                o.dummies = 7;
                return o;
              },
              noop_persist(), no_snapshot());
  WorkerThread worker(s);
  Expected<std::string> id = s.submit(quick_spec());
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(wait_terminal(s, *id), JobState::kCompleted);
  JobRecord rec;
  ASSERT_TRUE(s.find(*id, &rec));
  ASSERT_EQ(rec.attempts.size(), 3u);
  EXPECT_FALSE(rec.attempts[0].ok);
  EXPECT_EQ(rec.attempts[0].code, ErrorCode::kIo);
  EXPECT_FALSE(rec.attempts[1].ok);
  EXPECT_TRUE(rec.attempts[2].ok);
  EXPECT_EQ(rec.outcome.dummies, 7u);
}

TEST(ServeScheduler, ExhaustedRetriesFailWithRetryExhausted) {
  Scheduler s(fast_sched_opts(),
              [](const JobRecord&, const Deadline&, const std::string&,
                 const std::atomic<bool>*) -> Expected<JobOutcome> {
                return Error(ErrorCode::kNonConverged, "test", "stuck");
              },
              noop_persist(), no_snapshot());
  WorkerThread worker(s);
  Expected<std::string> id = s.submit(quick_spec());
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(wait_terminal(s, *id), JobState::kFailed);
  JobRecord rec;
  ASSERT_TRUE(s.find(*id, &rec));
  EXPECT_EQ(rec.attempts.size(), 3u);
  EXPECT_NE(rec.final_error.find("retry_exhausted"), std::string::npos);
  EXPECT_NE(rec.final_error.find("non_converged"), std::string::npos);
}

TEST(ServeScheduler, PermanentErrorFailsOnFirstAttempt) {
  Scheduler s(fast_sched_opts(),
              [](const JobRecord&, const Deadline&, const std::string&,
                 const std::atomic<bool>*) -> Expected<JobOutcome> {
                return Error(ErrorCode::kNotFound, "test", "no such design");
              },
              noop_persist(), no_snapshot());
  WorkerThread worker(s);
  Expected<std::string> id = s.submit(quick_spec());
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(wait_terminal(s, *id), JobState::kFailed);
  JobRecord rec;
  ASSERT_TRUE(s.find(*id, &rec));
  EXPECT_EQ(rec.attempts.size(), 1u);
  EXPECT_NE(rec.final_error.find("not_found"), std::string::npos);
}

TEST(ServeScheduler, QueueExpiredDeadlineFailsCheaply) {
  std::atomic<int> executions{0};
  Scheduler s(fast_sched_opts(),
              [&](const JobRecord&, const Deadline&, const std::string&,
                  const std::atomic<bool>*) -> Expected<JobOutcome> {
                executions.fetch_add(1);
                return JobOutcome{};
              },
              noop_persist(), no_snapshot());
  JobSpec spec = quick_spec();
  spec.deadline_s = 1e-9;  // expires before the worker even starts
  Expected<std::string> id = s.submit(std::move(spec));
  ASSERT_TRUE(id.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  WorkerThread worker(s);
  EXPECT_EQ(wait_terminal(s, *id), JobState::kFailed);
  JobRecord rec;
  ASSERT_TRUE(s.find(*id, &rec));
  EXPECT_EQ(executions.load(), 0);  // never reached the solver
  EXPECT_TRUE(rec.attempts.empty());
  EXPECT_NE(rec.final_error.find("deadline_exceeded"), std::string::npos);
}

TEST(ServeScheduler, InterruptedSolveRequeuesWithoutConsumingAnAttempt) {
  std::atomic<int> calls{0};
  Scheduler s(fast_sched_opts(),
              [&](const JobRecord&, const Deadline&, const std::string&,
                  const std::atomic<bool>*) -> Expected<JobOutcome> {
                calls.fetch_add(1);
                return Error(ErrorCode::kInterrupted, "test",
                             "checkpointed and stopped");
              },
              noop_persist(), no_snapshot());
  std::thread t([&] { s.run_worker(); });
  Expected<std::string> id = s.submit(quick_spec());
  ASSERT_TRUE(id.ok());
  while (calls.load() == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  s.begin_drain();  // worker parks once the re-queued job is all that's left
  t.join();
  JobRecord rec;
  ASSERT_TRUE(s.find(*id, &rec));
  EXPECT_EQ(rec.state, JobState::kQueued);  // durably queued for restart
  EXPECT_TRUE(rec.attempts.empty());        // no attempt consumed
}

TEST(ServeScheduler, CancelQueuedJob) {
  Scheduler s(fast_sched_opts(),
              [](const JobRecord&, const Deadline&, const std::string&,
                 const std::atomic<bool>*) -> Expected<JobOutcome> {
                return JobOutcome{};
              },
              noop_persist(), no_snapshot());
  Expected<std::string> id = s.submit(quick_spec());
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(s.cancel(*id));
  EXPECT_FALSE(s.cancel(*id));  // already cancelled
  EXPECT_FALSE(s.cancel("j999999"));
  JobRecord rec;
  ASSERT_TRUE(s.find(*id, &rec));
  EXPECT_EQ(rec.state, JobState::kCancelled);
}

TEST(ServeScheduler, RestoreRequeuesRunningRecordsAndKeepsIdsMonotonic) {
  std::atomic<int> calls{0};
  Scheduler s(fast_sched_opts(),
              [&](const JobRecord&, const Deadline&, const std::string&,
                  const std::atomic<bool>*) -> Expected<JobOutcome> {
                calls.fetch_add(1);
                return JobOutcome{};
              },
              noop_persist(), no_snapshot());
  JobRecord crashed;
  crashed.id = "j000007";
  crashed.spec = quick_spec();
  crashed.spec.max_attempts = 3;
  crashed.state = JobState::kRunning;  // the previous daemon died mid-attempt
  s.restore(crashed);
  JobRecord done = sample_record();  // terminal: stays queryable only
  done.id = "j000003";
  s.restore(done);
  WorkerThread worker(s);
  EXPECT_EQ(wait_terminal(s, "j000007"), JobState::kCompleted);
  EXPECT_EQ(calls.load(), 1);
  JobRecord rec;
  ASSERT_TRUE(s.find("j000003", &rec));
  EXPECT_EQ(rec.state, JobState::kFailed);
  // New ids continue past the recovered maximum.
  Expected<std::string> fresh = s.submit(quick_spec());
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(*fresh, "j000008");
}

// ------------------------------------------------------------------ runner

TEST(ServeRunner, LinJobProducesArtifact) {
  const std::string dir = test_dir("runner_lin");
  ASSERT_TRUE(JobJournal::open(dir).ok());  // reuse for mkdir
  const Layout design = make_design('a', 4, 100.0, 7);
  write_glf_file(dir + "/in.glf", design);
  JobRunner runner(RunnerOptions{});
  JobRecord rec;
  rec.id = "j000001";
  rec.spec.design = dir + "/in.glf";
  rec.spec.out = dir + "/out.glf";
  rec.spec.method = "lin";
  Expected<JobOutcome> out = runner.run(rec, Deadline(), "", nullptr);
  ASSERT_TRUE(out.ok()) << out.error().to_string();
  EXPECT_GT(out->dummies, 0u);
  EXPECT_FALSE(read_file(dir + "/out.glf").empty());
  EXPECT_EQ(runner.surrogate_cache_size(), 0u);  // lin never asks for one
}

TEST(ServeRunner, UnknownMethodAndMissingDesignAreStructuredErrors) {
  JobRunner runner(RunnerOptions{});
  JobRecord rec;
  rec.id = "j000001";
  rec.spec.design = "does_not_exist.glf";
  rec.spec.out = "unused.glf";
  rec.spec.method = "quantum";
  Expected<JobOutcome> bad_method = runner.run(rec, Deadline(), "", nullptr);
  ASSERT_FALSE(bad_method.ok());
  EXPECT_EQ(bad_method.error().code, ErrorCode::kInvalidArgument);
  rec.spec.method = "lin";
  Expected<JobOutcome> missing = runner.run(rec, Deadline(), "", nullptr);
  ASSERT_FALSE(missing.ok());
}

TEST(ServeRunner, WorkerCrashFaultIsRecoverable) {
#if defined(NEURFILL_DISABLE_FAULTS)
  GTEST_SKIP() << "fault injection compiled out";
#endif
  fault::disarm_all();
  fault::arm_hit("serve.worker_crash", 1);
  JobRunner runner(RunnerOptions{});
  JobRecord rec;
  rec.id = "j000001";
  rec.spec.design = "irrelevant.glf";
  rec.spec.out = "irrelevant_out.glf";
  rec.spec.method = "lin";
  Expected<JobOutcome> out = runner.run(rec, Deadline(), "", nullptr);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.error().code, ErrorCode::kIo);  // recoverable -> retried
  EXPECT_TRUE(is_recoverable(out.error().code));
  fault::disarm_all();
}

// pkb with a quick-trained reduced surrogate: the corrupt-snapshot
// quarantine must re-solve to a byte-identical artifact, and the second
// job must hit the surrogate cache.
TEST(ServeRunner, CorruptSnapshotIsQuarantinedAndSurrogateCacheHits) {
  const std::string dir = test_dir("runner_pkb");
  ASSERT_TRUE(JobJournal::open(dir).ok());
  const Layout design = make_design('a', 4, 100.0, 7);
  write_glf_file(dir + "/in.glf", design);
  RunnerOptions opts;
  opts.default_surrogate = dir + "/missing_prefix";
  opts.sqp_max_iterations = 2;
  JobRunner runner(opts);
  JobRecord rec;
  rec.id = "j000001";
  rec.spec.design = dir + "/in.glf";
  rec.spec.out = dir + "/ref.glf";
  rec.spec.method = "pkb";

  Expected<JobOutcome> ref = runner.run(rec, Deadline(), "", nullptr);
  ASSERT_TRUE(ref.ok()) << ref.error().to_string();
  EXPECT_EQ(runner.surrogate_cache_size(), 1u);

  // Garbage snapshot: the runner must warn, unlink, and re-solve fresh.
  const std::string snap = dir + "/j000002.snap";
  {
    std::ofstream s(snap, std::ios::binary);
    s << "this is not an NFCP container";
  }
  rec.id = "j000002";
  rec.spec.out = dir + "/resolved.glf";
  Expected<JobOutcome> again = runner.run(rec, Deadline(), snap, nullptr);
  ASSERT_TRUE(again.ok()) << again.error().to_string();
  EXPECT_EQ(read_file(dir + "/resolved.glf"), read_file(dir + "/ref.glf"))
      << "re-solve after snapshot quarantine is not byte-identical";
  // Same design, same (quick-trained) surrogate: cache hit, no retrain.
  EXPECT_EQ(runner.surrogate_cache_size(), 1u);
}

// ---------------------------------------------------------- daemon + socket

DaemonOptions fast_daemon_opts() {
  DaemonOptions d;
  d.scheduler.queue_capacity = 8;
  d.scheduler.backoff_base_s = 0.001;
  d.scheduler.backoff_cap_s = 0.004;
  d.drain_deadline_s = 20.0;
  return d;
}

TEST(ServeDaemon, EndToEndOverLoopbackSocket) {
  obs::set_metrics_enabled(true);
  const std::string dir = test_dir("daemon_e2e");
  const Layout design = make_design('a', 4, 100.0, 7);
  ASSERT_TRUE(JobJournal::open(dir).ok());
  write_glf_file(dir + "/in.glf", design);

  Expected<std::unique_ptr<Daemon>> daemon =
      Daemon::create(fast_daemon_opts(), dir + "/journal");
  ASSERT_TRUE(daemon.ok()) << daemon.error().to_string();
  Expected<Server> server = Server::listen(0, dir + "/port");
  ASSERT_TRUE(server.ok()) << server.error().to_string();
  const int port = server->port();
  const std::vector<char> port_bytes = read_file(dir + "/port");
  EXPECT_EQ(std::string(port_bytes.begin(), port_bytes.end()),
            std::to_string(port) + "\n");

  Daemon& d = **daemon;
  std::thread transport([&] { ASSERT_TRUE(server->run(d).ok()); });
  std::thread worker([&] { d.run_worker(); });

  Expected<Client> client = Client::connect(port);
  ASSERT_TRUE(client.ok()) << client.error().to_string();

  JsonValue submit = json_object();
  submit.object["op"] = json_string("submit");
  submit.object["design"] = json_string(dir + "/in.glf");
  submit.object["out"] = json_string(dir + "/out.glf");
  submit.object["method"] = json_string("lin");
  Expected<JsonValue> reply = client->request(submit);
  ASSERT_TRUE(reply.ok()) << reply.error().to_string();
  ASSERT_TRUE(reply->get_bool("ok")) << json_render(*reply);
  const std::string id = reply->get_string("id");
  EXPECT_EQ(id, "j000001");

  // Poll status over the same connection until the job completes.
  JsonValue status = json_object();
  status.object["op"] = json_string("status");
  status.object["id"] = json_string(id);
  std::string state;
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < until) {
    Expected<JsonValue> st = client->request(status);
    ASSERT_TRUE(st.ok());
    state = st->object.at("job").get_string("state");
    if (state == "completed" || state == "failed") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(state, "completed");
  EXPECT_FALSE(read_file(dir + "/out.glf").empty());

  // /metrics is live while the daemon serves, with the serve instruments.
  Expected<std::string> metrics = Client::http_get(port, "/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->find("serve.jobs_accepted"), std::string::npos);
  EXPECT_NE(metrics->find("serve.queue_depth"), std::string::npos);
  Expected<std::string> health = Client::http_get(port, "/healthz");
  ASSERT_TRUE(health.ok());
  Expected<JsonValue> hj = json_parse(
      health->substr(0, health->find_last_not_of('\n') + 1));
  ASSERT_TRUE(hj.ok());
  EXPECT_TRUE(hj->get_bool("ok"));
  Expected<std::string> job_page = Client::http_get(port, "/jobs/" + id);
  ASSERT_TRUE(job_page.ok());
  EXPECT_NE(job_page->find("\"completed\""), std::string::npos);

  // Unknown ops and unknown jobs are structured errors, not dropped
  // connections.
  Expected<std::string> bad = client->request_line("{\"op\":\"fry\"}");
  ASSERT_TRUE(bad.ok());
  EXPECT_NE(bad->find("invalid_argument"), std::string::npos);
  Expected<std::string> nojob =
      client->request_line("{\"op\":\"status\",\"id\":\"j999\"}");
  ASSERT_TRUE(nojob.ok());
  EXPECT_NE(nojob->find("not_found"), std::string::npos);
  Expected<std::string> garbage = client->request_line("{{{");
  ASSERT_TRUE(garbage.ok());
  EXPECT_NE(garbage->find("invalid_argument"), std::string::npos);

  // Drain over the wire: admission closes, the worker parks, both threads
  // come home, and a post-drain submission is rejected "overloaded".
  Expected<JsonValue> drained = client->request(
      [] {
        JsonValue v = json_object();
        v.object["op"] = json_string("drain");
        return v;
      }());
  ASSERT_TRUE(drained.ok());
  worker.join();
  transport.join();
  EXPECT_TRUE(d.done());
}

TEST(ServeDaemon, RejectsOutOfRangeSubmitFieldsAtAdmission) {
  const std::string dir = test_dir("daemon_admission");
  ASSERT_TRUE(JobJournal::open(dir).ok());  // parent of the journal dir
  Expected<std::unique_ptr<Daemon>> daemon =
      Daemon::create(fast_daemon_opts(), dir + "/journal");
  ASSERT_TRUE(daemon.ok()) << daemon.error().to_string();
  Daemon& d = **daemon;
  const std::string submit =
      R"({"op":"submit","design":"in.glf","out":"out.glf",)";
  for (const char* field :
       {R"("max_attempts":1e300})", R"("max_attempts":-1})",
        R"("max_attempts":2.5})", R"("max_attempts":2147483648})",
        R"("window":0})", R"("window":-100})"}) {
    SCOPED_TRACE(field);
    const std::string reply = d.handle_line(submit + field);
    EXPECT_NE(reply.find("\"ok\":false"), std::string::npos) << reply;
    EXPECT_NE(reply.find("\"code\":\"invalid_argument\""), std::string::npos)
        << reply;
    const std::string pong = d.handle_line(R"({"op":"ping"})");
    EXPECT_NE(pong.find("\"ok\":true"), std::string::npos) << pong;
  }
  EXPECT_EQ(d.scheduler().stats().queued, 0u);
  // A deadline past the clock's range is no deadline: admitted as is.
  const std::string far = d.handle_line(submit + R"("deadline_s":1e300})");
  EXPECT_NE(far.find("\"ok\":true"), std::string::npos) << far;
  EXPECT_EQ(d.scheduler().stats().queued, 1u);
}

TEST(ServeDaemon, UnparsableDesignFailsOnFirstAttempt) {
  // A design that does not parse fails the same way on every attempt: it
  // is bad input, not a transient fault, so the job fails on attempt 1
  // with invalid_argument instead of being retried.
  const std::string dir = test_dir("daemon_bad_design");
  ASSERT_TRUE(JobJournal::open(dir).ok());  // parent of the journal dir
  std::ofstream(dir + "/inverted.glf")
      << "GLF 1\nname x\nsize 100 100\nlayers 1\n"
         "layer m1 wires 1 dummies 0\nw 5 0 1 1\n";
  Expected<std::unique_ptr<Daemon>> daemon =
      Daemon::create(fast_daemon_opts(), dir + "/journal");
  ASSERT_TRUE(daemon.ok()) << daemon.error().to_string();
  Daemon& d = **daemon;
  std::thread worker([&] { d.run_worker(); });
  const std::string reply =
      d.handle_line(R"({"op":"submit","design":")" + dir +
                    R"(/inverted.glf","out":")" + dir +
                    R"(/out.glf","method":"lin","max_attempts":3})");
  const Expected<JsonValue> submitted = json_parse(reply);
  ASSERT_TRUE(submitted.ok() && submitted->get_bool("ok")) << reply;
  const std::string id = submitted->get_string("id");
  EXPECT_EQ(wait_terminal(d.scheduler(), id), JobState::kFailed);
  JobRecord rec;
  ASSERT_TRUE(d.scheduler().find(id, &rec));
  ASSERT_EQ(rec.attempts.size(), 1u) << rec.final_error;
  EXPECT_EQ(rec.attempts[0].code, ErrorCode::kInvalidArgument);
  EXPECT_NE(rec.final_error.find("invalid_argument"), std::string::npos)
      << rec.final_error;
  EXPECT_NE(rec.final_error.find("degenerate rectangle"), std::string::npos)
      << rec.final_error;
  d.request_drain();
  worker.join();
}

TEST(ServeDaemon, TransportFaultSitesDropOneConnectionNotTheDaemon) {
#if defined(NEURFILL_DISABLE_FAULTS)
  GTEST_SKIP() << "fault injection compiled out";
#endif
  fault::disarm_all();
  const std::string dir = test_dir("daemon_faults");
  ASSERT_TRUE(JobJournal::open(dir).ok());  // parent of the journal dir
  Expected<std::unique_ptr<Daemon>> daemon =
      Daemon::create(fast_daemon_opts(), dir + "/journal");
  ASSERT_TRUE(daemon.ok());
  Expected<Server> server = Server::listen(0, "");
  ASSERT_TRUE(server.ok());
  const int port = server->port();
  Daemon& d = **daemon;
  std::thread transport([&] { ASSERT_TRUE(server->run(d).ok()); });
  std::thread worker([&] { d.run_worker(); });

  // serve.accept: the faulted connection dies, the next one is served.
  fault::arm_hit("serve.accept", 1);
  {
    Expected<Client> doomed = Client::connect(port);
    // The connect itself succeeds (the kernel accepted); the daemon closes
    // it immediately, so the first request errors out.
    if (doomed.ok()) {
      Expected<std::string> r = doomed->request_line("{\"op\":\"ping\"}");
      EXPECT_FALSE(r.ok());
    }
  }
  Expected<Client> survivor = Client::connect(port);
  ASSERT_TRUE(survivor.ok());
  Expected<std::string> pong = survivor->request_line("{\"op\":\"ping\"}");
  ASSERT_TRUE(pong.ok()) << pong.error().to_string();
  EXPECT_NE(pong->find("\"ok\":true"), std::string::npos);

  // serve.reply_short_write: the reply is torn mid-write and the
  // connection dropped; a fresh connection sees consistent state.
  fault::arm_hit("serve.reply_short_write", 1);
  Expected<std::string> torn = survivor->request_line("{\"op\":\"ping\"}");
  EXPECT_FALSE(torn.ok());
  Expected<Client> after = Client::connect(port);
  ASSERT_TRUE(after.ok());
  Expected<std::string> ok_again = after->request_line("{\"op\":\"ping\"}");
  ASSERT_TRUE(ok_again.ok());
  EXPECT_NE(ok_again->find("\"ok\":true"), std::string::npos);

  fault::disarm_all();
  d.request_drain();
  worker.join();
  transport.join();
}

}  // namespace
}  // namespace neurfill::serve

#include "runtime/thread_pool.hpp"

#include <cstdint>
#include <string>

#include "common/check.hpp"
#include "obs/trace.hpp"

namespace neurfill::runtime {

namespace {
/// Set while a thread executes blocks for some pool, including the caller
/// participating in its own job.  Nested primitives check this to degrade.
thread_local bool tls_inside_worker = false;

// The claim counter packs (generation, next block index) into one 64-bit
// atomic so a single compare-exchange both validates that the claimant is
// working on the current job and reserves the next block.  A participant
// that went to sleep during job G and wakes during job G+k can therefore
// never claim (or execute) a block of the wrong job: its CAS carries G in
// the generation bits and fails against the republished counter.
constexpr int kIndexBits = 40;
constexpr std::uint64_t kIndexMask = (std::uint64_t{1} << kIndexBits) - 1;
/// "No job" index: >= every legal blocks_total_, so claims always fail.
constexpr std::uint64_t kIdleIndex = kIndexMask;

constexpr std::uint64_t pack(std::uint64_t gen, std::uint64_t index) {
  return (gen << kIndexBits) | index;
}
constexpr std::uint64_t gen_of(std::uint64_t v) { return v >> kIndexBits; }
constexpr std::uint64_t index_of(std::uint64_t v) { return v & kIndexMask; }

inline void cpu_pause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}
}  // namespace

bool ThreadPool::inside_worker() { return tls_inside_worker; }

ThreadPool::SerialRegion::SerialRegion() : prev_(tls_inside_worker) {
  tls_inside_worker = true;
}

ThreadPool::SerialRegion::~SerialRegion() { tls_inside_worker = prev_; }

ThreadPool::ThreadPool(int threads) {
  const std::size_t total = threads < 1 ? 1 : static_cast<std::size_t>(threads);
  next_block_.store(pack(0, kIdleIndex), std::memory_order_relaxed);
  // Spinning only pays when a waiter has a core to itself; on an
  // oversubscribed host (more participants than cores, e.g. the TSan CI
  // job or a 1-core container) a spinning waiter steals cycles from the
  // thread it is waiting on, so park almost immediately instead.
  const unsigned hw = std::thread::hardware_concurrency();
  spin_iterations_ = (hw >= total) ? 4096 : 1;
  workers_.reserve(total - 1);
  for (std::size_t i = 1; i < total; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(m_);
    stop_.store(true, std::memory_order_release);
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::claim(std::uint64_t my_gen, std::size_t& block) {
  std::uint64_t cur = next_block_.load(std::memory_order_acquire);
  while (gen_of(cur) == my_gen) {
    // The acquire load of blocks_total_ pairs with its release store in
    // for_blocks: a participant that observes a job's total also observes
    // the preceding retirement of the previous job's counter, so the CAS
    // below can never resurrect a completed generation (see for_blocks).
    if (index_of(cur) >= blocks_total_.load(std::memory_order_acquire))
      return false;
    if (next_block_.compare_exchange_weak(cur, cur + 1,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
      block = static_cast<std::size_t>(index_of(cur));
      return true;
    }
  }
  return false;
}

void ThreadPool::run_participant(std::uint64_t my_gen) {
  const bool was_inside = tls_inside_worker;
  tls_inside_worker = true;
  std::size_t block = 0;
  while (claim(my_gen, block)) {
    // A successful claim happens-after the job's publication and holds the
    // job open (the caller waits for this block's done-increment), so the
    // plain reads of body_ and blocks_total_ here are race-free.
    if (!cancelled_.load(std::memory_order_acquire)) {
      try {
        (*body_)(block);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(m_);
          if (!first_error_) first_error_ = std::current_exception();
        }
        // Claiming continues (the counter must still drain to total so the
        // completion condition stays a single comparison), but every block
        // claimed after this store is skipped, not executed.
        cancelled_.store(true, std::memory_order_release);
      }
    }
    const std::size_t done =
        blocks_done_.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (done == blocks_total_.load(std::memory_order_acquire)) {
      // Empty critical section: serializes with the caller's predicate
      // check so the notify cannot slip into the window between the
      // caller's last check and its wait.
      { std::lock_guard<std::mutex> lock(m_); }
      done_cv_.notify_one();
    }
  }
  tls_inside_worker = was_inside;
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  // Stable trace-track identity: spans recorded from this worker (including
  // nested NF_TRACE_SPANs inside user blocks) land on a per-worker track.
  obs::set_current_thread_name("pool-worker-" + std::to_string(worker_index));
  std::uint64_t seen = 0;
  int spins = spin_iterations_;
  for (;;) {
    if (stop_.load(std::memory_order_acquire)) return;
    const std::uint64_t gen =
        gen_of(next_block_.load(std::memory_order_acquire));
    if (gen != seen) {
      seen = gen;
      {
        // One span per job participation, so the trace shows exactly when
        // each worker was busy and how evenly the blocks balanced.
        NF_TRACE_SPAN("runtime.participate");
        run_participant(gen);
      }
      spins = spin_iterations_;
      continue;
    }
    if (--spins > 0) {
      cpu_pause();
      continue;
    }
    std::unique_lock<std::mutex> lock(m_);
    work_cv_.wait(lock, [&] {
      return stop_.load(std::memory_order_relaxed) ||
             gen_of(next_block_.load(std::memory_order_relaxed)) != seen;
    });
    spins = spin_iterations_;
  }
}

void ThreadPool::for_blocks(std::size_t num_blocks,
                            const std::function<void(std::size_t)>& body) {
  if (num_blocks == 0) return;
  // A one-block job has no parallelism to extract: run it inline rather
  // than waking workers for a handshake (cost-model grains collapse whole
  // small loops into exactly one block to hit this path).
  if (num_blocks == 1) {
    const bool was_inside = tls_inside_worker;
    tls_inside_worker = true;
    try {
      body(0);
    } catch (...) {
      tls_inside_worker = was_inside;
      throw;
    }
    tls_inside_worker = was_inside;
    return;
  }
  // Nested call from inside any pool's worker: degrade to serial inline
  // execution (never park a worker on another job — that can deadlock).
  if (tls_inside_worker || workers_.empty()) {
    for (std::size_t b = 0; b < num_blocks; ++b) body(b);
    return;
  }
  NF_CHECK(num_blocks < kIdleIndex, "for_blocks: %zu blocks overflow the "
           "claim counter's index field", num_blocks);
  // Only published jobs are spans and count as jobs: the inline paths
  // above are plain loops.
  NF_TRACE_SPAN("runtime.for_blocks");
  NF_COUNTER_ADD("runtime.jobs", 1);
  NF_COUNTER_ADD("runtime.blocks", num_blocks);

  std::lock_guard<std::mutex> job_lock(job_mutex_);
  std::uint64_t my_gen;
  {
    std::lock_guard<std::mutex> lock(m_);
    body_ = &body;
    first_error_ = nullptr;
    cancelled_.store(false, std::memory_order_relaxed);
    blocks_done_.store(0, std::memory_order_relaxed);
    blocks_total_.store(num_blocks, std::memory_order_release);
    my_gen = gen_of(next_block_.load(std::memory_order_relaxed)) + 1;
    // Publication: the release store is what participants acquire before
    // touching any of the job state written above.
    next_block_.store(pack(my_gen, 0), std::memory_order_release);
  }
  work_cv_.notify_all();

  run_participant(my_gen);  // the caller claims blocks like any worker

  // Completion: every block was claimed exactly once and its done-increment
  // retired (exception-cancelled blocks are claimed and skipped, so done
  // still drains to total).  Spin briefly — jobs are typically back to
  // back — then park on the condition variable.
  if (blocks_done_.load(std::memory_order_acquire) != num_blocks) {
    for (int spin = spin_iterations_; spin > 0; --spin) {
      cpu_pause();
      if (blocks_done_.load(std::memory_order_acquire) == num_blocks) break;
    }
  }
  std::exception_ptr err;
  {
    std::unique_lock<std::mutex> lock(m_);
    done_cv_.wait(lock, [&] {
      return blocks_done_.load(std::memory_order_acquire) == num_blocks;
    });
    err = first_error_;
    first_error_ = nullptr;
    body_ = nullptr;
    // Retire the counter to the idle sentinel *before* this mutex section
    // ends: the next publication's release store of blocks_total_ then
    // carries the retirement to any late-waking participant, whose claim
    // CAS consequently fails on the generation bits instead of reviving
    // this job's counter.
    next_block_.store(pack(my_gen + 1, kIdleIndex), std::memory_order_release);
  }
  if (err) std::rethrow_exception(err);
}

}  // namespace neurfill::runtime

#include "fill/snapshot.hpp"

#include <cstdint>

#include "common/checkpoint.hpp"

namespace neurfill {

namespace {

// Version 2: one record per start (concurrent MSP starts).  Version 1 held
// a single mid-flight SqpState and cannot describe several starts in
// flight, so it is refused rather than guessed at.
constexpr std::uint32_t kVersion = 2;

// SqpResult flag bits in a finished start's record.
constexpr std::uint32_t kFlagConverged = 1u << 0;
constexpr std::uint32_t kFlagTimedOut = 1u << 1;
constexpr std::uint32_t kFlagPoisoned = 1u << 2;

// L-BFGS histories hold a handful of pairs (SqpOptions::lbfgs_memory).
constexpr std::uint32_t kMaxLbfgsPairs = 1024;

Error corrupt(const std::string& path, const std::string& what) {
  return Error(ErrorCode::kCorrupt, "fill.snapshot",
               "'" + path + "': " + what);
}

void put_state(ByteWriter& s, const SqpState& st) {
  s.f64_vec(st.x);
  s.f64_vec(st.g);
  s.f64(st.f);
  s.u32(static_cast<std::uint32_t>(st.iteration));
  s.u32(static_cast<std::uint32_t>(st.function_evaluations));
  s.f64(st.lbfgs_sigma);
  s.u32(static_cast<std::uint32_t>(st.lbfgs_pairs.size()));
  for (const auto& [sv, yv] : st.lbfgs_pairs) {
    s.f64_vec(sv);
    s.f64_vec(yv);
  }
}

/// False on an L-BFGS history longer than any run keeps (damage).
bool get_state(ByteReader& s, SqpState* st) {
  st->x = s.f64_vec();
  st->g = s.f64_vec();
  st->f = s.f64();
  st->iteration = static_cast<int>(s.u32());
  st->function_evaluations = static_cast<int>(s.u32());
  st->lbfgs_sigma = s.f64();
  const std::uint32_t n_pairs = s.u32();
  if (n_pairs > kMaxLbfgsPairs) return false;
  st->lbfgs_pairs.resize(n_pairs);
  for (auto& [sv, yv] : st->lbfgs_pairs) {
    sv = s.f64_vec();
    yv = s.f64_vec();
  }
  return true;
}

void put_result(ByteWriter& w, const SqpResult& r) {
  w.f64_vec(r.x);
  w.f64(r.f);
  w.u32(static_cast<std::uint32_t>(r.iterations));
  w.u32(static_cast<std::uint32_t>(r.function_evaluations));
  std::uint32_t flags = 0;
  if (r.converged) flags |= kFlagConverged;
  if (r.timed_out) flags |= kFlagTimedOut;
  if (r.poisoned) flags |= kFlagPoisoned;
  w.u32(flags);
  w.u32(static_cast<std::uint32_t>(r.numeric_recoveries));
}

void get_result(ByteReader& d, SqpResult* r) {
  r->x = d.f64_vec();
  r->f = d.f64();
  r->iterations = static_cast<int>(d.u32());
  r->function_evaluations = static_cast<int>(d.u32());
  const std::uint32_t flags = d.u32();
  r->converged = (flags & kFlagConverged) != 0;
  r->timed_out = (flags & kFlagTimedOut) != 0;
  r->poisoned = (flags & kFlagPoisoned) != 0;
  r->numeric_recoveries = static_cast<int>(d.u32());
}

}  // namespace

[[nodiscard]] Expected<void> save_fill_snapshot(const FillSnapshot& snap,
                                  const std::string& path) {
  CheckpointWriter w;
  ByteWriter meta;
  meta.u32(kVersion);
  meta.str(snap.method);
  meta.u64(snap.dims);
  meta.i64(snap.evaluations);
  meta.u32(static_cast<std::uint32_t>(snap.starts.size()));
  meta.u32(static_cast<std::uint32_t>(snap.records.size()));
  w.add_section("meta", meta.take());

  ByteWriter starts;
  for (const VecD& s : snap.starts) starts.f64_vec(s);
  w.add_section("starts", starts.take());

  ByteWriter records;
  for (const FillSnapshot::StartRecord& r : snap.records) {
    records.u32(static_cast<std::uint32_t>(r.state));
    records.i64(r.evaluations);
    if (r.state == FillSnapshot::StartRecord::State::kRunning)
      put_state(records, r.sqp);
    else if (r.state == FillSnapshot::StartRecord::State::kDone)
      put_result(records, r.result);
  }
  w.add_section("records", records.take());
  return w.commit(path);
}

[[nodiscard]] Expected<FillSnapshot> load_fill_snapshot(const std::string& path) {
  Expected<CheckpointReader> reader = CheckpointReader::open(path);
  if (!reader.ok()) return reader.error();
  if (!reader->has_section("meta"))
    return corrupt(path, "missing section 'meta'");

  FillSnapshot snap;
  ByteReader meta(**reader->section("meta"));
  const std::uint32_t version = meta.u32();
  if (meta.ok() && version != kVersion)
    return corrupt(path, "snapshot version " + std::to_string(version) +
                             " (supported: " + std::to_string(kVersion) +
                             "); rerun without --resume");
  snap.method = meta.str();
  snap.dims = static_cast<std::size_t>(meta.u64());
  snap.evaluations = static_cast<long>(meta.i64());
  const std::uint32_t n_starts = meta.u32();
  const std::uint32_t n_records = meta.u32();
  if (!meta.ok() || !meta.at_end())
    return corrupt(path, "malformed 'meta' section");
  if (n_records != 0 && n_records != n_starts)
    return corrupt(path, "start records do not match the start list");
  for (const char* name : {"starts", "records"})
    if (!reader->has_section(name))
      return corrupt(path, std::string("missing section '") + name + "'");

  // Every start costs at least its 8-byte length and every record its
  // 12-byte header, so a count the sections cannot hold is damage, caught
  // before it sizes an allocation.
  const std::vector<char>& start_bytes = **reader->section("starts");
  const std::vector<char>& record_bytes = **reader->section("records");
  if (start_bytes.size() / 8 < n_starts || record_bytes.size() / 12 < n_records)
    return corrupt(path, "start count exceeds the stored sections");

  ByteReader starts(start_bytes);
  snap.starts.resize(n_starts);
  for (auto& s : snap.starts) s = starts.f64_vec();
  if (!starts.ok() || !starts.at_end())
    return corrupt(path, "malformed 'starts' section");

  ByteReader records(record_bytes);
  snap.records.resize(n_records);
  for (FillSnapshot::StartRecord& r : snap.records) {
    const std::uint32_t state = records.u32();
    if (state > static_cast<std::uint32_t>(
                    FillSnapshot::StartRecord::State::kDone))
      return corrupt(path, "bad start record state " + std::to_string(state));
    r.state = static_cast<FillSnapshot::StartRecord::State>(state);
    r.evaluations = static_cast<long>(records.i64());
    if (r.state == FillSnapshot::StartRecord::State::kRunning) {
      if (!get_state(records, &r.sqp))
        return corrupt(path, "implausible L-BFGS history");
    } else if (r.state == FillSnapshot::StartRecord::State::kDone) {
      get_result(records, &r.result);
    }
    if (!records.ok()) break;
  }
  if (!records.ok() || !records.at_end())
    return corrupt(path, "malformed 'records' section");
  return snap;
}

}  // namespace neurfill

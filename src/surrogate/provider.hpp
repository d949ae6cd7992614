#pragma once

// The one way a fill acquires its CMP surrogate: nf_fill (monolithic and
// tiled), the nf_serve job runner, the benches and the examples all ask a
// SurrogateProvider.
//
//  * A stored artifact (`<prefix>.meta` + `<prefix>.weights`, written by
//    save_surrogate) is loaded through load_surrogate.
//  * A *missing* artifact (kNotFound) is replaced by a reduced surrogate
//    quick-trained on the caller's extraction, labelled by the caller's
//    simulator: depth 2, base 8, model seed 5, data seed 17, block 4,
//    6 epochs over a fixed 60-sample set.  Training is deterministic, so
//    every run that quick-trains on the same windows gets the same weights.
//  * Every other load error (corrupt or unreadable weights, a bad meta
//    file) is returned to the caller.  Nothing quick-trains around a
//    broken artifact.
//
// Results are cached per provider, keyed by (prefix, mtime, size, FNV-1a
// of the .weights bytes), so a daemon serving many jobs against one frozen
// artifact loads it once, and a rewritten file misses even within the same
// second.  Each get() on a stored artifact costs one stat and one hash
// pass; quick-trained fallbacks are keyed per plane size instead.
// Counters: surrogate.cache_hits / surrogate.cache_misses.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "cmp/simulator.hpp"
#include "common/error.hpp"
#include "layout/window_grid.hpp"
#include "surrogate/cmp_network.hpp"

namespace neurfill {

class SurrogateProvider {
 public:
  /// The surrogate at `prefix`, or the quick-trained fallback on `ext` and
  /// `sim` when no artifact exists there.  Thread-safe.
  [[nodiscard]] Expected<std::shared_ptr<const CmpSurrogate>> get(
      const std::string& prefix, const WindowExtraction& ext,
      const CmpSimulator& sim);

  /// Number of cached surrogates.
  std::size_t cache_size() const;

 private:
  struct Entry {
    std::int64_t mtime = 0;
    std::uint64_t size = 0;
    std::uint64_t hash = 0;  ///< FNV-1a over the .weights bytes
    std::shared_ptr<const CmpSurrogate> surrogate;
  };

  mutable std::mutex m_;
  std::map<std::string, Entry> cache_;
};

}  // namespace neurfill

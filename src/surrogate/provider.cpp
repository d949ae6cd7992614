#include "surrogate/provider.hpp"

#include <sys/stat.h>

#include <fstream>
#include <utility>

#include "common/log.hpp"
#include "obs/metrics.hpp"
#include "surrogate/trainer.hpp"

namespace neurfill {
namespace {

/// FNV-1a over the file's bytes; 0 when the file cannot be read (callers
/// treat that as a mandatory cache miss).
std::uint64_t fnv1a_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return 0;
  std::uint64_t h = 1469598103934665603ull;
  char buf[4096];
  while (in.read(buf, sizeof(buf)) || in.gcount() > 0) {
    const std::streamsize n = in.gcount();
    for (std::streamsize i = 0; i < n; ++i) {
      h ^= static_cast<unsigned char>(buf[i]);
      h *= 1099511628211ull;
    }
    if (n < static_cast<std::streamsize>(sizeof(buf))) break;
  }
  return h;
}

/// The reduced surrogate that stands in for a missing artifact.
std::shared_ptr<const CmpSurrogate> quick_train(const WindowExtraction& ext,
                                                const CmpSimulator& sim) {
  SurrogateConfig cfg;
  cfg.unet.base_channels = 8;
  cfg.unet.depth = 2;
  auto surrogate = std::make_shared<CmpSurrogate>(cfg, 5);
  TrainingDataGenerator gen({ext}, sim, 17, 4);
  TrainOptions opt;
  opt.epochs = 6;
  opt.dataset_size = 60;
  opt.grid_rows = ext.rows;
  opt.grid_cols = ext.cols;
  train_surrogate(*surrogate, gen, opt);
  return surrogate;
}

}  // namespace

std::size_t SurrogateProvider::cache_size() const {
  std::lock_guard<std::mutex> lock(m_);
  return cache_.size();
}

[[nodiscard]] Expected<std::shared_ptr<const CmpSurrogate>>
SurrogateProvider::get(const std::string& prefix, const WindowExtraction& ext,
                       const CmpSimulator& sim) {
  const std::string weights = prefix + ".weights";
  struct stat st{};
  const bool on_disk = ::stat(weights.c_str(), &st) == 0;
  // Quick-trained fallbacks are keyed per plane size: the training windows
  // follow the design's extraction grid.
  const std::string key =
      on_disk ? prefix
              : prefix + "#quicktrain:" + std::to_string(ext.rows) + "x" +
                    std::to_string(ext.cols);
  const std::int64_t mtime = on_disk ? static_cast<std::int64_t>(st.st_mtime)
                                     : 0;
  const std::uint64_t size = on_disk ? static_cast<std::uint64_t>(st.st_size)
                                     : 0;
  const std::uint64_t hash = on_disk ? fnv1a_file(weights) : 0;
  {
    std::lock_guard<std::mutex> lock(m_);
    auto it = cache_.find(key);
    if (it != cache_.end() && it->second.mtime == mtime &&
        it->second.size == size && it->second.hash == hash &&
        (!on_disk || hash != 0)) {
      NF_COUNTER_ADD("surrogate.cache_hits", 1);
      return it->second.surrogate;
    }
  }
  NF_COUNTER_ADD("surrogate.cache_misses", 1);

  std::shared_ptr<const CmpSurrogate> surrogate;
  Expected<std::shared_ptr<CmpSurrogate>> loaded = load_surrogate(prefix);
  if (loaded.ok()) {
    surrogate = std::move(*loaded);
  } else if (loaded.error().code != ErrorCode::kNotFound) {
    return loaded.error();
  } else {
    LOG_WARN("surrogate.provider: no surrogate at '%s'; training a reduced "
             "one",
             prefix.c_str());
    surrogate = quick_train(ext, sim);
  }
  std::lock_guard<std::mutex> lock(m_);
  cache_[key] = Entry{mtime, size, hash, surrogate};
  return surrogate;
}

}  // namespace neurfill

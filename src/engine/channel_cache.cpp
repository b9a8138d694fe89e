#include "engine/channel_cache.h"

#include <cstdio>
#include <utility>

#include "common/error.h"
#include "io/cir_io.h"

namespace uwb::engine {

namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

void fnv_text(uint64_t& h, const char* text) {
  for (const char* p = text; *p != '\0'; ++p) {
    h ^= static_cast<unsigned char>(*p);
    h *= kFnvPrime;
  }
}

void fnv_field(uint64_t& h, const char* key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s=%.17g;", key, value);
  fnv_text(h, buf);
}

void fnv_field(uint64_t& h, const char* key, bool value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s=%s;", key, value ? "true" : "false");
  fnv_text(h, buf);
}

}  // namespace

uint64_t sv_fingerprint(const channel::SvParams& p) {
  // Statistical fields only, in declaration order; `name` stays out (see
  // header). Changing this scheme invalidates every binary store -- bump
  // io::kCirFormatVersion alongside.
  uint64_t h = kFnvOffset;
  fnv_field(h, "cluster_rate_per_s", p.cluster_rate_per_s);
  fnv_field(h, "ray_rate_per_s", p.ray_rate_per_s);
  fnv_field(h, "cluster_decay_s", p.cluster_decay_s);
  fnv_field(h, "ray_decay_s", p.ray_decay_s);
  fnv_field(h, "cluster_fading_db", p.cluster_fading_db);
  fnv_field(h, "ray_fading_db", p.ray_fading_db);
  fnv_field(h, "shadowing_db", p.shadowing_db);
  fnv_field(h, "max_excess_delay_s", p.max_excess_delay_s);
  fnv_field(h, "complex_phases", p.complex_phases);
  return h;
}

ChannelEnsemble make_ensemble(const channel::SvParams& params, uint64_t seed,
                              std::size_t count) {
  detail::require(count >= 1, "make_ensemble: count must be >= 1");
  ChannelEnsemble ensemble;
  ensemble.key = ChannelKey{sv_fingerprint(params), seed, count};
  ensemble.params = params;
  ensemble.realizations.reserve(count);
  const channel::SalehValenzuela sv(params);
  const Rng root(seed);
  for (std::size_t i = 0; i < count; ++i) {
    Rng rng = root.fork(i);
    ensemble.realizations.push_back(sv.realize(rng));
  }
  return ensemble;
}

ChannelCache& ChannelCache::global() {
  static ChannelCache* instance = new ChannelCache();
  return *instance;
}

void ChannelCache::set_directory(std::string dir) {
  std::lock_guard<std::mutex> lock(mutex_);
  dir_ = std::move(dir);
}

std::shared_ptr<const ChannelEnsemble> ChannelCache::get(const channel::SvParams& params,
                                                         uint64_t seed, std::size_t count) {
  detail::require(count >= 1, "ChannelCache::get: count must be >= 1");
  const ChannelKey key{sv_fingerprint(params), seed, count};
  // The mutex stays held across generation/disk load: lookups come from the
  // sweep coordinator (one per point, before trials launch), so simplicity
  // beats miss-concurrency. Revisit if point-level parallelism ever calls
  // get() from workers.
  std::lock_guard<std::mutex> lock(mutex_);
  if (const auto it = store_.find(key); it != store_.end()) {
    ++stats_.hits;
    return it->second;
  }
  std::shared_ptr<const ChannelEnsemble> ensemble;
  if (!dir_.empty() && io::ensemble_exists(dir_, params, key)) {
    ensemble = std::make_shared<const ChannelEnsemble>(io::load_ensemble(dir_, params, key));
    ++stats_.disk_loads;
  } else {
    ensemble = std::make_shared<const ChannelEnsemble>(make_ensemble(params, seed, count));
    ++stats_.generated;
    stats_.sv_draws += count;
  }
  store_.emplace(key, ensemble);
  return ensemble;
}

ChannelCache::Stats ChannelCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace uwb::engine

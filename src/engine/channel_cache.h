#pragma once
/// \file channel_cache.h
/// \brief Deterministic channel-ensemble cache: Saleh-Valenzuela multipath
///        realizations generated once per (parameter set, seed, count) key
///        and shared across every sweep point of a channel-axis group.
///
/// Today a fresh S-V realization is drawn inside every packet trial, so an
/// N-point Eb/N0 grid regenerates the same channel statistics N times over.
/// An *ensemble* fixes the channel draw instead: realization i is a pure
/// function of (SvParams, base seed, i) via the library's Rng::fork
/// contract, trials index into the ensemble with `trial % count`, and every
/// operating point of a grid reuses the same `count` realizations. That
/// buys three things at once:
///
///   * draws-per-grid drops from one-per-trial to `count` per channel-axis
///     group (see bench_channel_cache for the measured throughput gain),
///   * common-random-numbers variance reduction across the operating-point
///     axis (each Eb/N0 / back-end point sees the same channels),
///   * pre-materialized fan-out: ensembles serialize to a versioned binary
///     store (io/cir_io.h) that `uwb_sweep precompute` writes and remote
///     shards load.
///
/// Determinism contract: an ensemble's realizations depend only on its key
/// (canonical SvParams fingerprint, base seed, count) -- never on worker
/// count, shard layout, cache hits vs. disk loads, or generation order.
/// See docs/channel_cache.md.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "channel/cir.h"
#include "channel/saleh_valenzuela.h"
#include "common/rng.h"

namespace uwb::engine {

/// Canonical fingerprint of a Saleh-Valenzuela parameter set: FNV-1a (64)
/// over "key=value;" pairs of every *statistical* field in declaration
/// order, doubles rendered with "%.17g" (exact round trip). The cosmetic
/// `name` field is excluded -- renaming a profile must not invalidate its
/// cached realizations -- but `complex_phases` is included, so the gen-1
/// real-polarity variant of a CM profile keys a distinct ensemble.
[[nodiscard]] uint64_t sv_fingerprint(const channel::SvParams& params);

/// Identity of one ensemble: everything its realizations are a pure
/// function of.
struct ChannelKey {
  uint64_t fingerprint = 0;  ///< sv_fingerprint of the parameter set
  uint64_t seed = 0;         ///< base seed (realization i uses fork(i))
  std::size_t count = 0;     ///< number of realizations

  [[nodiscard]] bool operator==(const ChannelKey&) const = default;
  [[nodiscard]] bool operator<(const ChannelKey& o) const {
    if (fingerprint != o.fingerprint) return fingerprint < o.fingerprint;
    if (seed != o.seed) return seed < o.seed;
    return count < o.count;
  }
};

/// A materialized ensemble: the key, the parameter set it was generated
/// from (kept for sidecar metadata / humans), and the realizations.
struct ChannelEnsemble {
  ChannelKey key;
  channel::SvParams params;
  std::vector<channel::Cir> realizations;

  /// The realization trial \p trial uses: `trial % count`.
  [[nodiscard]] const channel::Cir& realization_for_trial(std::size_t trial) const {
    return realizations[trial % realizations.size()];
  }
};

/// Generates an ensemble deterministically: realization i draws every
/// random number from Rng(seed).fork(i), so the result is byte-identical
/// wherever and whenever it is generated. \throws InvalidArgument when
/// \p count is zero.
[[nodiscard]] ChannelEnsemble make_ensemble(const channel::SvParams& params, uint64_t seed,
                                            std::size_t count);

/// Thread-safe in-memory ensemble store, optionally backed by a binary
/// store directory (io/cir_io.h). Lookup order: memory, then disk (when a
/// directory is set), then generate. get() never writes to disk -- the
/// store is populated explicitly by `uwb_sweep precompute` /
/// io::save_ensemble, so concurrent sweep processes can share a read-only
/// cache directory.
class ChannelCache {
 public:
  /// The process-wide cache (what SweepEngine uses unless its config names
  /// another instance).
  static ChannelCache& global();

  ChannelCache() = default;

  /// Sets (or clears, with "") the binary-store directory consulted before
  /// generating.
  void set_directory(std::string dir);

  /// The ensemble for (params, seed, count), shared. Generation and disk
  /// loads happen at most once per key per cache instance.
  [[nodiscard]] std::shared_ptr<const ChannelEnsemble> get(const channel::SvParams& params,
                                                           uint64_t seed, std::size_t count);

  /// Accounting (what bench_channel_cache reports).
  struct Stats {
    std::size_t hits = 0;        ///< served from memory
    std::size_t disk_loads = 0;  ///< served from the binary store
    std::size_t generated = 0;   ///< ensembles generated in-process
    std::size_t sv_draws = 0;    ///< total realize() calls this cache paid for
  };
  [[nodiscard]] Stats stats() const;

 private:
  mutable std::mutex mutex_;
  std::string dir_;
  std::map<ChannelKey, std::shared_ptr<const ChannelEnsemble>> store_;
  Stats stats_;
};

}  // namespace uwb::engine

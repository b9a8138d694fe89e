#pragma once
/// \file cir_io.h
/// \brief The channel-ensemble binary store: versioned (de)serialization of
///        engine::ChannelEnsemble under a store directory (conventionally
///        bench/results/channels/), with a strict JSON sidecar carrying the
///        human-readable metadata.
///
/// Layout per ensemble, named by its key:
///
///   <dir>/<name>_<fingerprint:016x>_s<seed>_n<count>.cir    realizations
///   <dir>/<name>_<fingerprint:016x>_s<seed>_n<count>.json   sidecar
///
/// The .cir format (version 1) is endian-explicit little-endian:
///
///   magic   8 bytes  "UWBCIR\0\x01"  (last byte = format version)
///   header  3 x u64  fingerprint, seed, count
///   body    per realization: u64 tap count, then per tap three f64
///           (delay_s, gain real, gain imag) as IEEE-754 bit patterns
///
/// Doubles round-trip exactly (bit patterns, not text), so save -> load
/// reproduces an ensemble tap for tap and a cached sweep is byte-identical
/// to its in-memory-ensemble counterpart. The sidecar holds the full
/// SvParams, and both load paths are strict: a magic/version/key mismatch,
/// a truncated body, or an unknown sidecar key throws InvalidArgument.

#include <string>

#include "engine/channel_cache.h"
#include "io/json.h"

namespace uwb::io {

/// Format version written into the .cir magic and the sidecar.
inline constexpr int kCirFormatVersion = 1;

/// Conventional store directory for precomputed ensembles.
[[nodiscard]] std::string default_channel_store_dir();

/// File stem (no directory, no extension) for an ensemble key:
/// "<params.name>_<fingerprint:016x>_s<seed>_n<count>".
[[nodiscard]] std::string ensemble_stem(const channel::SvParams& params,
                                        const engine::ChannelKey& key);

/// True when both store files for (params, key) exist under \p dir.
[[nodiscard]] bool ensemble_exists(const std::string& dir, const channel::SvParams& params,
                                   const engine::ChannelKey& key);

/// Writes <stem>.cir and <stem>.json under \p dir (created if missing).
/// Returns the stem path ("<dir>/<stem>"). Rewriting an existing ensemble
/// produces byte-identical files (deterministic content, deterministic
/// formatting).
std::string save_ensemble(const engine::ChannelEnsemble& ensemble, const std::string& dir);

/// Loads the ensemble stored for (params, key) under \p dir and validates
/// the sidecar against \p params and the binary header against \p key.
/// \throws InvalidArgument on any mismatch or malformed file.
[[nodiscard]] engine::ChannelEnsemble load_ensemble(const std::string& dir,
                                                    const channel::SvParams& params,
                                                    const engine::ChannelKey& key);

/// Sidecar (de)serialization, exposed for tests and tooling: the format
/// marker and version, then the ensemble's key and SvParams (the writer
/// ignores the realizations, and the reader returns none). The reader is
/// strict: an unknown or missing key throws InvalidArgument.
[[nodiscard]] JsonValue ensemble_sidecar_json(const engine::ChannelEnsemble& ensemble);
[[nodiscard]] engine::ChannelEnsemble ensemble_sidecar_from_json(const JsonValue& v);

}  // namespace uwb::io

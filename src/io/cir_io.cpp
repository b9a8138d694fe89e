#include "io/cir_io.h"

#include <bit>
#include <cstdio>
#include <filesystem>

#include "common/error.h"
#include "io/fields.h"
#include "io/file.h"

namespace uwb::io {

// ------------------------------------------------------------ field lists ----

template <typename V>
void fields(V& v, Of<channel::SvParams> auto& p) {
  v("name", p.name);
  v("cluster_rate_per_s", p.cluster_rate_per_s);
  v("ray_rate_per_s", p.ray_rate_per_s);
  v("cluster_decay_s", p.cluster_decay_s);
  v("ray_decay_s", p.ray_decay_s);
  v("cluster_fading_db", p.cluster_fading_db);
  v("ray_fading_db", p.ray_fading_db);
  v("shadowing_db", p.shadowing_db);
  v("max_excess_delay_s", p.max_excess_delay_s);
  v("complex_phases", p.complex_phases);
}

/// The sidecar's fields after its format and version: the ensemble's key
/// and parameters (the realizations live in the .cir file).
template <typename V>
void fields(V& v, Of<engine::ChannelEnsemble> auto& e) {
  v("fingerprint", e.key.fingerprint, kHexDigest);
  v("seed", e.key.seed);
  v("count", e.key.count);
  // Informational, derived from the key: the stem is authoritative, so
  // the reader accepts any name here.
  std::string realizations_file = ensemble_stem(e.params, e.key) + ".cir";
  v("realizations_file", realizations_file);
  v("sv_params", e.params);
}

namespace {

// 8-byte magic; the last byte is the format version.
constexpr char kMagic[8] = {'U', 'W', 'B', 'C', 'I', 'R', '\0',
                            static_cast<char>(kCirFormatVersion)};

void put_u64(std::string& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_f64(std::string& out, double v) { put_u64(out, std::bit_cast<uint64_t>(v)); }

/// Cursor over the loaded bytes; every read is bounds-checked so a
/// truncated file throws instead of reading garbage.
struct ByteCursor {
  const std::string& bytes;
  std::size_t pos = 0;
  const std::string& path;

  uint64_t u64() {
    detail::require(pos + 8 <= bytes.size(), "cir store: '" + path + "' is truncated");
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<unsigned char>(bytes[pos + i])) << (8 * i);
    }
    pos += 8;
    return v;
  }
  double f64() { return std::bit_cast<double>(u64()); }
};

std::string stem_path(const std::string& dir, const channel::SvParams& params,
                      const engine::ChannelKey& key) {
  return (std::filesystem::path(dir) / ensemble_stem(params, key)).string();
}

constexpr Document kSidecar{"cir store: sidecar", Missing::kThrow};
constexpr const char* kSidecarFormat = "uwb-cir-ensemble";

}  // namespace

std::string default_channel_store_dir() { return "bench/results/channels"; }

std::string ensemble_stem(const channel::SvParams& params, const engine::ChannelKey& key) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "%s_%016llx_s%llu_n%llu", params.name.c_str(),
                static_cast<unsigned long long>(key.fingerprint),
                static_cast<unsigned long long>(key.seed),
                static_cast<unsigned long long>(key.count));
  return buf;
}

bool ensemble_exists(const std::string& dir, const channel::SvParams& params,
                     const engine::ChannelKey& key) {
  const std::string stem = stem_path(dir, params, key);
  std::error_code ec;
  return std::filesystem::exists(stem + ".cir", ec) &&
         std::filesystem::exists(stem + ".json", ec);
}

std::string save_ensemble(const engine::ChannelEnsemble& ensemble, const std::string& dir) {
  detail::require(!ensemble.realizations.empty(), "cir store: empty ensemble");
  detail::require(ensemble.realizations.size() == ensemble.key.count,
                  "cir store: ensemble count does not match its key");

  std::string bytes;
  bytes.append(kMagic, sizeof kMagic);
  put_u64(bytes, ensemble.key.fingerprint);
  put_u64(bytes, ensemble.key.seed);
  put_u64(bytes, ensemble.key.count);
  for (const channel::Cir& cir : ensemble.realizations) {
    put_u64(bytes, cir.num_taps());
    for (const channel::CirTap& tap : cir.taps()) {
      put_f64(bytes, tap.delay_s);
      put_f64(bytes, tap.gain.real());
      put_f64(bytes, tap.gain.imag());
    }
  }

  const std::string stem = stem_path(dir, ensemble.params, ensemble.key);
  write_file(stem + ".cir", bytes, "cir store");
  write_file(stem + ".json", dump_json_pretty(ensemble_sidecar_json(ensemble)) + "\n",
             "cir store");
  return stem;
}

engine::ChannelEnsemble load_ensemble(const std::string& dir, const channel::SvParams& params,
                                      const engine::ChannelKey& key) {
  const std::string stem = stem_path(dir, params, key);

  // Sidecar first: it names the parameter set the binary was generated
  // from, and a fingerprint mismatch (edited sidecar, stale store after a
  // scheme change) must fail before any realization is trusted.
  engine::ChannelEnsemble stored;
  try {
    stored = ensemble_sidecar_from_json(parse_json(read_file(stem + ".json", "cir store")));
  } catch (const Error& e) {
    throw InvalidArgument("cir store: '" + stem + ".json': " + e.what());
  }
  detail::require(stored.key == key, "cir store: sidecar key mismatch in '" + stem + ".json'");
  detail::require(engine::sv_fingerprint(stored.params) == key.fingerprint,
                  "cir store: sidecar sv_params do not match the requested fingerprint ('" +
                      stem + ".json')");

  const std::string bytes = read_file(stem + ".cir", "cir store");
  detail::require(bytes.size() >= sizeof kMagic &&
                      bytes.compare(0, sizeof kMagic, kMagic, sizeof kMagic) == 0,
                  "cir store: bad magic/version in '" + stem + ".cir'");
  ByteCursor r{bytes, sizeof kMagic, stem};
  engine::ChannelEnsemble ensemble;
  ensemble.key = engine::ChannelKey{r.u64(), r.u64(), r.u64()};
  ensemble.params = stored.params;
  detail::require(ensemble.key == key, "cir store: header key mismatch in '" + stem + ".cir'");
  ensemble.realizations.reserve(key.count);
  for (std::size_t i = 0; i < key.count; ++i) {
    const uint64_t num_taps = r.u64();
    // Sanity before reserve: a corrupt count must fail as "truncated", not
    // as a multi-GB allocation attempt (24 bytes per tap).
    detail::require(num_taps <= (bytes.size() - r.pos) / 24,
                    "cir store: '" + stem + ".cir' is truncated");
    std::vector<channel::CirTap> taps;
    taps.reserve(num_taps);
    for (uint64_t t = 0; t < num_taps; ++t) {
      const double delay = r.f64();
      const double re = r.f64();
      const double im = r.f64();
      taps.push_back(channel::CirTap{delay, cplx{re, im}});
    }
    ensemble.realizations.emplace_back(std::move(taps));
  }
  detail::require(r.pos == bytes.size(),
                  "cir store: trailing bytes in '" + stem + ".cir'");
  return ensemble;
}

JsonValue ensemble_sidecar_json(const engine::ChannelEnsemble& ensemble) {
  return write_object([&](auto& w) {
    w("format", std::string(kSidecarFormat));
    w("version", kCirFormatVersion);
    fields(w, ensemble);
  });
}

engine::ChannelEnsemble ensemble_sidecar_from_json(const JsonValue& v) {
  engine::ChannelEnsemble ensemble;
  read_object(v, kSidecar, nullptr, [&](auto& r) {
    std::string format;
    int version = 0;
    r("format", format);
    detail::require(format == kSidecarFormat, "cir store: not an ensemble sidecar");
    r("version", version);
    detail::require(version == kCirFormatVersion,
                    "cir store: unsupported sidecar format version " + std::to_string(version));
    fields(r, ensemble);
  });
  return ensemble;
}

}  // namespace uwb::io

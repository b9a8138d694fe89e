#include "io/cir_io.h"

#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "common/error.h"
#include "io/file.h"

namespace uwb::io {

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
struct Reader {
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

JsonValue sv_params_to_json(const channel::SvParams& p) {
  JsonValue out = JsonValue::object();
  out.set("name", JsonValue::string(p.name));
  out.set("cluster_rate_per_s", JsonValue::number(p.cluster_rate_per_s));
  out.set("ray_rate_per_s", JsonValue::number(p.ray_rate_per_s));
  out.set("cluster_decay_s", JsonValue::number(p.cluster_decay_s));
  out.set("ray_decay_s", JsonValue::number(p.ray_decay_s));
  out.set("cluster_fading_db", JsonValue::number(p.cluster_fading_db));
  out.set("ray_fading_db", JsonValue::number(p.ray_fading_db));
  out.set("shadowing_db", JsonValue::number(p.shadowing_db));
  out.set("max_excess_delay_s", JsonValue::number(p.max_excess_delay_s));
  out.set("complex_phases", JsonValue::boolean(p.complex_phases));
  return out;
}

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
  const JsonValue sidecar = parse_json(read_file(stem + ".json", "cir store"));
  channel::SvParams stored_params;
  uint64_t stored_fingerprint = 0, stored_seed = 0, stored_count = 0;
  for (const auto& [k, v] : sidecar.members()) {
    if (k == "format") {
      detail::require(v.as_string() == "uwb-cir-ensemble",
                      "cir store: '" + stem + ".json' is not an ensemble sidecar");
    } else if (k == "version") {
      detail::require(v.as_int() == kCirFormatVersion,
                      "cir store: unsupported format version in '" + stem + ".json'");
    } else if (k == "fingerprint") {
      // Strict hex parse: a corrupt sidecar must throw InvalidArgument,
      // never leak std::invalid_argument/out_of_range past the io layer.
      const std::string& text = v.as_string();
      errno = 0;
      char* end = nullptr;
      stored_fingerprint = std::strtoull(text.c_str(), &end, 16);
      detail::require(!text.empty() && end == text.c_str() + text.size() && errno != ERANGE,
                      "cir store: bad fingerprint '" + text + "' in '" + stem + ".json'");
    } else if (k == "seed") {
      stored_seed = v.as_uint64();
    } else if (k == "count") {
      stored_count = v.as_uint64();
    } else if (k == "realizations_file") {
      (void)v.as_string();  // informational; the stem is authoritative
    } else if (k == "sv_params") {
      stored_params = sv_params_from_json(v);
    } else {
      throw InvalidArgument("cir store: sidecar: unknown key '" + k + "'");
    }
  }
  detail::require(stored_fingerprint == key.fingerprint && stored_seed == key.seed &&
                      stored_count == key.count,
                  "cir store: sidecar key mismatch in '" + stem + ".json'");
  detail::require(engine::sv_fingerprint(stored_params) == key.fingerprint,
                  "cir store: sidecar sv_params do not match the requested fingerprint ('" +
                      stem + ".json')");

  const std::string bytes = read_file(stem + ".cir", "cir store");
  detail::require(bytes.size() >= sizeof kMagic &&
                      bytes.compare(0, sizeof kMagic, kMagic, sizeof kMagic) == 0,
                  "cir store: bad magic/version in '" + stem + ".cir'");
  Reader r{bytes, sizeof kMagic, stem};
  engine::ChannelEnsemble ensemble;
  ensemble.key = engine::ChannelKey{r.u64(), r.u64(), r.u64()};
  ensemble.params = stored_params;
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
  char fingerprint[32];
  std::snprintf(fingerprint, sizeof fingerprint, "%016llx",
                static_cast<unsigned long long>(ensemble.key.fingerprint));
  JsonValue out = JsonValue::object();
  out.set("format", JsonValue::string("uwb-cir-ensemble"));
  out.set("version", JsonValue::number(kCirFormatVersion));
  out.set("fingerprint", JsonValue::string(fingerprint));
  out.set("seed", JsonValue::number(ensemble.key.seed));
  out.set("count", JsonValue::number(static_cast<uint64_t>(ensemble.key.count)));
  out.set("realizations_file",
          JsonValue::string(ensemble_stem(ensemble.params, ensemble.key) + ".cir"));
  out.set("sv_params", sv_params_to_json(ensemble.params));
  return out;
}

channel::SvParams sv_params_from_json(const JsonValue& v) {
  channel::SvParams p;
  for (const auto& [key, val] : v.members()) {
    if (key == "name") p.name = val.as_string();
    else if (key == "cluster_rate_per_s") p.cluster_rate_per_s = val.as_double();
    else if (key == "ray_rate_per_s") p.ray_rate_per_s = val.as_double();
    else if (key == "cluster_decay_s") p.cluster_decay_s = val.as_double();
    else if (key == "ray_decay_s") p.ray_decay_s = val.as_double();
    else if (key == "cluster_fading_db") p.cluster_fading_db = val.as_double();
    else if (key == "ray_fading_db") p.ray_fading_db = val.as_double();
    else if (key == "shadowing_db") p.shadowing_db = val.as_double();
    else if (key == "max_excess_delay_s") p.max_excess_delay_s = val.as_double();
    else if (key == "complex_phases") p.complex_phases = val.as_bool();
    else throw InvalidArgument("cir store: sv_params: unknown key '" + key + "'");
  }
  return p;
}

}  // namespace uwb::io

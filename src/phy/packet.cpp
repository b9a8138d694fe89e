#include "phy/packet.h"

#include "common/error.h"
#include "phy/bits.h"
#include "phy/crc.h"
#include "phy/lfsr.h"

namespace uwb::phy {

namespace {

/// Barker-13 (+ 3 padding bits when sfd_length == 16): excellent aperiodic
/// autocorrelation makes a robust frame delimiter.
BitVec make_sfd(int length) {
  detail::require(length >= 13, "PacketFramer: SFD must be at least 13 bits");
  static constexpr uint8_t barker13[13] = {1, 1, 1, 1, 1, 0, 0, 1, 1, 0, 1, 0, 1};
  BitVec sfd(static_cast<std::size_t>(length), 0);
  for (std::size_t i = 0; i < 13; ++i) sfd[i] = barker13[i];
  // Pad with alternating bits.
  for (std::size_t i = 13; i < sfd.size(); ++i) sfd[i] = static_cast<uint8_t>(i & 1u);
  return sfd;
}

}  // namespace

PacketFramer::PacketFramer(const PacketConfig& config) : config_(config) {
  detail::require(config.preamble_repetitions >= 1,
                  "PacketFramer: preamble repetitions must be >= 1");
  pn_period_ = msequence(config.preamble_msequence_degree);
  preamble_.reserve(pn_period_.size() * static_cast<std::size_t>(config.preamble_repetitions));
  for (int r = 0; r < config.preamble_repetitions; ++r) {
    preamble_.insert(preamble_.end(), pn_period_.begin(), pn_period_.end());
  }
  sfd_ = make_sfd(config.sfd_length);
}

FramedPacket PacketFramer::frame(const BitVec& payload) const {
  detail::require(payload.size() < (1u << config_.header_length_bits),
                  "PacketFramer::frame: payload too long for length field");
  FramedPacket pkt;
  pkt.preamble = preamble_;
  pkt.sfd = sfd_;

  const BitVec length_field =
      uint_to_bits(payload.size(), config_.header_length_bits);
  pkt.header = append_crc16(length_field);
  pkt.payload = append_crc32(payload);

  pkt.all.reserve(pkt.preamble.size() + pkt.sfd.size() + pkt.header.size() +
                  pkt.payload.size());
  pkt.all.insert(pkt.all.end(), pkt.preamble.begin(), pkt.preamble.end());
  pkt.all.insert(pkt.all.end(), pkt.sfd.begin(), pkt.sfd.end());
  pkt.all.insert(pkt.all.end(), pkt.header.begin(), pkt.header.end());
  pkt.all.insert(pkt.all.end(), pkt.payload.begin(), pkt.payload.end());
  return pkt;
}

std::optional<DeframeResult> PacketFramer::deframe(const BitVec& post_sfd_bits) const {
  const std::size_t hdr_len = header_bits_on_air();
  if (post_sfd_bits.size() < hdr_len) return std::nullopt;

  const BitVec header(post_sfd_bits.begin(),
                      post_sfd_bits.begin() + static_cast<std::ptrdiff_t>(hdr_len));
  if (!check_crc16(header)) return std::nullopt;

  DeframeResult result;
  result.header_ok = true;
  result.payload_bits = static_cast<std::size_t>(
      bits_to_uint(header, 0, static_cast<std::size_t>(config_.header_length_bits)));

  const std::size_t body_len = result.payload_bits + 32;  // payload + CRC-32
  if (post_sfd_bits.size() < hdr_len + body_len) {
    result.payload_ok = false;
    return result;
  }
  const BitVec body(post_sfd_bits.begin() + static_cast<std::ptrdiff_t>(hdr_len),
                    post_sfd_bits.begin() + static_cast<std::ptrdiff_t>(hdr_len + body_len));
  result.payload_ok = check_crc32(body);
  result.payload.assign(body.begin(), body.end() - 32);
  return result;
}

}  // namespace uwb::phy

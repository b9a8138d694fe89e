#include "txrx/packet_batch.h"

#include <utility>

#include "stats/sampling.h"

namespace uwb::txrx {

PacketBatch::PacketBatch(std::shared_ptr<Link> link, const TrialOptions& options,
                         ChannelResolver resolver)
    : link_(std::move(link)), options_(options), resolver_(std::move(resolver)) {}

void PacketBatch::run(std::size_t first, std::size_t count, const Rng& root,
                      sim::TrialOutcome* out) {
  cirs_.resize(count);
  for (std::size_t k = 0; k < count; ++k) {
    cirs_[k] = resolver_ ? resolver_(first + k) : nullptr;
  }

  // Group by realization in first-seen order: trials sharing a cached CIR
  // run back-to-back, so the link rebuilds its composite kernel once per
  // realization per batch. The schedule is a pure function of the resolver
  // mapping, and execution order cannot change any outcome (each trial is a
  // pure function of its own forked Rng).
  order_.clear();
  order_.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    if (cirs_[k] == nullptr) {
      // Fresh draws share nothing: run at their own position, never group.
      order_.push_back(k);
      continue;
    }
    bool seen = false;
    for (std::size_t j = 0; j < k; ++j) {
      if (cirs_[j] == cirs_[k]) {
        seen = true;
        break;
      }
    }
    if (seen) continue;
    order_.push_back(k);
    for (std::size_t j = k + 1; j < count; ++j) {
      if (cirs_[j] == cirs_[k]) order_.push_back(j);
    }
  }

  for (const std::size_t k : order_) {
    Rng trial_rng = root.fork(first + k);
    out[k] = run_one(first + k, cirs_[k], trial_rng);
  }
}

sim::TrialOutcome PacketBatch::run_one(std::size_t index, const channel::Cir* cir,
                                       Rng& rng) {
  TrialContext context;
  context.channel = cir;
  const stats::SamplingPolicy& sampling = options_.sampling;
  if (sampling.active()) {
    // Index-keyed bias resolution, like the ensemble realization: trial i's
    // scale and target-bit stratum depend only on i, so weighted sweeps
    // stay deterministic for any worker count or batch size.
    context.noise_scale = stats::trial_noise_scale(sampling, index);
    context.sampling_trial = index;
    context.sampling_resolved = true;
  }
  sim::TrialOutcome out = link_->run_packet(options_, rng, context);
  // record_metrics filters AND orders the recorded reductions; empty means
  // record everything the trial emitted, in emission order. The importance
  // weight is estimator state, not an optional observable: it stays on the
  // outcome whatever the filter keeps.
  const std::vector<std::string>& wanted = options_.record_metrics;
  if (!wanted.empty()) {
    std::vector<std::pair<std::string, double>> kept;
    kept.reserve(wanted.size());
    for (const std::string& name : wanted) {
      if (const std::optional<double> value = out.metric(name)) kept.emplace_back(name, *value);
    }
    out.metrics = std::move(kept);
  }
  return out;
}

}  // namespace uwb::txrx

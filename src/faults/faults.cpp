#include "faults/faults.hpp"

#include <cstdlib>

#include "telemetry/metrics.hpp"

namespace roomnet::faults {

std::uint64_t fault_seed(std::uint64_t sim_seed) {
  if (const char* env = std::getenv("ROOMNET_FAULT_SEED");
      env != nullptr && *env != '\0') {
    char* end = nullptr;
    const std::uint64_t parsed = std::strtoull(env, &end, 0);
    if (end != nullptr && *end == '\0') return parsed;
  }
  // Fixed xor so the fault streams never alias the sim's own forks.
  return sim_seed ^ 0xfa175eed0c0de5ull;
}

FaultPlan::FaultPlan(FaultConfig config, std::uint64_t seed)
    : config_(config), enabled_(config.any()), rng_(seed) {
  churn_rng_ = rng_.fork("churn");
  if (!enabled_) return;
  auto& registry = telemetry::Registry::global();
  dropped_ = &registry.counter("roomnet_faults_frames_dropped_total");
  duplicated_ = &registry.counter("roomnet_faults_frames_duplicated_total");
  reordered_ = &registry.counter("roomnet_faults_frames_reordered_total");
  jittered_ = &registry.counter("roomnet_faults_frames_jittered_total");
  truncated_ = &registry.counter("roomnet_faults_frames_truncated_total");
  corrupted_ = &registry.counter("roomnet_faults_frames_corrupted_total");
}

void FaultPlan::install(Switch& net) {
  if (!enabled_) return;
  net.set_fault_hook(
      [this](std::size_t frame_size) { return next_frame_fate(frame_size); });
}

Switch::FrameFate FaultPlan::next_frame_fate(std::size_t frame_size) {
  Switch::FrameFate fate;
  if (!enabled_) return fate;
  if (config_.loss > 0 && rng_.chance(config_.loss)) {
    fate.drop = true;
    dropped_->inc();
    return fate;
  }
  if (config_.duplicate > 0 && rng_.chance(config_.duplicate)) {
    fate.copies = 2;
    duplicated_->inc();
  }
  if (config_.jitter_max_us > 0) {
    const auto us =
        rng_.below(static_cast<std::uint64_t>(config_.jitter_max_us) + 1);
    if (us > 0) {
      fate.extra_delay = SimTime::from_us(static_cast<std::int64_t>(us));
      jittered_->inc();
    }
  }
  if (config_.reorder > 0 && rng_.chance(config_.reorder)) {
    // Three propagation delays is enough to land behind back-to-back
    // successors without stalling whole protocol exchanges.
    fate.extra_delay += SimTime::from_us(900);
    reordered_->inc();
  }
  // Mutations keep the 14-byte Ethernet header intact: real-world cut-off
  // captures and bit errors hit payloads; headerless runts are dropped by
  // the switch before decode anyway and would just alias `loss`.
  if (config_.truncate > 0 && frame_size > 15 &&
      rng_.chance(config_.truncate)) {
    fate.truncate_to =
        15 + static_cast<std::size_t>(rng_.below(frame_size - 15));
    truncated_->inc();
  }
  if (config_.corrupt > 0 && frame_size > 14 && rng_.chance(config_.corrupt)) {
    fate.corrupt_at =
        14 + static_cast<std::size_t>(rng_.below(frame_size - 14));
    fate.corrupt_mask =
        static_cast<std::uint8_t>(1u << rng_.below(8));
    corrupted_->inc();
  }
  return fate;
}

bool FaultPlan::draw_churn() {
  return enabled_ && config_.churn > 0 && churn_rng_.chance(config_.churn);
}

}  // namespace roomnet::faults

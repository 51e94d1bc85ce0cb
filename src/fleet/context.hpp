// HouseholdContext: the recycled per-worker state that makes per-household
// cost flat. The flow cache's node pool and bucket array are keep-capacity
// structures: begin_household() rewinds them without freeing, so after the
// first few households a context runs an entire household without touching
// the allocator for flow state — the RSS-per-household slope the fleet bench
// proves to be ~0. The flow cache is the only recycled state: the analysis
// builders, the exposure fold's payload memos among them, live and die
// with their household.
//
// ContextPool hands contexts to shard tasks through RAII leases. TaskPool's
// run_chunks exposes no worker identity, so the pool is a mutex-guarded free
// list: a shard leases whichever context is idle, which is exactly why
// begin_household() must (and does) erase every trace of the previous
// household — lease order is scheduling-dependent, results must not be.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "capture/flow_cache.hpp"
#include "fleet/household.hpp"

namespace roomnet::telemetry {
class Counter;
}  // namespace roomnet::telemetry

namespace roomnet::fleet {

class HouseholdContext {
 public:
  explicit HouseholdContext(const FlowCacheConfig& cache_config)
      : cache(cache_config) {}

  /// Rewinds every recycled structure for the next household.
  void begin_household() {
    cache.reset();
    ++households_served;
  }

  // O(active flows) state behind the configured bounds.
  FlowCache cache;
  std::uint64_t households_served = 0;
};

/// Mutex-guarded free list of contexts with RAII leases. Contention is one
/// lock per shard (not per household), so shard_size amortizes it away.
class ContextPool {
 public:
  explicit ContextPool(FlowCacheConfig cache_config);

  class Lease {
   public:
    Lease(ContextPool* pool, std::unique_ptr<HouseholdContext> context)
        : pool_(pool), context_(std::move(context)) {}
    ~Lease() {
      if (pool_ != nullptr) pool_->release(std::move(context_));
    }
    Lease(Lease&& other) noexcept
        : pool_(other.pool_), context_(std::move(other.context_)) {
      other.pool_ = nullptr;
    }
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    [[nodiscard]] HouseholdContext& context() { return *context_; }

   private:
    ContextPool* pool_;
    std::unique_ptr<HouseholdContext> context_;
  };

  /// Leases an idle context, creating one only when none is free — at most
  /// one per concurrently running shard ever exists.
  [[nodiscard]] Lease acquire();

  [[nodiscard]] std::uint64_t contexts_created() const;
  [[nodiscard]] std::uint64_t reuses() const;

 private:
  void release(std::unique_ptr<HouseholdContext> context);

  FlowCacheConfig cache_config_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<HouseholdContext>> free_;
  std::uint64_t created_ = 0;
  std::uint64_t reuses_ = 0;
  // roomnet_fleet_* telemetry, resolved once.
  telemetry::Counter* created_counter_;
  telemetry::Counter* reuse_counter_;
};

}  // namespace roomnet::fleet

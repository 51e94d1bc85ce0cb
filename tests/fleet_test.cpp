// Tests for the household-fleet driver: per-household seed independence
// (household k is byte-identical alone vs inside a fleet, on a fresh or a
// well-used context), byte-identical fleet aggregates for any thread count
// and any shard size, a pinned small-fleet root, flat per-household memory
// on recycled contexts, and the manifest's folding behavior.
#include <gtest/gtest.h>

#include <string>

#include "exec/task_pool.hpp"
#include "fleet/context.hpp"
#include "fleet/fleet.hpp"
#include "fleet/household.hpp"

namespace roomnet::fleet {
namespace {

FleetConfig small_fleet(std::uint64_t households) {
  FleetConfig config;
  config.seed = 42;
  config.households = households;
  return config;
}

TEST(FleetSeedIndependence, HouseholdAloneMatchesHouseholdInFleet) {
  FleetConfig config = small_fleet(1000);
  config.threads = 2;
  const FleetResults fleet = run_fleet(config);
  ASSERT_EQ(fleet.household_hashes.size(), 1000u);

  // Household 517 recomputed standalone, on a factory-fresh context.
  HouseholdContext fresh(config.household.cache);
  const HouseholdResult alone =
      run_household(config.household, config.seed, 517, fresh);
  EXPECT_EQ(alone.sha256, fleet.household_hashes[517]);
  EXPECT_EQ(alone.seed, household_seed(config.seed, 517));

  // And on a context another household just dirtied: begin_household() must
  // erase every trace (lease order inside a fleet is scheduling-dependent).
  HouseholdContext used(config.household.cache);
  (void)run_household(config.household, config.seed, 3, used);
  const HouseholdResult recycled =
      run_household(config.household, config.seed, 517, used);
  EXPECT_EQ(recycled.sha256, alone.sha256);
}

TEST(FleetSeedIndependence, SeedsAreDistinctAcrossIndices) {
  EXPECT_NE(household_seed(42, 0), household_seed(42, 1));
  EXPECT_NE(household_seed(42, 0), household_seed(43, 0));
  // splitmix64 output, not the raw index: household 0 is fully mixed.
  EXPECT_NE(household_seed(42, 0), 42u);
}

TEST(FleetThreadInvariance, AggregatesAreByteIdenticalAcrossThreadCounts) {
  const FleetConfig base = small_fleet(200);
  std::string manifest_1, aggregates_1;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    FleetConfig config = base;
    config.threads = threads;
    exec::TaskPool pool(threads);
    const FleetResults results = run_fleet(config, pool);
    const std::string manifest = to_json(results.manifest);
    const std::string aggregates = to_json(results.aggregates);
    if (threads == 1) {
      manifest_1 = manifest;
      aggregates_1 = aggregates;
      continue;
    }
    EXPECT_EQ(manifest, manifest_1) << "threads=" << threads;
    EXPECT_EQ(aggregates, aggregates_1) << "threads=" << threads;
  }
}

TEST(FleetShardInvariance, ShardSizeNeverChangesResults) {
  FleetConfig config = small_fleet(150);
  config.threads = 4;
  std::string manifest_64;
  for (const std::size_t shard_size : {64u, 7u, 1u}) {
    config.shard_size = shard_size;
    const FleetResults results = run_fleet(config);
    const std::string manifest = to_json(results.manifest);
    if (shard_size == 64) {
      manifest_64 = manifest;
      continue;
    }
    EXPECT_EQ(manifest, manifest_64) << "shard_size=" << shard_size;
  }
}

TEST(FleetGolden, SmallFleetReproducesPinnedRoot) {
  // Every row hash folded into households_root, and the config digest (with
  // its constant former-mode byte), must keep their historical bytes.
  FleetConfig config = small_fleet(200);
  config.threads = 2;
  const FleetResults results = run_fleet(config);
  EXPECT_EQ(results.manifest.config_digest,
            "67352719bab2a21ae74fbdb82a27426f4c5d87d5861f76838775de559b109539");
  EXPECT_EQ(results.manifest.households_root,
            "68e2ed15f2d36302558fa9b4d112b7d862e4a40ebcfedb52c088f4b68240d1d5");
}

TEST(FleetFlatMemory, RecycledContextArenasPlateau) {
  HouseholdConfig config;
  HouseholdContext ctx(config.cache);
  for (std::uint64_t index = 0; index < 50; ++index)
    (void)run_household(config, 42, index, ctx);
  const std::size_t nodes_50 = ctx.cache.node_capacity();
  const std::size_t buckets_50 = ctx.cache.bucket_count();
  ASSERT_GT(nodes_50, 0u);

  for (std::uint64_t index = 50; index < 250; ++index)
    (void)run_household(config, 42, index, ctx);
  // 5x the households must not mean 5x the flow state: the recycled cache's
  // node pool and bucket array are pinned at the largest household's
  // high-water mark, not the fleet's sum. The loose 2x bound only allows a
  // later household to raise the high water itself.
  EXPECT_LE(ctx.cache.node_capacity(), 2 * nodes_50);
  EXPECT_LE(ctx.cache.bucket_count(), 2 * buckets_50);
  EXPECT_EQ(ctx.households_served, 250u);
}

TEST(FleetFlatMemory, MemcappedStreamingFleetStaysUnderBudget) {
  FleetConfig config = small_fleet(100);
  config.threads = 1;
  config.household.cache.memcap_bytes = 64 * 1024;
  HouseholdContext ctx(config.household.cache);
  for (std::uint64_t index = 0; index < 100; ++index) {
    (void)run_household(config.household, config.seed, index, ctx);
    // One flow's worth of slack: the cache evicts back under the cap after
    // the add that crossed it.
    EXPECT_LE(ctx.cache.stats().peak_bytes,
              config.household.cache.memcap_bytes + 4096)
        << "household " << index;
  }
  // A memcap'd fleet still runs end to end and stays self-consistent.
  const FleetResults results = run_fleet(config);
  EXPECT_EQ(results.aggregates.households, 100u);
  EXPECT_EQ(results.household_hashes.size(), 100u);
}

TEST(FleetManifestFolding, RootTracksSeedAndRerunsAreStable) {
  const FleetConfig config = small_fleet(40);
  const FleetResults a = run_fleet(config);
  const FleetResults b = run_fleet(config);
  EXPECT_EQ(a.manifest.result_digest, b.manifest.result_digest);
  EXPECT_EQ(a.manifest.households_root, b.manifest.households_root);
  EXPECT_EQ(a.manifest.households, 40u);
  EXPECT_EQ(a.manifest.config_digest, fleet_config_digest(config));

  FleetConfig reseeded = config;
  reseeded.seed = 43;
  const FleetResults c = run_fleet(reseeded);
  EXPECT_NE(c.manifest.households_root, a.manifest.households_root);
  EXPECT_NE(c.manifest.result_digest, a.manifest.result_digest);

  // threads/shard_size are digest-excluded by contract.
  FleetConfig threaded = config;
  threaded.threads = 4;
  threaded.shard_size = 5;
  EXPECT_EQ(fleet_config_digest(threaded), fleet_config_digest(config));
}

TEST(FleetContextPool, LeasesRecycleInsteadOfAllocating) {
  ContextPool pool{FlowCacheConfig{}};
  {
    ContextPool::Lease first = pool.acquire();
    first.context().households_served = 7;
  }
  EXPECT_EQ(pool.contexts_created(), 1u);
  EXPECT_EQ(pool.reuses(), 0u);
  {
    ContextPool::Lease second = pool.acquire();
    // Same object back, not a fresh one.
    EXPECT_EQ(second.context().households_served, 7u);
    // A second concurrent lease must be a new context.
    ContextPool::Lease third = pool.acquire();
    EXPECT_EQ(third.context().households_served, 0u);
  }
  EXPECT_EQ(pool.contexts_created(), 2u);
  EXPECT_EQ(pool.reuses(), 1u);
}

TEST(FleetSampling, HouseholdSizesRespectBoundsAndCoverTheRange) {
  HouseholdConfig config;
  Rng rng(1);
  std::size_t smallest = 99, largest = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::size_t size = sample_household_size(rng, config);
    ASSERT_GE(size, config.min_devices);
    ASSERT_LE(size, config.max_devices);
    smallest = std::min(smallest, size);
    largest = std::max(largest, size);
  }
  EXPECT_EQ(smallest, 1u);
  EXPECT_EQ(largest, 8u);

  HouseholdConfig clamped;
  clamped.min_devices = 3;
  clamped.max_devices = 4;
  for (int i = 0; i < 200; ++i) {
    const std::size_t size = sample_household_size(rng, clamped);
    ASSERT_GE(size, 3u);
    ASSERT_LE(size, 4u);
  }
}

}  // namespace
}  // namespace roomnet::fleet

// Tests for the crowdsourced-dataset substrate: SHA-256/HMAC, the dataset
// generator's calibration, the entropy analysis, and device inference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iostream>

#include "crowd/entropy.hpp"
#include "crowd/inference.hpp"
#include "crowd/geocode.hpp"
#include "crowd/inspector.hpp"
#include "netcore/sha256.hpp"
#include "netcore/sha256_kernels.hpp"

namespace roomnet {
namespace {

// ------------------------------------------------------------------ sha256

TEST(Sha256, Fips180Vectors) {
  EXPECT_EQ(sha256_hex(BytesView(bytes_of(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(sha256_hex(BytesView(bytes_of("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(sha256_hex(BytesView(bytes_of(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, LongInputCrossesBlockBoundaries) {
  // One million 'a' characters (FIPS test): well-known digest.
  const Bytes input(1000000, 'a');
  EXPECT_EQ(to_hex(BytesView(sha256(BytesView(input)))),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, PaddingBoundaries) {
  // Lengths 55, 56, 63, 64 hit all padding paths; verify via prefix property
  // (distinct digests, deterministic).
  std::set<std::string> digests;
  for (const std::size_t n : {55u, 56u, 63u, 64u, 65u}) {
    digests.insert(sha256_hex(BytesView(Bytes(n, 'x'))));
  }
  EXPECT_EQ(digests.size(), 5u);
}

// Both block kernels are checked on every host: the scalar one against the
// FIPS vectors and `Sha256`, the SHA-NI one (where the CPU has it) against
// the scalar one.

/// One-shot SHA-256 on a given kernel, padding done here rather than by
/// `Sha256`, so the stream's buffering is checked against it too.
Sha256Digest digest_on(sha256_kernels::BlockFn blocks, BytesView data) {
  std::uint32_t h[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                        0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  Bytes padded(data.begin(), data.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const std::uint64_t bits = static_cast<std::uint64_t>(data.size()) * 8;
  for (int i = 7; i >= 0; --i)
    padded.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  blocks(h, padded.data(), padded.size() / 64);
  Sha256Digest out;
  for (std::size_t i = 0; i < 32; ++i)
    out[i] = static_cast<std::uint8_t>(h[i / 4] >> (24 - 8 * (i % 4)));
  return out;
}

TEST(Sha256Kernels, ReportsTheActiveKernel) {
  const sha256_kernels::BlockFn shani = sha256_kernels::shani();
  EXPECT_EQ(sha256_kernels::active(),
            shani ? shani : sha256_kernels::blocks_scalar);
  EXPECT_STREQ(sha256_kernels::active_name(), shani ? "sha-ni" : "scalar");
  std::cout << "sha256 kernel: " << sha256_kernels::active_name() << "\n";
}

TEST(Sha256Kernels, FipsMillionAOnEachKernel) {
  const Bytes input(1000000, 'a');
  const std::string want =
      "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
  EXPECT_EQ(to_hex(BytesView(digest_on(sha256_kernels::blocks_scalar,
                                       BytesView(input)))),
            want);
  // Through the stream in uneven pieces, so runs of whole blocks start at
  // every buffer offset.
  Sha256 stream;
  for (std::size_t at = 0, step = 1; at < input.size(); at += step, ++step)
    stream.update(BytesView(input).subspan(
        at, std::min(step, input.size() - at)));
  EXPECT_EQ(stream.hex(), want);
  const sha256_kernels::BlockFn shani = sha256_kernels::shani();
  if (!shani) GTEST_SKIP() << "CPU lacks SHA-NI; only the scalar kernel ran";
  EXPECT_EQ(to_hex(BytesView(digest_on(shani, BytesView(input)))), want);
}

TEST(Sha256Kernels, StreamMatchesScalarReferenceAtEveryLength) {
  Rng rng(180);
  const Bytes data = rng.bytes(1100);
  for (std::size_t n = 0; n <= data.size(); ++n) {
    const BytesView input = BytesView(data).first(n);
    const Sha256Digest want =
        digest_on(sha256_kernels::blocks_scalar, input);
    ASSERT_EQ(sha256(input), want) << "length " << n;
    // The same input fed at random split points.
    Sha256 stream;
    std::size_t at = 0;
    while (at < n) {
      const std::size_t take = std::min<std::size_t>(rng.below(150), n - at);
      stream.update(input.subspan(at, take));
      at += take;
    }
    ASSERT_EQ(stream.digest(), want) << "length " << n;
  }
}

TEST(Sha256Kernels, ShaNiMatchesScalarOnRandomBlocks) {
  const sha256_kernels::BlockFn shani = sha256_kernels::shani();
  if (!shani) GTEST_SKIP() << "CPU lacks SHA-NI; only the scalar kernel ran";
  Rng rng(256);
  const Bytes data = rng.bytes(64 * 20);
  for (std::size_t blocks = 0; blocks <= 20; ++blocks) {
    std::uint32_t a[8], b[8];
    for (int i = 0; i < 8; ++i) a[i] = b[i] = rng.next_u32();
    sha256_kernels::blocks_scalar(a, data.data(), blocks);
    shani(b, data.data(), blocks);
    ASSERT_TRUE(std::equal(a, a + 8, b)) << blocks << " blocks";
  }
  for (std::size_t n = 0; n <= 1100; ++n) {
    const BytesView input = BytesView(data).first(n);
    ASSERT_EQ(digest_on(shani, input),
              digest_on(sha256_kernels::blocks_scalar, input))
        << "length " << n;
  }
}

TEST(HmacSha256, Rfc4231Vectors) {
  // RFC 4231 test case 1.
  const Bytes key(20, 0x0b);
  EXPECT_EQ(hmac_sha256_hex(BytesView(key), BytesView(bytes_of("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
  // Test case 2: "Jefe" / "what do ya want for nothing?".
  EXPECT_EQ(hmac_sha256_hex(BytesView(bytes_of("Jefe")),
                            BytesView(bytes_of("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
  // Test case 3: 20x0xaa key, 50x0xdd message.
  EXPECT_EQ(hmac_sha256_hex(BytesView(Bytes(20, 0xaa)), BytesView(Bytes(50, 0xdd))),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacSha256, LongKeyIsHashedFirst) {
  // RFC 4231 test case 6 (131-byte key).
  const Bytes key(131, 0xaa);
  EXPECT_EQ(hmac_sha256_hex(
                BytesView(key),
                BytesView(bytes_of("Test Using Larger Than Block-Size Key - "
                                   "Hash Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// --------------------------------------------------------------- generator

class DatasetFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(2023);
    dataset_ = new InspectorDataset(generate_inspector_dataset(rng));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }
  static InspectorDataset* dataset_;
};
InspectorDataset* DatasetFixture::dataset_ = nullptr;

TEST_F(DatasetFixture, MarginalsMatchPaper) {
  EXPECT_EQ(dataset_->household_count, 3860u);
  EXPECT_EQ(dataset_->devices.size(), 12669u);
  EXPECT_GE(dataset_->products.size(), 264u);
  EXPECT_GE(dataset_->vendors().size(), 100u);

  // Median devices per household == 3 (§6.3).
  auto sizes_map = dataset_->household_sizes();
  std::vector<std::size_t> sizes;
  for (const auto& [hh, n] : sizes_map) sizes.push_back(n);
  std::sort(sizes.begin(), sizes.end());
  EXPECT_EQ(sizes[sizes.size() / 2], 3u);
}

TEST_F(DatasetFixture, DeviceIdsAreHmacPseudonyms) {
  // 16 hex chars, unique across devices with overwhelming probability.
  std::set<std::string> ids;
  for (const auto& device : dataset_->devices) {
    EXPECT_EQ(device.device_id.size(), 16u);
    ids.insert(device.device_id);
  }
  EXPECT_EQ(ids.size(), dataset_->devices.size());
}

TEST_F(DatasetFixture, ExposureClassesPopulated) {
  std::map<int, std::size_t> products_by_count;
  for (const auto& product : dataset_->products)
    ++products_by_count[product.exposure.count()];
  EXPECT_EQ(products_by_count[0], 154u + (dataset_->products.size() - 264u));
  EXPECT_GT(products_by_count[1], 50u);
  EXPECT_GT(products_by_count[2], 10u);
  EXPECT_EQ(products_by_count[3], 1u);  // the single Roku-like product
}

TEST_F(DatasetFixture, PayloadsCarryTheDeclaredIdentifiers) {
  int checked = 0;
  for (const auto& device : dataset_->devices) {
    const ProductProfile& product = dataset_->product_of(device);
    if (product.exposure.count() == 0) continue;
    const auto ids = device_identifiers(device);
    bool has_name = false, has_uuid = false, has_mac = false;
    for (const auto& id : ids) {
      has_name |= id.type == IdentifierType::kName;
      has_uuid |= id.type == IdentifierType::kUuid;
      has_mac |= id.type == IdentifierType::kMacAddress;
    }
    EXPECT_EQ(has_name, product.exposure.name) << device.device_id;
    EXPECT_EQ(has_uuid, product.exposure.uuid) << device.device_id;
    EXPECT_EQ(has_mac, product.exposure.mac) << device.device_id;
    if (++checked > 500) break;  // sample is plenty
  }
  EXPECT_GT(checked, 100);
}

// ----------------------------------------------------------------- entropy

TEST_F(DatasetFixture, FingerprintAnalysisShape) {
  const FingerprintAnalysis analysis = fingerprint_households(*dataset_);
  ASSERT_FALSE(analysis.rows.empty());

  // Row 0: households exposing nothing.
  const FingerprintRow& none = analysis.rows.front();
  EXPECT_EQ(none.type_count, 0);
  EXPECT_GT(none.households, 500u);

  // Find the UUID-only row: largest single-type class (paper: 2,814 hse).
  const FingerprintRow* uuid_row = nullptr;
  const FingerprintRow* mac_row = nullptr;
  const FingerprintRow* all_row = nullptr;
  const FingerprintRow* uuid_mac_row = nullptr;
  for (const auto& row : analysis.rows) {
    if (row.types == ExposureClass{false, true, false}) uuid_row = &row;
    if (row.types == ExposureClass{false, false, true}) mac_row = &row;
    if (row.types == ExposureClass{false, true, true}) uuid_mac_row = &row;
    if (row.types == ExposureClass{true, true, true}) all_row = &row;
  }
  ASSERT_NE(uuid_row, nullptr);
  ASSERT_NE(mac_row, nullptr);
  ASSERT_NE(uuid_mac_row, nullptr);

  // Shape: UUID-only is the dominant class; UUID+MAC sizable; uniqueness
  // is high (>85%) but not 100% (degenerate constants).
  EXPECT_GT(uuid_row->households, mac_row->households);
  EXPECT_GT(uuid_row->households, 1500u);
  EXPECT_GT(uuid_mac_row->households, 300u);
  EXPECT_GT(uuid_row->unique_pct(), 85.0);
  EXPECT_LT(uuid_row->unique_pct(), 100.0);
  EXPECT_GT(uuid_mac_row->unique_pct(), uuid_row->unique_pct() - 5);

  // Entropy grows with combination richness (Table 2's ordering).
  EXPECT_GT(uuid_mac_row->entropy_bits, mac_row->entropy_bits);
  if (all_row != nullptr && all_row->households > 0) {
    EXPECT_GT(all_row->unique_pct(), 99.0);
  }
}

TEST_F(DatasetFixture, EntropyIsLogOfDistinctValues) {
  const FingerprintAnalysis analysis = fingerprint_households(*dataset_);
  for (const auto& row : analysis.rows) {
    if (row.type_count == 0) continue;
    // Entropy can never exceed log2(households in the class).
    EXPECT_LE(row.entropy_bits,
              std::log2(static_cast<double>(row.households)) + 1e-9);
    EXPECT_GE(row.entropy_bits, 0.0);
  }
}

TEST_F(DatasetFixture, AccumulatorFedIncrementallyMatchesWrapper) {
  // The fleet reducer feeds DeviceFingerprintRows one at a time; the
  // dataset wrapper must be a thin shell over the same accumulator. Build
  // the rows by hand (exactly what the wrapper does internally) and compare
  // every field of every row, entropy doubles included.
  FingerprintAccumulator accumulator;
  for (const auto& device : dataset_->devices) {
    DeviceFingerprintRow row;
    row.household = device.household;
    row.product = device.product_index;
    row.vendor = dataset_->products[device.product_index].vendor;
    row.ids = device_identifiers(device);
    accumulator.add(row);
  }
  const FingerprintAnalysis incremental = accumulator.finish();
  const FingerprintAnalysis wrapped = fingerprint_households(*dataset_);

  const auto expect_equal_rows = [](const std::vector<FingerprintRow>& a,
                                    const std::vector<FingerprintRow>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].types, b[i].types) << "row " << i;
      EXPECT_EQ(a[i].type_count, b[i].type_count) << "row " << i;
      EXPECT_EQ(a[i].products, b[i].products) << "row " << i;
      EXPECT_EQ(a[i].vendors, b[i].vendors) << "row " << i;
      EXPECT_EQ(a[i].devices, b[i].devices) << "row " << i;
      EXPECT_EQ(a[i].households, b[i].households) << "row " << i;
      EXPECT_EQ(a[i].uniquely_identified, b[i].uniquely_identified)
          << "row " << i;
      EXPECT_EQ(a[i].entropy_bits, b[i].entropy_bits) << "row " << i;
    }
  };
  expect_equal_rows(incremental.rows, wrapped.rows);
  expect_equal_rows(incremental.by_count, wrapped.by_count);

  // finish() is non-destructive: accumulating more afterwards still works.
  DeviceFingerprintRow extra;
  extra.household = 999999;
  extra.product = 0;
  extra.vendor = "ExtraVendor";
  extra.ids = {{IdentifierType::kUuid, "0000-extra"}};
  accumulator.add(extra);
  const FingerprintAnalysis grown = accumulator.finish();
  std::size_t devices_before = 0, devices_after = 0;
  for (const auto& row : wrapped.rows) devices_before += row.devices;
  for (const auto& row : grown.rows) devices_after += row.devices;
  EXPECT_EQ(devices_after, devices_before + 1);
}

TEST_F(DatasetFixture, AccumulatorMergeOfShardPartialsMatchesOneFeed) {
  // The fleet reducer splits households across shard-local accumulators and
  // merges them in shard order. Partition this dataset's devices by
  // household parity (households never span shards, matching the fleet's
  // contract), merge, and demand field-for-field equality with a single
  // sequential feed — entropy doubles included.
  FingerprintAccumulator sequential, even, odd;
  for (const auto& device : dataset_->devices) {
    DeviceFingerprintRow row;
    row.household = device.household;
    row.product = device.product_index;
    row.vendor = dataset_->products[device.product_index].vendor;
    row.ids = device_identifiers(device);
    sequential.add(row);
    (device.household % 2 == 0 ? even : odd).add(row);
  }
  FingerprintAccumulator merged;
  merged.merge(even);
  merged.merge(odd);
  const FingerprintAnalysis expected = sequential.finish();
  const FingerprintAnalysis actual = merged.finish();

  const auto expect_equal_rows = [](const std::vector<FingerprintRow>& a,
                                    const std::vector<FingerprintRow>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].types, b[i].types) << "row " << i;
      EXPECT_EQ(a[i].products, b[i].products) << "row " << i;
      EXPECT_EQ(a[i].vendors, b[i].vendors) << "row " << i;
      EXPECT_EQ(a[i].devices, b[i].devices) << "row " << i;
      EXPECT_EQ(a[i].households, b[i].households) << "row " << i;
      EXPECT_EQ(a[i].uniquely_identified, b[i].uniquely_identified)
          << "row " << i;
      EXPECT_EQ(a[i].entropy_bits, b[i].entropy_bits) << "row " << i;
    }
  };
  expect_equal_rows(expected.rows, actual.rows);
  expect_equal_rows(expected.by_count, actual.by_count);
}

// --------------------------------------------------------------- inference

TEST_F(DatasetFixture, InferenceRecoversVendorsFromMetadata) {
  const DeviceInference inference(*dataset_);
  const auto accuracy = inference.evaluate(*dataset_);
  EXPECT_GT(accuracy.coverage(), 0.95);          // hostnames nearly always help
  EXPECT_GT(accuracy.vendor_accuracy(), 0.90);   // lexicon matches the truth
  EXPECT_EQ(accuracy.total, dataset_->devices.size());
}

TEST_F(DatasetFixture, InferenceUsesUserLabelFirst) {
  const DeviceInference inference(*dataset_);
  InspectorDevice device = dataset_->devices[0];
  const ProductProfile& product = dataset_->product_of(device);
  device.user_label = product.vendor + " " + product.category;
  const auto identity = inference.infer(device);
  EXPECT_EQ(identity.vendor, product.vendor);
  EXPECT_EQ(identity.category, product.category);
}

TEST(InspectorDeterminism, SameSeedSameDataset) {
  Rng a(7), b(7);
  InspectorConfig small;
  small.households = 200;
  small.devices = 640;
  const auto da = generate_inspector_dataset(a, small);
  const auto db = generate_inspector_dataset(b, small);
  ASSERT_EQ(da.devices.size(), db.devices.size());
  for (std::size_t i = 0; i < da.devices.size(); i += 37)
    EXPECT_EQ(da.devices[i].device_id, db.devices[i].device_id);
}

// ----------------------------------------------------------------- geocode

TEST(Geocode, DistanceSanity) {
  const GeoPoint boston{42.3601, -71.0589};
  const GeoPoint cambridge{42.3736, -71.1097};
  const double d = boston.distance_m(cambridge);
  EXPECT_GT(d, 3500);
  EXPECT_LT(d, 5500);
  EXPECT_NEAR(boston.distance_m(boston), 0, 1e-6);
}

TEST(Geocode, HarvestedBssidResolvesToStreetAddress) {
  // The §2 attack chain: an app harvests the router BSSID (no dangerous
  // permission needed, §6.1), queries a wardriving database, and gets the
  // home's location with street-level precision.
  Rng rng(77);
  const auto home_bssid = MacAddress::parse("02:a0:ff:00:00:01").value();
  const GeoPoint home{42.337681, -71.087036};
  const GeocodeIndex index =
      build_wardriving_index(rng, 50000, home_bssid, home);
  EXPECT_EQ(index.size(), 50000u);
  ASSERT_TRUE(index.lookup(home_bssid).has_value());
  EXPECT_TRUE(index.resolves_within(home_bssid, home, 50));
  // A BSSID the wardrivers never saw resolves to nothing.
  EXPECT_EQ(index.lookup(MacAddress::from_u64(0xdead)), std::nullopt);
}

TEST(Geocode, UnrelatedApsDoNotCollideWithHome) {
  Rng rng(78);
  const auto home_bssid = MacAddress::parse("02:a0:ff:00:00:01").value();
  const GeoPoint home{42.337681, -71.087036};
  const GeocodeIndex index = build_wardriving_index(rng, 1000, home_bssid, home);
  // Only the home AP should resolve within 50 m of the home.
  EXPECT_TRUE(index.resolves_within(home_bssid, home, 50));
}

}  // namespace
}  // namespace roomnet

#include "crowd/inspector.hpp"

#include <algorithm>

#include "netcore/sha256.hpp"
#include "netcore/uuid.hpp"

namespace roomnet {

std::set<std::string> InspectorDataset::vendors() const {
  std::set<std::string> out;
  for (const auto& product : products) out.insert(product.vendor);
  return out;
}

std::map<std::size_t, std::size_t> InspectorDataset::household_sizes() const {
  std::map<std::size_t, std::size_t> sizes;
  for (const auto& device : devices) ++sizes[device.household];
  return sizes;
}

namespace {

const char* kFirstNames[] = {
    "Olivia", "Liam",   "Emma",   "Noah",  "Ava",    "Oliver", "Sophia",
    "Elijah", "Isabel", "Lucas",  "Mia",   "Mason",  "Amelia", "Logan",
    "Harper", "Ethan",  "Evelyn", "James", "Abby",   "Aiden",  "Ella",
    "Jack",   "Scarlet", "Levi",  "Grace", "Carter", "Chloe",  "Daniel",
    "Riley",  "Henry",  "Zoey",   "Owen",  "Nora",   "Wyatt",  "Lily",
    "Sam",    "Hannah", "Gabe",   "Layla", "Julian"};

const char* kRooms[] = {"Room",    "Bedroom", "Kitchen", "Office",
                        "Den",     "Living",  "Garage",  "Basement",
                        "Nursery", "Studio"};

const char* kCategories[] = {"camera", "tv",     "plug",   "speaker",
                             "bulb",   "hub",    "sensor", "thermostat",
                             "printer", "doorbell"};

const char* kVendorStems[] = {
    "Acme",   "Lumo",  "Haven", "Piko",   "Vanta", "Orbit", "Nimbus",
    "Strata", "Quill", "Ember", "Fable",  "Gleam", "Halo",  "Iris",
    "Juno",   "Kestrel", "Lyra", "Mesa",  "Nova",  "Onyx"};

std::string vendor_name(std::size_t index) {
  const std::size_t stem = index % std::size(kVendorStems);
  const std::size_t suffix = index / std::size(kVendorStems);
  std::string name = kVendorStems[stem];
  if (suffix > 0) name += "Tech" + std::to_string(suffix);
  return name;
}

}  // namespace

InspectorDataset generate_inspector_dataset(Rng& rng, InspectorConfig config) {
  InspectorDataset dataset;
  dataset.household_count = config.households;
  Rng gen = rng.fork("inspector");

  // --- products: exposure classes sized to reproduce Table 2's rows -----
  // Quotas (in products) tuned so household counts land near the paper's:
  // none 154, uuid-only ~110, mac-only large-tail, name-only rare,
  // name+uuid small, uuid+mac sizeable, all-three exactly one (Roku-like).
  struct ClassQuota {
    ExposureClass exposure;
    std::size_t products;
    double popularity;
  };
  // Popularities are tuned so DEVICE fractions land near Table 2's exact
  // device partition (none 33%, one-type 55% — mostly UUID-only —,
  // two-type 12.4%, all-three ~0.02%).
  const std::vector<ClassQuota> quotas = {
      {{false, false, false}, 154, 0.27},
      {{false, true, false}, 60, 0.97},   // UUID-only: the dominant class
      {{false, false, true}, 25, 0.40},   // MAC-only
      {{true, false, false}, 2, 0.019},   // name-only: rare
      {{true, true, false}, 6, 0.063},    // name+UUID: small
      {{false, true, true}, 16, 0.95},    // UUID+MAC: sizeable
      {{true, true, true}, 1, 0.02},      // the one all-three product
  };
  std::size_t vendor_cursor = 0;
  for (const auto& quota : quotas) {
    for (std::size_t i = 0; i < quota.products; ++i) {
      ProductProfile product;
      product.vendor = vendor_name(vendor_cursor++ % config.vendor_count);
      product.category = kCategories[gen.below(std::size(kCategories))];
      product.exposure = quota.exposure;
      // Degenerate constants on a small fraction of products -> the ~5%
      // non-unique identifiers in Table 2.
      // Every exposure class contains a few "degenerate" products shipping
      // a constant identifier (first product of each class plus a random
      // sprinkle) — the source of Table 2's sub-100% uniqueness.
      product.constant_uuid =
          quota.exposure.uuid && (i == 0 || gen.chance(0.05));
      product.constant_mac =
          quota.exposure.mac && (i == 1 || gen.chance(0.05));
      product.popularity = quota.popularity * (0.3 + gen.uniform());
      dataset.products.push_back(std::move(product));
    }
  }
  while (dataset.products.size() < config.product_count) {
    ProductProfile product;
    product.vendor = vendor_name(vendor_cursor++ % config.vendor_count);
    product.category = kCategories[gen.below(std::size(kCategories))];
    product.popularity = 0.5 + gen.uniform();
    dataset.products.push_back(std::move(product));
  }

  // Cumulative popularity for weighted sampling.
  std::vector<double> cumulative;
  double total_weight = 0;
  for (const auto& product : dataset.products) {
    total_weight += product.popularity;
    cumulative.push_back(total_weight);
  }
  const auto sample_product = [&]() {
    const double r = gen.uniform() * total_weight;
    return static_cast<std::size_t>(
        std::lower_bound(cumulative.begin(), cumulative.end(), r) -
        cumulative.begin());
  };

  // --- households & devices -----------------------------------------------
  // Sizes: median 3 (1..10, geometric-ish).
  std::vector<std::size_t> sizes(config.households, 1);
  std::size_t assigned = config.households;
  for (auto& size : sizes) {
    while (assigned < config.devices && size < 10 && gen.chance(0.62)) {
      ++size;
      ++assigned;
    }
    if (assigned >= config.devices) break;
  }
  // Distribute any remainder round-robin.
  std::size_t cursor = 0;
  while (assigned < config.devices) {
    if (sizes[cursor % sizes.size()] < 12) {
      ++sizes[cursor % sizes.size()];
      ++assigned;
    }
    ++cursor;
  }

  // One block for all `assigned` devices: grown by doubling, the vector
  // would leave megabytes of freed blocks behind in the caller's heap.
  dataset.devices.reserve(assigned);
  for (std::size_t household = 0; household < config.households; ++household) {
    const Bytes salt = gen.bytes(16);  // per-user HMAC salt (§3.3)
    const std::string owner = kFirstNames[gen.below(std::size(kFirstNames))];
    for (std::size_t d = 0; d < sizes[household]; ++d) {
      InspectorDevice device;
      device.household = household;
      device.product_index = sample_product();
      const ProductProfile& product = dataset.products[device.product_index];

      const MacAddress mac = MacAddress::from_u64(
          (0x02b000000000ull) | (gen.next_u64() & 0xffffffffffull));
      device.oui = mac.oui();
      device.device_id =
          hmac_sha256_hex(BytesView(salt), BytesView(bytes_of(mac.to_string())))
              .substr(0, 16);
      // ~15% of devices use generic hostnames that carry no vendor hint
      // (ESP modules etc.) — keeps identity inference honestly imperfect.
      device.dhcp_hostname =
          gen.chance(0.15)
              ? "ESP_" + mac.to_string_plain().substr(6)
              : product.vendor + "-" + product.category + "-" +
                    mac.to_string_plain().substr(8);

      // Crowdsourced labels are noisy: sometimes missing, sometimes terse.
      if (gen.chance(0.7)) {
        device.user_label = gen.chance(0.8)
                                ? product.vendor + " " + product.category
                                : product.category;
        if (gen.chance(0.05)) device.user_label[0] =
            static_cast<char>(std::tolower(device.user_label[0]));
      }

      // --- payloads ---------------------------------------------------
      Rng ids = gen.fork("ids" + device.device_id);
      const std::string uuid_value =
          product.constant_uuid
              ? "00000000-0000-4000-8000-0000000000aa"
              : Uuid::random(ids).to_string();
      const std::string mac_value =
          product.constant_mac ? "00:00:00:00:00:00" : mac.to_string();
      const std::string room = kRooms[ids.below(std::size(kRooms))];

      if (product.exposure.name || product.exposure.uuid) {
        std::string ssdp = "HTTP/1.1 200 OK\r\nST: upnp:rootdevice\r\n";
        if (product.exposure.uuid)
          ssdp += "USN: uuid:" + uuid_value + "::upnp:rootdevice\r\n";
        if (product.exposure.name)
          ssdp += "X-Name: " + product.category + " - " + owner + "'s " +
                  room + "\r\n";
        if (product.exposure.mac) ssdp += "X-Serial: " + mac_value + "\r\n";
        device.ssdp_responses.push_back(std::move(ssdp));
      }
      if (product.exposure.mac || product.exposure.name) {
        std::string mdns = product.vendor + "-" + product.category;
        if (product.exposure.mac)
          mdns += " " + mac_value + "._" + product.category + "._tcp.local";
        if (product.exposure.name)
          mdns += " \"" + owner + "'s " + room + "\"";
        device.mdns_responses.push_back(std::move(mdns));
      }
      dataset.devices.push_back(std::move(device));
    }
  }

  // The all-three-identifiers product (Table 2's last row: 2 Roku TVs in 2
  // households) is too rare for weighted sampling to hit reliably; pin two
  // devices in distinct households onto it.
  std::size_t all3_product = 0;
  for (std::size_t i = 0; i < dataset.products.size(); ++i)
    if (dataset.products[i].exposure.count() == 3) all3_product = i;
  std::size_t pinned = 0;
  std::set<std::size_t> pinned_households;
  for (auto& device : dataset.devices) {
    if (pinned >= 2) break;
    if (dataset.products[device.product_index].exposure.count() != 0) continue;
    if (pinned_households.count(device.household) != 0) continue;
    device.product_index = all3_product;
    const ProductProfile& product = dataset.products[all3_product];
    Rng ids = gen.fork("pin" + device.device_id);
    const std::string owner = kFirstNames[ids.below(std::size(kFirstNames))];
    const std::string uuid_value = Uuid::from_mac(
        ids, MacAddress::from_u64(0x02b000000000ull | ids.next_u64() % (1ull << 40)))
        .to_string();
    const MacAddress mac = Uuid::parse(uuid_value)->node_mac();
    device.oui = mac.oui();
    device.ssdp_responses = {
        "HTTP/1.1 200 OK\r\nST: upnp:rootdevice\r\nUSN: uuid:" + uuid_value +
        "::upnp:rootdevice\r\nX-Name: " + product.category + " - " + owner +
        "'s Room\r\nX-Serial: " + mac.to_string() + "\r\n"};
    device.mdns_responses = {product.vendor + "-" + product.category + " " +
                             mac.to_string() + " \"" + owner + "'s Room\""};
    pinned_households.insert(device.household);
    ++pinned;
  }
  return dataset;
}

}  // namespace roomnet

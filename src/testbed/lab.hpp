// Lab: the assembled MonIoTr testbed. Builds the router, all 93 catalog
// devices with their behavior profiles, companion smartphones, and the
// platform clusters; provides the idle-capture and interaction scenarios of
// §3.1 plus the AP capture tap. The free functions are the home
// construction the Lab shares with every fleet household; each caller builds
// its own devices, since MACs and RNG draw order are its own contract.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "capture/capture.hpp"
#include "netcore/rng.hpp"
#include "sim/engine.hpp"
#include "sim/host.hpp"
#include "testbed/device.hpp"

namespace roomnet {

/// The home router every household is built around.
inline constexpr MacAddress kRouterMac =
    MacAddress::from_u64(0x02a0ff000001ull);
inline constexpr Ipv4Address kRouterIp = Ipv4Address(192, 168, 10, 1);

using DeviceList = std::vector<std::unique_ptr<TestbedDevice>>;

/// Gives every statically configured device an address above the DHCP pool
/// (.200 upward, in device order).
void assign_static_ips(const DeviceList& devices);

/// Wires each platform cluster (Figure 4's hub-and-spoke shape) to one
/// coordinator: the first TLS-capable device of the platform OWNER's vendor
/// (HomeKit coordinates through an Apple device, not a Hue hub), falling
/// back to the first TLS-capable member, then the first member.
void wire_platform_clusters(const DeviceList& devices);

/// Schedules every device's start() at a uniform offset in [0, window_s),
/// drawing one offset per device from `rng` in device order.
void schedule_staggered_boot(EventLoop& loop, const DeviceList& devices,
                             Rng& rng, double window_s);

struct LabConfig {
  std::uint64_t seed = 42;
  /// Stagger window for device boot (devices DHCP at random offsets here).
  double boot_window_s = 120;
  /// When false, the capture sink is not attached: long-running scenarios
  /// can stream decoded packets via network().add_packet_tap() without
  /// retaining every frame in memory.
  bool record_frames = true;
  /// §7 mitigation ablation: apply privacy-by-design policies to every
  /// device — randomized DHCP hostnames (the GE/TiVo approach), no MAC or
  /// UUID material in mDNS instance names, no MAC serial numbers in UPnP
  /// descriptions. The ablation bench compares exposure with/without.
  bool privacy_hardening = false;
};

class Lab {
 public:
  explicit Lab(LabConfig config = {});

  [[nodiscard]] EventLoop& loop() { return loop_; }
  [[nodiscard]] Switch& network() { return net_; }
  [[nodiscard]] Router& router() { return *router_; }
  [[nodiscard]] CaptureSink& capture() { return capture_; }
  [[nodiscard]] Rng& rng() { return rng_; }

  [[nodiscard]] DeviceList& devices() { return devices_; }
  [[nodiscard]] const DeviceList& devices() const { return devices_; }
  /// First device whose "<vendor> <model>" contains `needle` (nullptr if
  /// absent).
  [[nodiscard]] TestbedDevice* find(std::string_view needle);

  /// The companion smartphones of §3.1 (a Pixel and an iPhone).
  [[nodiscard]] Host& pixel() { return *pixel_; }
  [[nodiscard]] Host& iphone() { return *iphone_; }

  /// Boots every device (staggered DHCP) — call once, then run the loop.
  void start_all();
  /// Advances virtual time.
  void run_for(SimTime duration);
  /// Idle capture: no interactions, just background behavior (§3.1's
  /// "five consecutive days of traffic without human interaction", at a
  /// configurable length).
  void run_idle(SimTime duration) { run_for(duration); }
  /// Scripted interactions: companion-phone/voice-assistant control
  /// exchanges with random devices, §3.1's 7,191-interaction experiments.
  void run_interactions(int count, SimTime spacing = SimTime::from_seconds(5));

 private:
  void interact_once(TestbedDevice& device);
  void schedule_interop();
  static void apply_privacy_hardening(DeviceBehavior& behavior);

  LabConfig config_;
  Rng rng_;
  EventLoop loop_;
  Switch net_;
  CaptureSink capture_;
  std::unique_ptr<Router> router_;
  DeviceList devices_;
  std::unique_ptr<Host> pixel_;
  std::unique_ptr<Host> iphone_;
};

}  // namespace roomnet

// The canonical pipeline stage names. RunManifest stage records, the
// profiler's StageScope brackets (and so perf.json and trace.folded), and
// the perf baseline under bench/baselines/ all key on these exact strings —
// prof_test asserts the manifest and perf.json agree on them, and
// `roomnet prof diff` fails on a stage-list mismatch. Keeping them in one
// place means a new stage (like "watch") cannot drift between the manifest
// and the cost record.
#pragma once

namespace roomnet::stages {

inline constexpr const char* kLabBoot = "lab_boot";
inline constexpr const char* kIdle = "idle";
inline constexpr const char* kInteractions = "interactions";
inline constexpr const char* kClassify = "classify";
inline constexpr const char* kScan = "scan";
inline constexpr const char* kApps = "apps";
inline constexpr const char* kCrowd = "crowd";
inline constexpr const char* kDegraded = "degraded";
inline constexpr const char* kWatch = "watch";

/// Every stage a full run can record, in pipeline order (optional stages —
/// interactions, scan, apps, crowd — appear only when configured).
inline constexpr const char* kAll[] = {
    kLabBoot, kIdle,  kInteractions, kClassify, kScan,
    kApps,    kCrowd, kDegraded,     kWatch,
};

/// Fleet-driver phases (roomnet::fleet): recorded by `roomnet fleet run`'s
/// perf.json, not by pipeline runs, so they stay out of kAll. kFleetRun
/// brackets the sharded household sweep (sim + per-household analysis on the
/// workers), kFleetReduce the sequential ordered reduction and manifest
/// folding.
inline constexpr const char* kFleetRun = "fleet_run";
inline constexpr const char* kFleetReduce = "fleet_reduce";

}  // namespace roomnet::stages

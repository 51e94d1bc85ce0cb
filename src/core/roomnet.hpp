// roomnet — umbrella header for the public API.
//
// roomnet reproduces the measurement pipeline of "In the Room Where It
// Happens: Characterizing Local Communication and Threats in Smart Homes"
// (IMC 2023) as a deterministic simulation + analysis library:
//
//   * testbed: the 93-device MonIoTr lab with calibrated vendor behaviors
//   * capture/classify: AP-vantage capture, flow assembly, two traffic
//     classifiers with the paper's documented error modes, periodicity
//   * scan: nmap/Nessus-style active scanning & vulnerability rules
//   * honeypot: taint-tagged protocol honeypots
//   * apps: 2,335-app instrumented campaign with SDK exfiltration models
//   * crowd: IoT-Inspector-style crowdsourced dataset & entropy analysis
//
// See core/pipeline.hpp for the one-call end-to-end driver, or include the
// individual module headers for fine-grained use.
#pragma once

#include "analysis/exposure.hpp"
#include "analysis/identifiers.hpp"
#include "analysis/overview.hpp"
#include "apps/audit.hpp"
#include "apps/runtime.hpp"
#include "capture/capture.hpp"
#include "capture/filter.hpp"
#include "capture/flow.hpp"
#include "classify/classifier.hpp"
#include "classify/crossval.hpp"
#include "classify/periodicity.hpp"
#include "classify/response.hpp"
#include "core/pipeline.hpp"
#include "crowd/entropy.hpp"
#include "crowd/geocode.hpp"
#include "crowd/inference.hpp"
#include "crowd/inspector.hpp"
#include "honeypot/honeypot.hpp"
#include "scan/portscan.hpp"
#include "scan/vuln.hpp"
#include "testbed/lab.hpp"

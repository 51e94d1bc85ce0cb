// Figure 3 / Appendix C.2: tshark-vs-nDPI cross-validation over local
// packets and flows. Paper: tshark labeled 76% (35 labels), nDPI 74%
// (18 labels), 16% disagreement, 7.5% unlabeled by both; characteristic
// confusions include SSDP->generic-transport (tshark), SSDP->CiscoVPN and
// EAPOL->AmazonAWS (nDPI), RTP->STUN (both).
#include "bench_util.hpp"

using namespace roomnet;
using namespace roomnet::bench;

int main() {
  header("Figure 3", "spec(tshark)-vs-deep(nDPI) classification heatmap");
  StreamedLab streamed;
  streamed.run(SimTime::from_hours(3), 400);

  const CrossValidation cv = streamed.finish().crossval;

  const double spec_pct = 100.0 * static_cast<double>(cv.spec_labeled) /
                          static_cast<double>(cv.total);
  const double deep_pct = 100.0 * static_cast<double>(cv.deep_labeled) /
                          static_cast<double>(cv.total);
  std::printf("\nitems cross-validated: %zu packets+flows "
              "(paper: 366K over 5 days)\n", cv.total);
  std::printf("  spec labeled:   %5.1f%%   (paper tshark: 76%%)\n", spec_pct);
  std::printf("  deep labeled:   %5.1f%%   (paper nDPI:   74%%)\n", deep_pct);
  std::printf("  agree:          %5.1f%%\n", 100.0 * cv.agreement_rate());
  std::printf("  disagree:       %5.1f%%   (paper: 16%%)\n",
              100.0 * cv.disagreement_rate());
  std::printf("  neither labels: %5.1f%%   (paper: 7.5%%)\n",
              100.0 * cv.unlabeled_rate());
  scalar("items", static_cast<double>(cv.total));
  scalar("spec_labeled_pct", spec_pct);
  scalar("deep_labeled_pct", deep_pct);
  scalar("agree_pct", 100.0 * cv.agreement_rate());
  scalar("disagree_pct", 100.0 * cv.disagreement_rate());
  scalar("neither_labeled_pct", 100.0 * cv.unlabeled_rate());

  // The disagreement heatmap: top (spec, deep) cells where labels differ.
  std::vector<std::pair<std::size_t, std::pair<ProtocolLabel, ProtocolLabel>>>
      cells;
  for (const auto& [key, count] : cv.matrix)
    if (key.first != key.second) cells.push_back({count, key});
  std::sort(cells.rbegin(), cells.rend());

  std::printf("\ntop disagreement cells (spec label vs deep label):\n");
  std::printf("  %-14s %-14s %8s\n", "spec(tshark)", "deep(nDPI)", "count");
  int shown = 0;
  for (const auto& [count, key] : cells) {
    if (shown++ >= 12) break;
    std::printf("  %-14s %-14s %8zu\n", to_string(key.first).c_str(),
                to_string(key.second).c_str(), count);
  }

  // Verify the paper's named confusion cells exist.
  const auto cell = [&](ProtocolLabel s, ProtocolLabel d) {
    const auto it = cv.matrix.find({s, d});
    return it == cv.matrix.end() ? std::size_t{0} : it->second;
  };
  std::printf("\nnamed confusions from Appendix C.2:\n");
  std::printf("  tshark generic-UDP while nDPI says SSDP:  %zu  (dominant "
              "tshark error)\n",
              cell(ProtocolLabel::kGenericUdp, ProtocolLabel::kSsdp));
  std::printf("  nDPI CiscoVPN on SSDP IGD searches:       %zu\n",
              cell(ProtocolLabel::kSsdp, ProtocolLabel::kCiscoVpn));
  std::printf("  nDPI AmazonAWS on Nintendo EAPOL:         %zu\n",
              cell(ProtocolLabel::kEapol, ProtocolLabel::kAmazonAws));
  std::printf("  both STUN on Google 10000-10010 RTP:      %zu (agreeing but "
              "wrong — found via controlled experiments)\n",
              cell(ProtocolLabel::kStun, ProtocolLabel::kStun));
  for (const auto& [spec, deep] :
       {std::pair{ProtocolLabel::kGenericUdp, ProtocolLabel::kSsdp},
        std::pair{ProtocolLabel::kSsdp, ProtocolLabel::kCiscoVpn},
        std::pair{ProtocolLabel::kEapol, ProtocolLabel::kAmazonAws},
        std::pair{ProtocolLabel::kStun, ProtocolLabel::kStun}})
    scalar("cell_" + to_string(spec) + "_vs_" + to_string(deep),
           static_cast<double>(cell(spec, deep)));
  return 0;
}

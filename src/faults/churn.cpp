#include "faults/churn.hpp"

#include "telemetry/metrics.hpp"

namespace roomnet::faults {

namespace {
telemetry::Counter& offline_counter() {
  static telemetry::Counter& c = telemetry::Registry::global().counter(
      "roomnet_faults_churn_offline_total");
  return c;
}
telemetry::Counter& online_counter() {
  static telemetry::Counter& c = telemetry::Registry::global().counter(
      "roomnet_faults_churn_online_total");
  return c;
}
}  // namespace

void ChurnDriver::attach(EventLoop& loop, std::vector<Host*> hosts) {
  if (!plan_->enabled() || plan_->config().churn <= 0) return;
  detach();
  loop_ = &loop;
  hosts_ = std::move(hosts);
  const SimTime period = SimTime::from_seconds(plan_->config().churn_period_s);
  handle_ = loop.schedule_periodic(period, period, [this] { tick(); });
}

void ChurnDriver::detach() {
  if (loop_ != nullptr && handle_ != 0) loop_->cancel_periodic(handle_);
  handle_ = 0;
  loop_ = nullptr;
}

void ChurnDriver::tick() {
  const SimTime downtime =
      SimTime::from_seconds(plan_->config().churn_downtime_s);
  for (Host* host : hosts_) {
    // Hosts already offline are owned by their pending recovery event.
    if (!host->online()) continue;
    if (!plan_->draw_churn()) continue;
    host->set_online(false);
    offline_counter().inc();
    log_.push_back({loop_->now(), host->mac(), host->label(), false});
    if (observer_) observer_(log_.back());
    loop_->schedule_in(downtime, [this, host] {
      host->set_online(true);
      online_counter().inc();
      log_.push_back(
          {host->loop().now(), host->mac(), host->label(), true});
      if (observer_) observer_(log_.back());
    });
  }
}

}  // namespace roomnet::faults

#include "core/experiment.h"

#include <utility>

namespace spider::core {

Experiment::Experiment(ExperimentConfig config)
    : config_(std::move(config)), world_(config_) {
  sim::Simulator& sim = world_.simulator();
  ClientDeviceConfig dev_cfg;
  dev_cfg.auto_rate = config_.client_auto_rate;
  device_ = std::make_unique<ClientDevice>(
      world_.medium(), net::MacAddress::from_index(0x00C00001u), dev_cfg);
  world_.add_rider(device_->radio(), sim::Time::zero());
  energy_ = std::make_unique<phy::EnergyMeter>(sim);
  device_->radio().attach_energy_meter(energy_.get());

  flows_ = std::make_unique<FlowManager>(sim, *device_, config_.tcp);
  flows_->install_tap();
  flows_->set_delivery_handler([this](std::int64_t bytes) {
    tracker_.record(world_.simulator().now(), bytes);
  });
  flows_->set_flow_closed_handler(
      [this](std::uint64_t flow_id) { world_.server().remove_flow(flow_id); });

  switch (config_.driver) {
    case DriverKind::kSpider:
      spider_ = std::make_unique<SpiderDriver>(sim, *device_, config_.spider);
      spider_->set_connection_handler([this](const VirtualInterface& vif) {
        flows_->open_flow(vif.bssid, vif.channel);
      });
      spider_->set_disconnection_handler(
          [this](net::Bssid bssid) { flows_->close_flow(bssid); });
      break;
    case DriverKind::kStock:
      stock_ = std::make_unique<StockDriver>(sim, *device_, config_.stock);
      stock_->set_connection_handler([this](const StockDriver::Connection& c) {
        flows_->open_flow(c.bssid, c.channel);
      });
      stock_->set_disconnection_handler(
          [this](net::Bssid bssid) { flows_->close_flow(bssid); });
      break;
  }
}

void Experiment::attach_frame_log(trace::FrameLog& log) {
  // Ring overflow streams into the trace recorder (instant events) instead
  // of vanishing; a no-op while tracing is off.
  log.stream_evictions_to(world_.simulator().telemetry().trace());
  world_.medium().set_sniffer(
      [&log](const net::Frame& f, net::ChannelId ch, sim::Time at) {
        log.record(trace::FrameRecord{at, ch, f.kind, f.src, f.dst,
                                      f.size_bytes});
      });
}

ExperimentResults Experiment::run() {
  world_.run([this] {
    if (spider_) spider_->start();
    if (stock_) stock_->start();
  });

  ExperimentResults r;
  r.traffic = tracker_.report(config_.duration);
  r.joins = spider_ ? spider_->metrics() : stock_->metrics();
  r.flows_opened = flows_->flows_opened();
  r.channel_switches = device_->switches();
  r.frames_sent = world_.medium().frames_sent();
  r.frames_lost = world_.medium().frames_lost();
  r.client_joules = energy_->total_joules();
  return r;
}

}  // namespace spider::core

#include "core/experiment.h"

#include <stdexcept>
#include <utility>

#include "telemetry/stream_exporter.h"

namespace spider::core {

Experiment::Experiment(ExperimentConfig config)
    : config_(std::move(config)), rng_(config_.seed) {
  if (config_.trace_enabled) {
    sim_.telemetry().trace().set_capacity(config_.trace_capacity);
    sim_.telemetry().trace().set_enabled(true);
  }
  medium_ = std::make_unique<phy::Medium>(sim_, rng_.fork("medium"),
                                          config_.medium);
  server_ = std::make_unique<tcp::ContentServer>(sim_, config_.tcp);

  std::size_t index = 0;
  for (const auto& desc : config_.aps) {
    backhaul::ApHostConfig host_cfg;
    host_cfg.ap = config_.ap_mac;
    host_cfg.ap.ssid = desc.ssid;
    host_cfg.ap.channel = desc.channel;
    host_cfg.dhcp.offer_delay_min = desc.dhcp_offer_min;
    host_cfg.dhcp.offer_delay_max = desc.dhcp_offer_max;
    host_cfg.dhcp.responsive = !desc.dud;
    host_cfg.backhaul.rate_bps = desc.backhaul_bps;
    host_cfg.backhaul.latency = config_.backhaul_latency;
    ap_hosts_.push_back(std::make_unique<backhaul::ApHost>(
        *medium_, *server_, desc.mac, desc.position, desc.subnet,
        rng_.fork(index), host_cfg));
    ap_hosts_.back()->start();
    ++index;
  }

  ClientDeviceConfig dev_cfg;
  dev_cfg.auto_rate = config_.client_auto_rate;
  device_ = std::make_unique<ClientDevice>(
      *medium_, net::MacAddress::from_index(0x00C00001u), dev_cfg);
  device_->set_position(config_.vehicle.position(sim::Time::zero()));
  energy_ = std::make_unique<phy::EnergyMeter>(sim_);
  device_->radio().attach_energy_meter(energy_.get());

  flows_ = std::make_unique<FlowManager>(sim_, *device_, config_.tcp);
  flows_->install_tap();
  flows_->set_delivery_handler(
      [this](std::int64_t bytes) { tracker_.record(sim_.now(), bytes); });
  flows_->set_flow_closed_handler(
      [this](std::uint64_t flow_id) { server_->remove_flow(flow_id); });

  switch (config_.driver) {
    case DriverKind::kSpider:
      spider_ = std::make_unique<SpiderDriver>(sim_, *device_, config_.spider);
      spider_->set_connection_handler([this](const VirtualInterface& vif) {
        flows_->open_flow(vif.bssid, vif.channel);
      });
      spider_->set_disconnection_handler(
          [this](net::Bssid bssid) { flows_->close_flow(bssid); });
      break;
    case DriverKind::kStock:
      stock_ = std::make_unique<StockDriver>(sim_, *device_, config_.stock);
      stock_->set_connection_handler([this](const StockDriver::Connection& c) {
        flows_->open_flow(c.bssid, c.channel);
      });
      stock_->set_disconnection_handler(
          [this](net::Bssid bssid) { flows_->close_flow(bssid); });
      break;
  }

  if (config_.stream != nullptr) {
    stream_ = std::make_unique<telemetry::StreamSession>(
        *config_.stream, sim_.telemetry(), config_.stream_run_tag,
        config_.stream_cadence.us(), config_.stream_ring_capacity);
    stream_->begin(sim_.now().us(), config_.seed);
  }
}

Experiment::~Experiment() = default;

void Experiment::attach_frame_log(trace::FrameLog& log) {
  // Ring overflow streams into the trace recorder (instant events) instead
  // of vanishing; a no-op while tracing is off.
  log.stream_evictions_to(sim_.telemetry().trace());
  medium_->set_sniffer(
      [&log](const net::Frame& f, net::ChannelId ch, sim::Time at) {
        log.record(trace::FrameRecord{at, ch, f.kind, f.src, f.dst,
                                      f.size_bytes});
      });
}

void Experiment::update_position() {
  // Same batched entry point the fleet uses — a one-element batch is just
  // set_position — so the two harnesses exercise one mobility code path.
  const phy::RadioMove move{&device_->radio(),
                            config_.vehicle.position(sim_.now())};
  medium_->move_radios({&move, 1});
  // Stop the recurring tick at the horizon (see FleetExperiment).
  if (sim_.now() + config_.position_update < config_.duration) {
    sim_.post_after(config_.position_update, [this] { update_position(); });
  }
}

ExperimentResults Experiment::run() {
  if (ran_) throw std::logic_error("Experiment::run: already ran");
  ran_ = true;

  if (spider_) spider_->start();
  if (stock_) stock_->start();
  update_position();

  sim_.run_until(config_.duration);
  if (stream_) {
    stream_->finish(sim_.now().us(), sim_.digest(), sim_.events_executed());
  }

  ExperimentResults r;
  r.traffic = tracker_.report(config_.duration);
  r.joins = spider_ ? spider_->metrics() : stock_->metrics();
  r.flows_opened = flows_->flows_opened();
  r.channel_switches = device_->switches();
  r.frames_sent = medium_->frames_sent();
  r.frames_lost = medium_->frames_lost();
  r.client_joules = energy_->total_joules();
  return r;
}

}  // namespace spider::core

// Spider — the paper's contribution (Section 3).
//
// A virtualized-Wi-Fi driver for mobile clients that schedules the physical
// card among *channels* rather than APs:
//   * channel-based scheduling: a static schedule of (channel, fraction)
//     slices over a period D; a single-slice schedule never leaves its
//     channel (the throughput-optimal configuration at vehicular speed);
//   * multi-AP on one channel: every AP on the current channel is talked to
//     simultaneously through per-AP virtual interfaces (up to 7, matching
//     the evaluation), with no switching cost between them;
//   * PSM parking: live connections on a channel being left are parked with
//     null-data PM=1 and woken with PS-Poll (ClientDevice does the dance);
//   * join management: per-AP association + DHCP state machines with
//     configurable (reduced) timers; join traffic is never deferred to a
//     queue — if the radio is elsewhere the message simply isn't sent,
//     which is exactly why fractional schedules hurt joins;
//   * AP selection by join history (greedy heuristic; exact selection is
//     NP-hard), with RSSI and unseen-AP priors as tie-breakers.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/ap_history.h"
#include "core/client_device.h"
#include "core/metrics.h"
#include "dhcpd/dhcp_client.h"
#include "mac/client_session.h"
#include "phy/channel.h"
#include "sim/simulator.h"
#include "trace/stats.h"

namespace spider::core {

enum class ApSelectionPolicy : std::uint8_t {
  kJoinHistory,        // Spider's heuristic
  kBestRssi,           // strongest signal (stock behaviour)
  kOfferedBandwidth,   // FatVAP-style (needs an oracle; see ablation bench)
};

struct ChannelSlice {
  net::ChannelId channel = 1;
  double fraction = 1.0;
};

struct SpiderConfig {
  // Slices are visited round-robin each period; fractions are normalized.
  std::vector<ChannelSlice> schedule{{1, 1.0}};
  sim::Time period = sim::Time::millis(600);
  int max_interfaces = 7;
  bool multi_ap = true;  // false: at most one virtual interface (config 1/4)
  ApSelectionPolicy policy = ApSelectionPolicy::kJoinHistory;
  mac::ClientSessionConfig session{.link_timeout = sim::Time::millis(100)};
  dhcpd::DhcpClientConfig dhcp = dhcpd::reduced_dhcp_timers(sim::Time::millis(200));
  // Give up on an AP after this much *on-channel* silence.
  sim::Time link_loss_timeout = sim::Time::millis(1500);
  // Abandon a join that has not produced a lease within this budget (dud or
  // hopelessly slow AP); the failure is fed back into the history database.
  sim::Time join_give_up = sim::Time::seconds(8);
  // Soft-handoff single-AP mode (the "Multiple-channel, Single-AP"
  // configuration): rotate the schedule only while nothing is connected;
  // once a connection is live, camp on its channel until it dies.
  bool camp_while_connected = false;

  // Dynamic channel selection (the paper's Section 4.8 future work):
  // stay single-channel for throughput, but periodically make a brief scan
  // excursion over the orthogonal channels and re-camp wherever the
  // (join-history-weighted) AP supply is best. Requires a single-slice
  // schedule; the slice's channel is just the starting point.
  bool dynamic_channel = false;

  // Lease caching (Section 2.1.2: "techniques such as caching dhcp leases
  // ... are essential for multi-AP systems"): on re-encountering an AP we
  // hold an unexpired lease for, skip discovery and INIT-REBOOT straight
  // to REQUEST. Off by default to match the paper's evaluated behaviour.
  bool cache_leases = false;
};

// One virtual interface = one AP relationship.
struct VirtualInterface {
  enum class State : std::uint8_t { kAssociating, kDhcp, kConnected };

  net::Bssid bssid;
  net::ChannelId channel = 0;
  State state = State::kAssociating;
  std::unique_ptr<mac::ClientSession> session;
  std::unique_ptr<dhcpd::DhcpClient> dhcp;
  // Trace lane for this interface's scan/auth/assoc/dhcp/join spans, open
  // while the interface lives (0 while tracing is off).
  std::uint32_t trace_track = 0;
  sim::Time join_started = sim::Time::zero();
  sim::Time connected_at = sim::Time::zero();
  // Cumulative on-channel dwell of this iface's channel when the AP was
  // last heard (drives on-air link-loss detection).
  sim::Time airtime_at_last_heard = sim::Time::zero();
};

class SpiderDriver {
 public:
  using ConnectionHandler = std::function<void(const VirtualInterface&)>;
  using DisconnectionHandler = std::function<void(net::Bssid)>;

  SpiderDriver(sim::Simulator& simulator, ClientDevice& device,
               SpiderConfig config = {});
  ~SpiderDriver();

  SpiderDriver(const SpiderDriver&) = delete;
  SpiderDriver& operator=(const SpiderDriver&) = delete;

  void start();

  void set_connection_handler(ConnectionHandler fn) { on_connected_ = std::move(fn); }
  void set_disconnection_handler(DisconnectionHandler fn) {
    on_disconnected_ = std::move(fn);
  }

  const SpiderConfig& config() const { return config_; }
  const JoinMetrics& metrics() const { return metrics_; }
  const ApHistoryDb& history() const { return history_; }
  ClientDevice& device() { return device_; }

  std::size_t interface_count() const { return interfaces_.size(); }
  std::size_t connected_count() const;
  const VirtualInterface* find_interface(net::Bssid bssid) const;

  // Cumulative radio dwell on `channel` so far (exposed for tests).
  sim::Time channel_airtime(net::ChannelId channel) const;

  // Latency of the most recent channel switch, as modeled by the device
  // (Table 1 micro-benchmark).
  sim::Time last_switch_latency() const { return last_switch_latency_; }

  // Dynamic mode: the channel currently camped on, and how often the
  // evaluator decided to move home.
  net::ChannelId home_channel() const;
  std::uint64_t recamps() const { return recamps_; }

  // Physical channel switches the scheduler has requested so far (published
  // as driver.schedule_switches).
  std::uint64_t schedule_switches() const { return schedule_switches_; }

  // History-weighted AP supply on a channel, from fresh scan results
  // (exposed for tests and the dynamic-channel ablation).
  double channel_utility(net::ChannelId channel) const;

 private:
  void rotate_schedule(std::size_t slice_index);
  void on_arrival(net::ChannelId channel);
  void selection_tick();
  void channel_eval_tick();
  void scan_excursion_step();
  void finish_channel_eval();
  void create_interface(const ScanEntry& entry);
  void destroy_interface(net::Bssid bssid, bool lost);
  // Destroys, in bssid order, every interface `doomed` selects.
  template <typename Pred>
  void destroy_interfaces_if(Pred doomed, bool lost);
  void on_associated(VirtualInterface& vif);
  void on_dhcp_event(VirtualInterface& vif, dhcpd::DhcpEvent event);
  bool scheduled_channel(net::ChannelId channel) const;
  void note_heard(VirtualInterface& vif);
  void accumulate_airtime();
  // This driver's dwell lane for channel `slot`, opened (named from `since`)
  // on first use. Call only while tracing is on.
  std::uint32_t channel_lane(std::size_t slot, sim::Time since);
  void publish_metrics(telemetry::Registry& registry);

  sim::Simulator& sim_;
  ClientDevice& device_;
  SpiderConfig config_;
  JoinMetrics metrics_;
  ApHistoryDb history_;
  ConnectionHandler on_connected_;
  DisconnectionHandler on_disconnected_;

  // Keyed by bssid and walked in key order: reaps, PSM wake-ups, camping
  // and teardown all replay in bssid order with no sort at the walk.
  std::map<net::Bssid, std::unique_ptr<VirtualInterface>> interfaces_;
  std::unordered_map<net::Bssid, dhcpd::Lease> lease_cache_;
  std::unordered_map<net::ChannelId, sim::Time> airtime_;
  net::ChannelId dwell_channel_ = 0;      // channel being accounted for
  sim::Time dwell_since_ = sim::Time::zero();
  sim::TimerHandle schedule_timer_;
  sim::TimerHandle selection_timer_;
  sim::TimerHandle eval_timer_;
  sim::Time last_switch_latency_ = sim::Time::zero();
  std::uint64_t recamps_ = 0;
  std::uint64_t schedule_switches_ = 0;
  bool excursion_active_ = false;
  bool started_ = false;
  // Scratch buffer reused across eval ticks (excursions never overlap, so
  // one suffices); member so the steady-state schedule loop does not
  // allocate.
  std::vector<net::ChannelId> excursion_remaining_;

  // Telemetry plumbing: deltas already folded into the shared driver.*
  // metrics (several drivers may share one world), this driver's dwell lane
  // per channel slot (0 = not open), and its collector registration.
  struct Published {
    std::uint64_t join_attempts = 0;
    std::uint64_t associations = 0;
    std::uint64_t joins = 0;
    std::uint64_t dhcp_attempts = 0;
    std::uint64_t dhcp_attempt_failures = 0;
    std::uint64_t dhcp_failed_joins = 0;
    std::uint64_t recamps = 0;
    std::uint64_t schedule_switches = 0;
  } published_;
  std::array<std::uint64_t, phy::kChannelSlots> published_dwell_us_{};
  std::array<std::uint32_t, phy::kChannelSlots> channel_lanes_{};
  telemetry::Hub::CollectorId collector_id_ = 0;
};

}  // namespace spider::core

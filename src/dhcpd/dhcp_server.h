// AP-side DHCP server.
//
// Each open AP runs its own server (urban APs are in disjoint administrative
// domains — the paper's reason cross-AP DHCP coordination is impractical).
// The server's response latency is the knob that produces the paper's
// [betamin, betamax] join-time spread: commodity gateways take anywhere from
// ~100 ms to multiple seconds to produce an OFFER.
//
// Responses are sent through AccessPoint::send_to_client(), so they are
// subject to the same delivery rules as all downlink traffic: a client that
// has switched away (and could not announce PSM, because a joining interface
// has no lease yet and never parks) simply misses them.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "mac/access_point.h"
#include "net/addr.h"
#include "net/frame.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace spider::dhcpd {

struct DhcpServerConfig {
  // OFFER latency (dominates the join time beta in the paper's model).
  sim::Time offer_delay_min = sim::Time::millis(100);
  sim::Time offer_delay_max = sim::Time::millis(2000);
  // ACK latency (usually quick once the lease is staged).
  sim::Time ack_delay_min = sim::Time::millis(20);
  sim::Time ack_delay_max = sim::Time::millis(200);
  std::uint32_t pool_size = 253;  // addresses .2 .. .254
  // When false the server silently ignores all DHCP traffic — the "dud" AP
  // that associates clients but never yields a usable lease.
  bool responsive = true;
};

class DhcpServer {
 public:
  DhcpServer(sim::Simulator& simulator, mac::AccessPoint& ap,
             net::Ipv4Address server_ip, sim::Rng rng,
             DhcpServerConfig config = {});

  DhcpServer(const DhcpServer&) = delete;
  DhcpServer& operator=(const DhcpServer&) = delete;

  // Feed DHCP data frames here (the AP host demultiplexes its data sink).
  void handle_frame(const net::Frame& frame);

  net::Ipv4Address server_ip() const { return server_ip_; }
  std::size_t active_leases() const { return leases_.size(); }
  std::uint64_t offers_sent() const { return offers_sent_; }
  std::uint64_t acks_sent() const { return acks_sent_; }
  std::uint64_t pool_exhaustions() const { return pool_exhaustions_; }

 private:
  sim::Time sample(sim::Time lo, sim::Time hi);
  net::Ipv4Address allocate(net::MacAddress client);
  void send_later(net::MacAddress client, net::DhcpMessage msg, sim::Time lo,
                  sim::Time hi);

  sim::Simulator& sim_;
  mac::AccessPoint& ap_;
  // Lifetime guard for delayed-response lambdas (see AccessPoint::alive_).
  std::shared_ptr<char> alive_ = std::make_shared<char>(0);
  net::Ipv4Address server_ip_;
  sim::Rng rng_;
  DhcpServerConfig config_;
  std::unordered_map<net::MacAddress, net::Ipv4Address> leases_;
  std::uint32_t next_host_ = 2;
  std::uint64_t offers_sent_ = 0;
  std::uint64_t acks_sent_ = 0;
  std::uint64_t pool_exhaustions_ = 0;
};

}  // namespace spider::dhcpd

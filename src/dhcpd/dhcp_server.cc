#include "dhcpd/dhcp_server.h"

#include <utility>
#include <variant>

#include "core/check.h"

namespace spider::dhcpd {
namespace {

// Lease length granted in every OFFER and ACK.
constexpr sim::Time kLeaseDuration = sim::Time::seconds(3600);

}  // namespace

DhcpServer::DhcpServer(sim::Simulator& simulator, mac::AccessPoint& ap,
                       net::Ipv4Address server_ip, sim::Rng rng,
                       DhcpServerConfig config)
    : sim_(simulator),
      ap_(ap),
      server_ip_(server_ip),
      rng_(std::move(rng)),
      config_(config) {}

sim::Time DhcpServer::sample(sim::Time lo, sim::Time hi) {
  if (hi <= lo) return lo;
  return lo + sim::Time::micros(rng_.uniform_int(0, (hi - lo).us()));
}

net::Ipv4Address DhcpServer::allocate(net::MacAddress client) {
  if (auto it = leases_.find(client); it != leases_.end()) return it->second;
  if (leases_.size() >= config_.pool_size) {
    ++pool_exhaustions_;
    return net::Ipv4Address{};
  }
  // Derive the subnet from the server address; hand out sequential hosts.
  const auto ip = net::Ipv4Address{(server_ip_.value() & 0xFFFFFF00u) |
                                   (next_host_++ & 0xFFu)};
  leases_.emplace(client, ip);
  // Lease-table consistency: the pool never overruns, the sequential
  // allocator and the table never drift apart, and every handed-out address
  // sits inside the server's /24 without colliding with .0/.1/.255.
  SPIDER_CHECK(leases_.size() <= config_.pool_size)
      << "lease table overran pool of " << config_.pool_size;
  SPIDER_CHECK(next_host_ == 2 + leases_.size())
      << "allocator cursor " << next_host_ << " vs " << leases_.size()
      << " leases";
  SPIDER_DCHECK((ip.value() & 0xFFFFFF00u) ==
                (server_ip_.value() & 0xFFFFFF00u))
      << "allocated " << ip.to_string() << " outside subnet of "
      << server_ip_.to_string();
  SPIDER_DCHECK((ip.value() & 0xFFu) >= 2 && (ip.value() & 0xFFu) <= 254)
      << "allocated reserved host byte in " << ip.to_string();
  return ip;
}

void DhcpServer::send_later(net::MacAddress client, net::DhcpMessage msg,
                            sim::Time lo, sim::Time hi) {
  sim_.post_after(
      sample(lo, hi),
      [this, alive = std::weak_ptr<char>(alive_), client, msg] {
        if (alive.expired()) return;
        ap_.send_to_client(client, net::make_dhcp_frame(ap_.address(), client,
                                                        ap_.address(), msg));
      });
}

void DhcpServer::handle_frame(const net::Frame& frame) {
  if (!config_.responsive) return;
  const auto* msg = frame.payload.get_if<net::DhcpMessage>();
  if (msg == nullptr) return;

  switch (msg->kind) {
    case net::DhcpMessage::Kind::kDiscover: {
      const auto ip = allocate(frame.src);
      if (ip.is_null()) return;  // pool exhausted: silence, client retries
      net::DhcpMessage offer;
      offer.kind = net::DhcpMessage::Kind::kOffer;
      offer.transaction_id = msg->transaction_id;
      offer.client_mac = frame.src;
      offer.offered_ip = ip;
      offer.server_ip = server_ip_;
      offer.lease_duration = kLeaseDuration;
      ++offers_sent_;
      send_later(frame.src, offer, config_.offer_delay_min,
                 config_.offer_delay_max);
      break;
    }

    case net::DhcpMessage::Kind::kRequest: {
      auto it = leases_.find(frame.src);
      net::DhcpMessage reply;
      reply.transaction_id = msg->transaction_id;
      reply.client_mac = frame.src;
      reply.server_ip = server_ip_;
      if (it == leases_.end() || it->second != msg->offered_ip) {
        reply.kind = net::DhcpMessage::Kind::kNak;
      } else {
        reply.kind = net::DhcpMessage::Kind::kAck;
        reply.offered_ip = it->second;
        reply.lease_duration = kLeaseDuration;
        ++acks_sent_;
      }
      send_later(frame.src, reply, config_.ack_delay_min,
                 config_.ack_delay_max);
      break;
    }

    case net::DhcpMessage::Kind::kOffer:
    case net::DhcpMessage::Kind::kAck:
    case net::DhcpMessage::Kind::kNak:
      break;  // server-originated kinds; ignore if echoed back
  }
}

}  // namespace spider::dhcpd

// Wire representations.
//
// The simulator never serializes bytes; frames are value types whose
// `size_bytes` field drives airtime and queueing. Payloads are closed
// variants so every layer can switch exhaustively.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <variant>

#include "net/addr.h"
#include "sim/time.h"

namespace spider::net {

// 802.11b/g channel number (1..11 in the paper's deployments).
using ChannelId = int;

// --- 802.11 frame kinds -----------------------------------------------------

enum class FrameKind : std::uint8_t {
  kBeacon,
  kProbeRequest,
  kProbeResponse,
  kAuthRequest,    // open-system authentication, step 1
  kAuthResponse,   // step 2
  kAssocRequest,
  kAssocResponse,
  kDisassoc,
  kData,           // carries a DHCP message or a TCP segment
  kNullData,       // empty data frame used to flag PSM transitions
  kPsPoll,         // power-save poll: "release one buffered frame"
};

const char* to_string(FrameKind kind);

// Representative on-air sizes (bytes, including MAC header + FCS).
inline constexpr int kBeaconBytes = 105;
inline constexpr int kProbeRequestBytes = 52;
inline constexpr int kProbeResponseBytes = 105;
inline constexpr int kAuthBytes = 30;
inline constexpr int kAssocRequestBytes = 62;
inline constexpr int kAssocResponseBytes = 40;
inline constexpr int kDisassocBytes = 26;
inline constexpr int kNullDataBytes = 28;
inline constexpr int kPsPollBytes = 20;
inline constexpr int kMacDataOverheadBytes = 34;
inline constexpr int kDhcpMessageBytes = 342;   // typical DHCP over UDP/IP
inline constexpr int kTcpIpHeaderBytes = 40;
inline constexpr int kTcpMssBytes = 1460;

// --- Payloads ----------------------------------------------------------------

// Carried by beacons and probe responses.
struct BeaconInfo {
  std::string ssid;
  ChannelId channel = 0;
  bool open = true;  // no encryption; Spider only uses open APs
};

struct DhcpMessage {
  enum class Kind : std::uint8_t { kDiscover, kOffer, kRequest, kAck, kNak };
  Kind kind = Kind::kDiscover;
  std::uint32_t transaction_id = 0;
  MacAddress client_mac;
  Ipv4Address offered_ip;   // set in Offer/Request/Ack
  Ipv4Address server_ip;    // set in Offer/Request/Ack
  sim::Time lease_duration = sim::Time::zero();
};

const char* to_string(DhcpMessage::Kind kind);

// A (simplified) TCP segment with IP addressing folded in. `flow_id` names
// the connection; seq/ack count bytes as in real TCP.
struct TcpSegment {
  std::uint64_t flow_id = 0;
  bool from_sender = true;    // sender->receiver (data) vs. reverse (acks)
  std::int64_t seq = 0;       // index of first payload byte
  std::int64_t payload_bytes = 0;
  std::int64_t ack = -1;      // cumulative: next byte expected (-1: none)
  bool syn = false;
  bool fin = false;
  // RFC 1323-style timestamps: senders stamp `ts`, receivers echo it back in
  // `ts_echo` so RTT samples survive retransmission ambiguity.
  sim::Time ts = sim::Time::zero();
  sim::Time ts_echo = sim::Time::zero();
  bool has_ts_echo = false;
  int size_bytes() const {
    return kTcpIpHeaderBytes + static_cast<int>(payload_bytes);
  }
};

using FramePayload =
    std::variant<std::monostate, BeaconInfo, DhcpMessage, TcpSegment>;

// Immutable, refcounted payload storage. Frames are copied freely — into the
// medium's delivery closure, AP power-save buffers, retransmit paths — and
// before this wrapper every copy deep-copied the variant (including the
// beacon SSID string). Payloads are write-once at construction, so copies
// now just bump a refcount; payload-less frames never allocate at all.
class SharedPayload {
 public:
  SharedPayload() = default;  // monostate, no allocation
  SharedPayload(BeaconInfo info)  // NOLINT(google-explicit-constructor)
      : data_(std::make_shared<const FramePayload>(std::move(info))) {}
  SharedPayload(DhcpMessage msg)  // NOLINT(google-explicit-constructor)
      : data_(std::make_shared<const FramePayload>(msg)) {}
  SharedPayload(TcpSegment segment)  // NOLINT(google-explicit-constructor)
      : data_(std::make_shared<const FramePayload>(segment)) {}

  const FramePayload& get() const { return data_ ? *data_ : empty(); }
  template <typename T>
  const T* get_if() const {
    return std::get_if<T>(&get());
  }
  template <typename T>
  bool holds() const {
    return std::holds_alternative<T>(get());
  }

  // Identity of the shared storage (nullptr for monostate). Tests use this
  // to assert interning — e.g. that every beacon an AP emits aliases one
  // allocation instead of minting a fresh payload per tick.
  const FramePayload* storage() const { return data_.get(); }

 private:
  static const FramePayload& empty();  // shared monostate singleton

  std::shared_ptr<const FramePayload> data_;
};

// --- Frame -------------------------------------------------------------------

struct Frame {
  FrameKind kind = FrameKind::kData;
  MacAddress src;
  MacAddress dst;            // broadcast() for beacons / probe requests
  Bssid bssid;               // the AP the frame belongs to (null for probes)
  bool power_mgmt = false;   // PM bit: "I am entering power-save mode"
  int size_bytes = 0;
  SharedPayload payload;

  bool is_management() const {
    return kind != FrameKind::kData && kind != FrameKind::kNullData &&
           kind != FrameKind::kPsPoll;
  }
};

// Convenience constructors keep size accounting in one place.
//
// Beacons, probe responses and auth/assoc grants carry the AP's capability
// payload (SSID, channel, open), which `info` must hold as a BeaconInfo. APs
// build it once and pass the same refcounted storage to every frame, so the
// steady state allocates no payload (a BeaconInfo argument converts to a
// fresh SharedPayload, which is what tests use).
Frame make_beacon(MacAddress ap, SharedPayload info);
Frame make_probe_request(MacAddress client);
Frame make_probe_response(MacAddress ap, MacAddress client, SharedPayload info);
Frame make_auth_request(MacAddress client, Bssid ap);
Frame make_auth_response(Bssid ap, MacAddress client, SharedPayload info);
Frame make_assoc_request(MacAddress client, Bssid ap);
Frame make_assoc_response(Bssid ap, MacAddress client, SharedPayload info);
Frame make_disassoc(MacAddress src, MacAddress dst, Bssid ap);
Frame make_null_data(MacAddress client, Bssid ap, bool power_mgmt);
Frame make_ps_poll(MacAddress client, Bssid ap);
Frame make_dhcp_frame(MacAddress src, MacAddress dst, Bssid ap,
                      DhcpMessage msg);
Frame make_tcp_frame(MacAddress src, MacAddress dst, Bssid ap,
                     TcpSegment segment);

}  // namespace spider::net

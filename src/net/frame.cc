#include "net/frame.h"

#include "core/check.h"

namespace spider::net {

const FramePayload& SharedPayload::empty() {
  static const FramePayload kMonostate{};
  return kMonostate;
}

const char* to_string(FrameKind kind) {
  switch (kind) {
    case FrameKind::kBeacon: return "Beacon";
    case FrameKind::kProbeRequest: return "ProbeRequest";
    case FrameKind::kProbeResponse: return "ProbeResponse";
    case FrameKind::kAuthRequest: return "AuthRequest";
    case FrameKind::kAuthResponse: return "AuthResponse";
    case FrameKind::kAssocRequest: return "AssocRequest";
    case FrameKind::kAssocResponse: return "AssocResponse";
    case FrameKind::kDisassoc: return "Disassoc";
    case FrameKind::kData: return "Data";
    case FrameKind::kNullData: return "NullData";
    case FrameKind::kPsPoll: return "PsPoll";
  }
  return "?";
}

const char* to_string(DhcpMessage::Kind kind) {
  switch (kind) {
    case DhcpMessage::Kind::kDiscover: return "Discover";
    case DhcpMessage::Kind::kOffer: return "Offer";
    case DhcpMessage::Kind::kRequest: return "Request";
    case DhcpMessage::Kind::kAck: return "Ack";
    case DhcpMessage::Kind::kNak: return "Nak";
  }
  return "?";
}

Frame make_probe_request(MacAddress client) {
  return Frame{FrameKind::kProbeRequest, client, MacAddress::broadcast(),
               Bssid{}, false, kProbeRequestBytes, {}};
}

Frame make_beacon(MacAddress ap, SharedPayload info) {
  SPIDER_DCHECK(info.holds<BeaconInfo>())
      << "beacon payload does not hold a BeaconInfo";
  return Frame{FrameKind::kBeacon, ap, MacAddress::broadcast(), ap, false,
               kBeaconBytes, std::move(info)};
}

Frame make_probe_response(MacAddress ap, MacAddress client,
                          SharedPayload info) {
  SPIDER_DCHECK(info.holds<BeaconInfo>())
      << "probe-response payload does not hold a BeaconInfo";
  return Frame{FrameKind::kProbeResponse, ap, client, ap, false,
               kProbeResponseBytes, std::move(info)};
}

Frame make_auth_request(MacAddress client, Bssid ap) {
  return Frame{FrameKind::kAuthRequest, client, ap, ap, false, kAuthBytes, {}};
}

Frame make_assoc_request(MacAddress client, Bssid ap) {
  return Frame{FrameKind::kAssocRequest, client, ap, ap, false,
               kAssocRequestBytes, {}};
}

Frame make_auth_response(Bssid ap, MacAddress client, SharedPayload info) {
  SPIDER_DCHECK(info.holds<BeaconInfo>())
      << "auth-response payload does not hold a BeaconInfo";
  return Frame{FrameKind::kAuthResponse, ap, client, ap, false, kAuthBytes,
               std::move(info)};
}

Frame make_assoc_response(Bssid ap, MacAddress client, SharedPayload info) {
  SPIDER_DCHECK(info.holds<BeaconInfo>())
      << "assoc-response payload does not hold a BeaconInfo";
  return Frame{FrameKind::kAssocResponse, ap, client, ap, false,
               kAssocResponseBytes, std::move(info)};
}

Frame make_disassoc(MacAddress src, MacAddress dst, Bssid ap) {
  return Frame{FrameKind::kDisassoc, src, dst, ap, false, kDisassocBytes, {}};
}

Frame make_null_data(MacAddress client, Bssid ap, bool power_mgmt) {
  return Frame{FrameKind::kNullData, client, ap, ap, power_mgmt,
               kNullDataBytes, {}};
}

Frame make_ps_poll(MacAddress client, Bssid ap) {
  return Frame{FrameKind::kPsPoll, client, ap, ap, false, kPsPollBytes, {}};
}

Frame make_dhcp_frame(MacAddress src, MacAddress dst, Bssid ap,
                      DhcpMessage msg) {
  return Frame{FrameKind::kData, src, dst, ap, false,
               kMacDataOverheadBytes + kDhcpMessageBytes, msg};
}

Frame make_tcp_frame(MacAddress src, MacAddress dst, Bssid ap,
                     TcpSegment segment) {
  const int size = kMacDataOverheadBytes + segment.size_bytes();
  return Frame{FrameKind::kData, src, dst, ap, false, size, segment};
}

}  // namespace spider::net

#include "net/addr.h"
#include "net/frame.h"

#include <gtest/gtest.h>

#include <unordered_set>
#include <variant>

namespace spider::net {
namespace {

TEST(MacAddress, Formatting) {
  EXPECT_EQ(MacAddress{0x0123456789ABULL}.to_string(), "01:23:45:67:89:ab");
  EXPECT_EQ(MacAddress{}.to_string(), "00:00:00:00:00:00");
}

TEST(MacAddress, BroadcastAndNull) {
  EXPECT_TRUE(MacAddress::broadcast().is_broadcast());
  EXPECT_FALSE(MacAddress::broadcast().is_null());
  EXPECT_TRUE(MacAddress{}.is_null());
  EXPECT_EQ(MacAddress::broadcast().to_string(), "ff:ff:ff:ff:ff:ff");
}

TEST(MacAddress, FromIndexIsLocallyAdministeredAndUnique) {
  const auto a = MacAddress::from_index(1);
  const auto b = MacAddress::from_index(2);
  EXPECT_NE(a, b);
  EXPECT_EQ(a.value() >> 40, 0x02u);
}

TEST(MacAddress, MasksTo48Bits) {
  EXPECT_EQ(MacAddress{0xFFFF123456789ABCULL}.value(), 0x123456789ABCULL);
}

TEST(MacAddress, Hashable) {
  std::unordered_set<MacAddress> set;
  set.insert(MacAddress::from_index(1));
  set.insert(MacAddress::from_index(1));
  set.insert(MacAddress::from_index(2));
  EXPECT_EQ(set.size(), 2u);
}

TEST(Ipv4Address, Formatting) {
  EXPECT_EQ(Ipv4Address(10, 0, 3, 17).to_string(), "10.0.3.17");
  EXPECT_EQ(Ipv4Address{}.to_string(), "0.0.0.0");
  EXPECT_TRUE(Ipv4Address{}.is_null());
}

TEST(Ipv4Address, OctetPacking) {
  EXPECT_EQ(Ipv4Address(192, 168, 1, 1).value(), 0xC0A80101u);
}

TEST(Frame, BeaconIsBroadcastWithInfo) {
  const auto ap = MacAddress::from_index(9);
  const Frame f = make_beacon(ap, BeaconInfo{"coffee", 6, true});
  EXPECT_EQ(f.kind, FrameKind::kBeacon);
  EXPECT_TRUE(f.dst.is_broadcast());
  EXPECT_EQ(f.bssid, ap);
  EXPECT_EQ(f.size_bytes, kBeaconBytes);
  const auto* info = f.payload.get_if<BeaconInfo>();
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->ssid, "coffee");
  EXPECT_EQ(info->channel, 6);
}

TEST(Frame, ManagementClassification) {
  const auto a = MacAddress::from_index(1);
  const auto b = MacAddress::from_index(2);
  EXPECT_TRUE(make_auth_request(a, b).is_management());
  EXPECT_TRUE(
      make_assoc_response(b, a, BeaconInfo{"coffee", 6, true}).is_management());
  EXPECT_TRUE(make_probe_request(a).is_management());
  EXPECT_FALSE(make_null_data(a, b, true).is_management());
  EXPECT_FALSE(make_ps_poll(a, b).is_management());
}

TEST(Frame, NullDataCarriesPowerBit) {
  const auto a = MacAddress::from_index(1);
  const auto b = MacAddress::from_index(2);
  EXPECT_TRUE(make_null_data(a, b, true).power_mgmt);
  EXPECT_FALSE(make_null_data(a, b, false).power_mgmt);
}

TEST(Frame, DhcpFrameSizeIncludesOverhead) {
  const auto a = MacAddress::from_index(1);
  const auto b = MacAddress::from_index(2);
  DhcpMessage msg;
  msg.kind = DhcpMessage::Kind::kDiscover;
  const Frame f = make_dhcp_frame(a, b, b, msg);
  EXPECT_EQ(f.kind, FrameKind::kData);
  EXPECT_EQ(f.size_bytes, kMacDataOverheadBytes + kDhcpMessageBytes);
  EXPECT_TRUE(f.payload.holds<DhcpMessage>());
}

TEST(Frame, TcpFrameSizeTracksPayload) {
  const auto a = MacAddress::from_index(1);
  const auto b = MacAddress::from_index(2);
  TcpSegment seg;
  seg.payload_bytes = 1000;
  const Frame f = make_tcp_frame(a, b, b, seg);
  EXPECT_EQ(f.size_bytes, kMacDataOverheadBytes + kTcpIpHeaderBytes + 1000);
}

TEST(TcpSegment, SizeForPureAck) {
  TcpSegment ack;
  ack.ack = 100;
  ack.payload_bytes = 0;
  EXPECT_EQ(ack.size_bytes(), kTcpIpHeaderBytes);
}

TEST(FrameKindNames, AreDistinct) {
  EXPECT_STREQ(to_string(FrameKind::kBeacon), "Beacon");
  EXPECT_STREQ(to_string(FrameKind::kPsPoll), "PsPoll");
  EXPECT_STREQ(to_string(DhcpMessage::Kind::kOffer), "Offer");
}

}  // namespace
}  // namespace spider::net

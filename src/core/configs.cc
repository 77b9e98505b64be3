#include "core/configs.h"

namespace spider::core {

SpiderConfig single_channel_multi_ap(net::ChannelId channel) {
  SpiderConfig c;
  c.schedule = {{channel, 1.0}};
  c.multi_ap = true;
  c.max_interfaces = 7;
  c.policy = ApSelectionPolicy::kJoinHistory;
  c.session.link_timeout = sim::Time::millis(100);
  c.dhcp = dhcpd::reduced_dhcp_timers(sim::Time::millis(200));
  return c;
}

SpiderConfig single_channel_single_ap(net::ChannelId channel) {
  SpiderConfig c;
  c.schedule = {{channel, 1.0}};
  c.multi_ap = false;
  c.max_interfaces = 1;
  c.policy = ApSelectionPolicy::kBestRssi;
  // Off-the-shelf behaviour: default timers, generous loss detection, no
  // aggressive join abandonment.
  c.session.link_timeout = sim::Time::millis(1000);
  c.dhcp = dhcpd::default_dhcp_timers();
  c.link_loss_timeout = sim::Time::seconds(3);
  c.join_give_up = sim::Time::seconds(20);
  return c;
}

namespace {

std::vector<ChannelSlice> equal_schedule(
    const std::vector<net::ChannelId>& channels) {
  std::vector<ChannelSlice> schedule;
  schedule.reserve(channels.size());
  for (net::ChannelId ch : channels) {
    schedule.push_back({ch, 1.0 / static_cast<double>(channels.size())});
  }
  return schedule;
}

}  // namespace

SpiderConfig multi_channel_multi_ap(sim::Time period,
                                    const std::vector<net::ChannelId>& channels) {
  SpiderConfig c = single_channel_multi_ap(channels.front());
  c.schedule = equal_schedule(channels);
  c.period = period;
  // Fractional dwell stretches every join; scale the abandonment budget by
  // the number of slices so a join gets the same effective on-channel time.
  c.join_give_up = c.join_give_up * static_cast<int>(channels.size());
  return c;
}

SpiderConfig multi_channel_single_ap(sim::Time period,
                                     const std::vector<net::ChannelId>& channels) {
  SpiderConfig c = single_channel_multi_ap(channels.front());
  c.schedule = equal_schedule(channels);
  c.period = period;
  c.multi_ap = false;
  c.max_interfaces = 1;
  c.camp_while_connected = true;
  return c;
}

SpiderConfig dynamic_channel_multi_ap(net::ChannelId initial_channel) {
  SpiderConfig c = single_channel_multi_ap(initial_channel);
  c.dynamic_channel = true;
  return c;
}

}  // namespace spider::core

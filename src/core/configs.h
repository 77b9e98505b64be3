// The four Spider configurations evaluated in Section 4.1, as config
// factories. The stock-driver baseline (Table 2's "MadWiFi driver" row) is
// StockDriverConfig{}.
//
//   (1) Single-channel, Single-AP — "Spider mimics off-the-shelf Wi-Fi on a
//       single channel": one interface, strongest-signal selection, default
//       link-layer and DHCP timers, sticky link-loss detection.
//   (2) Single-channel, Multiple-AP — Spider proper on one channel: up to 7
//       interfaces, join-history selection, reduced timers.
//   (3) Multiple-channel, Multiple-AP — static equal schedule over the
//       orthogonal channels, up to 7 interfaces, reduced timers.
//   (4) Multiple-channel, Single-AP — switches channels to find APs but is
//       associated with one AP at a time; while a connection is live the
//       radio camps on its channel (soft-handoff single-AP mode).
//
// (Numbering here follows the *table*: Table 2 lists "Channel 1, Multi-AP"
// as config 1; the factories are named by behaviour to avoid ambiguity.)
#pragma once

#include <vector>

#include "core/spider_driver.h"
#include "core/stock_driver.h"
#include "phy/channel.h"

namespace spider::core {

// Config "Channel X, Multi-AP" — Spider's throughput-optimal configuration.
SpiderConfig single_channel_multi_ap(net::ChannelId channel = 1);

// Config "Channel X, Single-AP" — off-the-shelf mimicry on one channel.
SpiderConfig single_channel_single_ap(net::ChannelId channel = 1);

// Config "3 channels, Multi-AP" — static equal schedule, default D = 600 ms
// (Table 2 note: 200 ms on each of channels 1, 6, 11).
SpiderConfig multi_channel_multi_ap(
    sim::Time period = sim::Time::millis(600),
    const std::vector<net::ChannelId>& channels = {1, 6, 11});

// Config "3 channels, Single-AP" — camps while connected, rotates to find.
SpiderConfig multi_channel_single_ap(
    sim::Time period = sim::Time::millis(600),
    const std::vector<net::ChannelId>& channels = {1, 6, 11});

// Section 4.8 extension: single-channel multi-AP with dynamic channel
// selection — periodic scan excursions re-camp the radio on the channel
// with the best (history-weighted) AP supply.
SpiderConfig dynamic_channel_multi_ap(net::ChannelId initial_channel = 1);

}  // namespace spider::core

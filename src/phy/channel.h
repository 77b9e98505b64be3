// 2.4 GHz channel plan.
#pragma once

#include <array>
#include <cstddef>

#include "net/frame.h"

namespace spider::phy {

inline constexpr net::ChannelId kMinChannel = 1;
inline constexpr net::ChannelId kMaxChannel = 11;

// The three non-overlapping channels that host almost all APs in the paper's
// measurements (28% / 33% / 34% in Amherst; 83% combined in Boston).
inline constexpr std::array<net::ChannelId, 3> kOrthogonalChannels{1, 6, 11};

constexpr bool valid_channel(net::ChannelId c) {
  return c >= kMinChannel && c <= kMaxChannel;
}

// 802.11b/g channels are 5 MHz apart with ~22 MHz occupancy: separation of
// five or more channel numbers means no overlap.
constexpr bool orthogonal(net::ChannelId a, net::ChannelId b) {
  const int d = a > b ? a - b : b - a;
  return d >= 5;
}

constexpr double center_frequency_mhz(net::ChannelId c) {
  return 2412.0 + 5.0 * (c - 1);
}

// Per-channel tables (busy horizons, counters, metric and track names) are
// flat arrays indexed by channel slot: slot N is channel N for the 1..14
// plan, and every channel outside it folds into slot 0.
inline constexpr std::size_t kChannelSlots = 15;

constexpr std::size_t channel_slot(net::ChannelId channel) {
  return channel >= 1 && channel < static_cast<int>(kChannelSlots)
             ? static_cast<std::size_t>(channel)
             : 0;
}

// Compile-time "<stem><N>" name tables, one entry per slot (N < 100). The
// fixed buffer keeps the names static, so telemetry collectors and trace
// recorders that store `const char*` never allocate.
struct SlotName {
  char text[32] = {};
};

template <std::size_t N>
constexpr std::array<SlotName, N> make_slot_names(const char* stem) {
  std::array<SlotName, N> names{};
  for (std::size_t slot = 0; slot < N; ++slot) {
    std::size_t pos = 0;
    for (const char* c = stem; *c != '\0'; ++c) {
      names[slot].text[pos++] = *c;
    }
    if (slot >= 10) names[slot].text[pos++] = static_cast<char>('0' + slot / 10);
    names[slot].text[pos++] = static_cast<char>('0' + slot % 10);
    if (pos >= sizeof(names[slot].text)) {
      throw "name overflows SlotName";  // compile error when constexpr
    }
  }
  return names;
}

}  // namespace spider::phy

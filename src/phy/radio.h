// A single physical 802.11 radio.
//
// The radio is half-duplex and tuned to exactly one channel at a time.
// Retuning requires a hardware reset during which nothing can be sent or
// received — this is the switching delay `w` of the paper's model and the
// dominant term in Table 1's channel-switch latency.
//
// Memory layout: the fields the medium's hot paths read per candidate —
// position, channel, switching flag, grid cell — do NOT live here. They sit
// in the medium's RadioHotStore (struct-of-arrays, indexed by attach id);
// the radio keeps only the id and reads through the medium's accessors, so
// delivery scans stream dense arrays instead of dereferencing one Radio per
// candidate. See DESIGN.md "Memory layout".
#pragma once

#include <cstdint>
#include <functional>

#include "net/frame.h"
#include "phy/energy.h"
#include "phy/geom.h"
#include "phy/medium.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace spider::phy {

// The measured hardware-reset (retune) time: Table 1's ~4.94 ms for the
// Atheros part with no associated interfaces. THE canonical constant — the
// default RadioConfig::hardware_reset and the Table 1 reproduction both read
// this one name.
inline constexpr sim::Time kHardwareResetTime = sim::Time::micros(4940);

struct RadioConfig {
  net::ChannelId initial_channel = 1;
  // Hardware-reset time applied on every retune; override per radio to
  // model a different part.
  sim::Time hardware_reset = kHardwareResetTime;
  // Where the radio is attached.
  Vec2 position{};
  // A stationary radio (an AP) stays at `position` on `initial_channel` for
  // its whole life: the medium caches its in-range stationary neighbours
  // (see medium.h). Moving or retuning it fails a SPIDER_CHECK.
  bool stationary = false;
};

// Which received frames a radio's owner consumes. A reception the owner
// does not consume is still drawn and counted (frames_rx, energy, ARQ), but
// the receive handler never sees it. The default consumes everything.
struct RxInterest {
  // Only frames addressed to this radio or broadcast.
  bool addressed_only = false;
  // Bit (1 << kind) set for every net::FrameKind consumed.
  std::uint32_t kinds = ~std::uint32_t{0};

  static constexpr std::uint32_t bit(net::FrameKind kind) {
    return std::uint32_t{1} << static_cast<unsigned>(kind);
  }
  bool consumes(const net::Frame& frame, net::MacAddress self) const {
    if ((kinds & bit(frame.kind)) == 0) return false;
    return !addressed_only || frame.dst == self || frame.dst.is_broadcast();
  }
};

class Radio {
 public:
  using ReceiveHandler = std::function<void(const net::Frame&, const RxInfo&)>;
  // Invoked when a unicast data frame exhausted its link-layer retries
  // without reaching the addressed station (it was absent, mid-reset, or
  // every attempt was lost). Mirrors the 802.11 retry-failure indication
  // drivers get, which APs use to re-queue frames for power-save clients.
  using TxFailureHandler = std::function<void(const net::Frame&)>;

  Radio(Medium& medium, net::MacAddress address, RadioConfig config = {});
  ~Radio();

  Radio(const Radio&) = delete;
  Radio& operator=(const Radio&) = delete;

  net::MacAddress address() const { return address_; }
  net::ChannelId channel() const { return medium_.channel_of(id_); }
  Vec2 position() const { return medium_.position_of(id_); }
  // Monotone attach-sequence number within this radio's medium: a small,
  // stable integer id (used e.g. as a per-radio telemetry counter track);
  // also this radio's index into the medium's hot store.
  std::uint64_t attach_order() const { return id_; }
  // Moves the radio and re-buckets it in the medium's spatial grid if it
  // crossed a cell boundary; a no-move update is free (parked vehicles get
  // position ticks too).
  void set_position(Vec2 p) { medium_.set_position(*this, p); }
  // Installs the handler and declares, once, which frames it consumes.
  void set_receive_handler(ReceiveHandler handler, RxInterest interest = {}) {
    receive_handler_ = std::move(handler);
    interest_ = interest;
  }
  void set_tx_failure_handler(TxFailureHandler handler) {
    tx_failure_handler_ = std::move(handler);
  }

  // True while a hardware reset is in flight; the radio is deaf and mute.
  bool switching() const { return medium_.is_switching(id_); }

  // Retunes to `channel`. Invokes `done` (if any) once the reset completes.
  // Tuning to the current channel still incurs the reset (matches hardware).
  // A stationary radio may not retune (SPIDER_CHECK; under kLogAndCount it
  // stays on its channel and `done` never runs).
  void tune(net::ChannelId channel, std::function<void()> done = nullptr);

  // Hands the frame to the medium. Returns false (dropping the frame) while
  // a hardware reset is in flight.
  bool send(net::Frame frame);

  // Counters.
  std::uint64_t frames_tx() const { return frames_tx_; }
  std::uint64_t frames_rx() const { return frames_rx_; }
  std::uint64_t tx_dropped_switching() const { return tx_dropped_switching_; }

  // Optional, non-owning: when attached, the radio charges resets and
  // per-frame tx/rx airtime to the meter (steady state: idle).
  void attach_energy_meter(EnergyMeter* meter) { energy_ = meter; }
  EnergyMeter* energy_meter() { return energy_; }

 private:
  friend class Medium;
  // Medium-side delivery entry point, inline in Medium::deliver's draw
  // loop. Returns whether the handler consumed the frame.
  bool handle_delivery(const net::Frame& frame, const RxInfo& info) {
    ++frames_rx_;
    if (energy_) energy_->charge_burst(RadioState::kReceive, info.airtime);
    if (!receive_handler_ || !interest_.consumes(frame, address_)) {
      return false;
    }
    receive_handler_(frame, info);
    return true;
  }
  void handle_tx_failure(const net::Frame& frame);

  Medium& medium_;
  net::MacAddress address_;
  RadioConfig config_;
  // Handle into the medium's RadioHotStore (assigned by Medium::attach).
  RadioId id_ = 0;
  sim::TimerHandle switch_timer_;
  ReceiveHandler receive_handler_;
  RxInterest interest_;
  TxFailureHandler tx_failure_handler_;
  std::uint64_t frames_tx_ = 0;
  std::uint64_t frames_rx_ = 0;
  std::uint64_t tx_dropped_switching_ = 0;
  EnergyMeter* energy_ = nullptr;
};

}  // namespace spider::phy

#include "phy/radio.h"

#include <stdexcept>
#include <utility>

#include "core/check.h"
#include "phy/channel.h"

namespace spider::phy {

Radio::Radio(Medium& medium, net::MacAddress address, RadioConfig config)
    : medium_(medium), address_(address), config_(config) {
  if (!valid_channel(config.initial_channel))
    throw std::invalid_argument("Radio: invalid initial channel");
  medium_.attach(*this, config.initial_channel, config.position,
                 config.stationary);
}

Radio::~Radio() {
  switch_timer_.cancel();
  medium_.detach(*this);
}

void Radio::tune(net::ChannelId channel, std::function<void()> done) {
  if (!valid_channel(channel))
    throw std::invalid_argument("Radio::tune: invalid channel");
  const bool stationary = medium_.is_stationary(id_);
  SPIDER_CHECK(!stationary)
      << "stationary radio " << address_.to_string() << " retuned";
  if (stationary) return;
  switch_timer_.cancel();  // a new retune supersedes any in-flight one
  medium_.set_switching(*this, true);
  if (energy_) energy_->set_state(RadioState::kReset);
  switch_timer_ = medium_.simulator().schedule_after(
      config_.hardware_reset,
      [this, channel, done = std::move(done)] {
        medium_.complete_retune(*this, channel);
        if (energy_) energy_->set_state(RadioState::kIdle);
        if (done) done();
      });
}

SPIDER_HOT bool Radio::send(net::Frame frame) {
  if (medium_.is_switching(id_)) {
    ++tx_dropped_switching_;
    return false;
  }
  ++frames_tx_;
  if (energy_) {
    energy_->charge_burst(RadioState::kTransmit,
                          medium_.airtime(frame.size_bytes));
  }
  medium_.transmit(*this, std::move(frame));
  return true;
}

void Radio::handle_tx_failure(const net::Frame& frame) {
  if (tx_failure_handler_) tx_failure_handler_(frame);
}

}  // namespace spider::phy

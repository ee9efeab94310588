#include "devices/sram.hpp"

namespace hwpat::devices {

ExternalSram::ExternalSram(Module* parent, std::string name, SramConfig cfg,
                           SramPorts p)
    : Module(parent, std::move(name)),
      cfg_(cfg),
      p_(p),
      mem_(std::size_t{1} << cfg.addr_width, 0) {
  HWPAT_ASSERT(cfg_.data_width >= 1 && cfg_.data_width <= kMaxBusBits);
  HWPAT_ASSERT(cfg_.addr_width >= 1 && cfg_.addr_width <= 24);
  HWPAT_ASSERT(cfg_.latency >= 1);
  // A bus no wider than the address space keeps every address in
  // range, so an access never needs an edge-time range check.
  if (p_.addr.width() > cfg_.addr_width)
    throw Error("SRAM '" + full_name() + "': addr bus is " +
                std::to_string(p_.addr.width()) +
                " bits wide, wider than its addr_width of " +
                std::to_string(cfg_.addr_width));
}

void ExternalSram::preload(std::size_t offset,
                           const std::vector<Word>& data) {
  preload_words(*this, mem_, offset, data, cfg_.data_width);
}

void ExternalSram::declare_state() {
  // ack/rdata are the registered outputs; state_/countdown_/mem_ are
  // read only by on_clock() itself (no eval_comb()), so no seq_touch().
  register_seq(p_.ack);
  register_seq(p_.rdata);
}

void ExternalSram::do_op() {
  // In range: the constructor bounded the bus width by addr_width (a
  // restored blob can still hold a wider value, hence the assertion).
  const auto a = static_cast<std::size_t>(p_.addr.read());
  HWPAT_ASSERT(a < mem_.size());
  if (p_.we.read()) {
    mem_[a] = truncate(p_.wdata.read(), cfg_.data_width);
  } else {
    p_.rdata.write(mem_[a]);
  }
  p_.ack.write(true);
}

void ExternalSram::on_clock() {
  switch (state_) {
    case State::Idle:
      if (p_.req.read()) {
        if (cfg_.latency == 1) {
          do_op();
          state_ = State::Turnaround;
        } else {
          countdown_ = cfg_.latency - 1;
          state_ = State::Busy;
        }
      }
      break;
    case State::Busy:
      if (--countdown_ == 0) {
        do_op();
        state_ = State::Turnaround;
      }
      break;
    case State::Turnaround:
      p_.ack.write(false);
      state_ = State::Idle;
      break;
  }
}

void ExternalSram::on_reset() {
  state_ = State::Idle;
  countdown_ = 0;
}


void ExternalSram::save_state(rtl::StateWriter& w) const {
  w.u32(static_cast<std::uint32_t>(state_));
  w.i32(countdown_);
  w.words(mem_);
}

void ExternalSram::load_state(rtl::StateReader& r) {
  state_ = static_cast<State>(
      r.u32_in(0, static_cast<std::uint32_t>(State::Turnaround), "state"));
  // A busy access counts down to its operation from latency - 1.
  countdown_ = r.i32_in(state_ == State::Busy ? 1 : 0, cfg_.latency - 1,
                        "countdown");
  r.fixed_words(mem_);
}

}  // namespace hwpat::devices

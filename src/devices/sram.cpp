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
}

void ExternalSram::preload(std::size_t offset,
                           const std::vector<Word>& data) {
  HWPAT_ASSERT(offset + data.size() <= mem_.size());
  for (std::size_t i = 0; i < data.size(); ++i)
    mem_[offset + i] = truncate(data[i], cfg_.data_width);
}

void ExternalSram::declare_state() {
  // ack/rdata are the registered outputs; state_/countdown_/mem_ are
  // read only by on_clock() itself (no eval_comb()), so no seq_touch().
  register_seq(p_.ack);
  register_seq(p_.rdata);
}

void ExternalSram::do_op() {
  const auto a = static_cast<std::size_t>(p_.addr.read());
  if (a >= mem_.size()) {
    if (cfg_.strict)
      throw ProtocolError("SRAM '" + full_name() + "': address out of range");
    return;
  }
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

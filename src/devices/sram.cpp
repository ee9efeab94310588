#include "devices/sram.hpp"

#include <algorithm>

namespace hwpat::devices {

namespace {
constexpr int kPageBits = 9;  // 512 words, 4 KiB
}  // namespace

ExternalSram::ExternalSram(Module* parent, std::string name, SramConfig cfg,
                           SramPorts p)
    : Module(parent, std::move(name)),
      cfg_(cfg),
      p_(p),
      page_bits_(std::min(cfg.addr_width, kPageBits)) {
  HWPAT_ASSERT(cfg_.data_width >= 1 && cfg_.data_width <= kMaxBusBits);
  HWPAT_ASSERT(cfg_.addr_width >= 1 && cfg_.addr_width <= 24);
  HWPAT_ASSERT(cfg_.latency >= 1);
  pages_.resize(std::size_t{1} << (cfg_.addr_width - page_bits_));
  // A bus no wider than the address space keeps every address in
  // range, so an access never needs an edge-time range check.
  if (p_.addr.width() > cfg_.addr_width)
    throw Error("SRAM '" + full_name() + "': addr bus is " +
                std::to_string(p_.addr.width()) +
                " bits wide, wider than its addr_width of " +
                std::to_string(cfg_.addr_width));
}

Word ExternalSram::load(std::size_t a) const {
  const std::unique_ptr<Word[]>& page = pages_[a >> page_bits_];
  return page ? page[a & (page_words() - 1)] : 0;
}

void ExternalSram::store(std::size_t a, Word v) {
  std::unique_ptr<Word[]>& page = pages_[a >> page_bits_];
  v = truncate(v, cfg_.data_width);
  if (!page) {
    if (v == 0) return;
    page = std::make_unique<Word[]>(page_words());
  }
  page[a & (page_words() - 1)] = v;
}

std::vector<Word> ExternalSram::mem() const {
  std::vector<Word> image(pages_.size() * page_words(), 0);
  for (std::size_t i = 0; i < pages_.size(); ++i)
    if (pages_[i])
      std::copy_n(pages_[i].get(), page_words(),
                  image.data() + i * page_words());
  return image;
}

std::size_t ExternalSram::resident_pages() const {
  return static_cast<std::size_t>(std::count_if(
      pages_.begin(), pages_.end(),
      [](const std::unique_ptr<Word[]>& p) { return p != nullptr; }));
}

void ExternalSram::preload(std::size_t offset,
                           const std::vector<Word>& data) {
  check_preload_fits(*this, pages_.size() * page_words(), offset,
                     data.size());
  for (std::size_t i = 0; i < data.size(); ++i) store(offset + i, data[i]);
}

void ExternalSram::declare_state() {
  // ack/rdata are the registered outputs; state_/countdown_/pages_ are
  // read only by on_clock() itself (no eval_comb()), so no seq_touch().
  register_seq(p_.ack);
  register_seq(p_.rdata);
}

void ExternalSram::do_op() {
  // In range: the constructor bounded the bus width by addr_width, and
  // a restore refuses a bus value wider than its signal.
  const auto a = static_cast<std::size_t>(p_.addr.read());
  HWPAT_ASSERT(a < pages_.size() * page_words());
  if (p_.we.read()) {
    store(a, p_.wdata.read());
  } else {
    p_.rdata.write(load(a));
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
  w.paged_words(pages_, page_words());
}

void ExternalSram::load_state(rtl::StateReader& r) {
  state_ = static_cast<State>(
      r.u32_in(0, static_cast<std::uint32_t>(State::Turnaround), "state"));
  // A busy access counts down to its operation from latency - 1.
  countdown_ = r.i32_in(state_ == State::Busy ? 1 : 0, cfg_.latency - 1,
                        "countdown");
  r.paged_words(pages_, page_words(), cfg_.data_width);
}

}  // namespace hwpat::devices

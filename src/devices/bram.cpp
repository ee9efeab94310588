#include "devices/bram.hpp"

namespace hwpat::devices {

BlockRam::BlockRam(Module* parent, std::string name, BramConfig cfg,
                   BramPorts p)
    : Module(parent, std::move(name)),
      cfg_(cfg),
      p_(p),
      mem_(static_cast<std::size_t>(cfg.depth), 0) {
  HWPAT_ASSERT(cfg_.data_width >= 1 && cfg_.data_width <= kMaxBusBits);
  HWPAT_ASSERT(cfg_.depth >= 1);
}

void BlockRam::preload(std::size_t offset, const std::vector<Word>& data) {
  HWPAT_ASSERT(offset + data.size() <= mem_.size());
  for (std::size_t i = 0; i < data.size(); ++i)
    mem_[offset + i] = truncate(data[i], cfg_.data_width);
}

void BlockRam::declare_state() {
  // The read-data registers are the only on_clock() writes; mem_ is
  // read by on_clock() alone (there is no eval_comb()), so its
  // mutations need no seq_touch().
  register_seq(p_.a_rdata);
  register_seq(p_.b_rdata);
}

void BlockRam::on_clock() {
  if (p_.a_en.read()) {
    const auto a =
        static_cast<std::size_t>(p_.a_addr.read()) % mem_.size();
    p_.a_rdata.write(mem_[a]);  // read-first
    if (p_.a_we.read()) mem_[a] = truncate(p_.a_wdata.read(), cfg_.data_width);
  }
  if (p_.b_en.read()) {
    const auto b =
        static_cast<std::size_t>(p_.b_addr.read()) % mem_.size();
    p_.b_rdata.write(mem_[b]);
  }
}

void BlockRam::report(rtl::PrimitiveTally& t) const {
  t.blockram(bram_macros_for(cfg_.data_width * cfg_.depth));
}


void BlockRam::save_state(rtl::StateWriter& w) const { w.words(mem_); }

void BlockRam::load_state(rtl::StateReader& r) { r.fixed_words(mem_); }

}  // namespace hwpat::devices

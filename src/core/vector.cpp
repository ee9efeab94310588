#include "core/vector.hpp"

namespace hwpat::core {

/// Internal wires between the container FSM and its private BRAM.
struct VectorContainer::BramWires {
  Bit a_en, a_we, b_en;
  Bus a_addr, a_wdata, a_rdata, b_addr, b_rdata;

  BramWires(Module& owner, int elem_bits, int addr_bits)
      : a_en(owner, "ram_a_en"),
        a_we(owner, "ram_a_we"),
        b_en(owner, "ram_b_en"),
        a_addr(owner, "ram_a_addr", addr_bits),
        a_wdata(owner, "ram_a_wdata", elem_bits),
        a_rdata(owner, "ram_a_rdata", elem_bits),
        b_addr(owner, "ram_b_addr", addr_bits),
        b_rdata(owner, "ram_b_rdata", elem_bits) {}
};

VectorContainer::VectorContainer(Module* parent, std::string name,
                                 Config cfg, RandomImpl p)
    : Container(parent, std::move(name), ContainerKind::Vector,
                DeviceKind::BlockRam, cfg.elem_bits),
      cfg_(cfg),
      p_(p) {
  HWPAT_ASSERT(cfg_.length >= 1);
  if (cfg_.device != DeviceKind::BlockRam)
    throw SpecError("vector '" + this->name() +
                    "': BRAM constructor requires device=BlockRam");
  bw_ = std::make_unique<BramWires>(*this, cfg_.elem_bits, addr_bits());
  bram_ = std::make_unique<devices::BlockRam>(
      this, "bram0",
      devices::BramConfig{.data_width = cfg_.elem_bits,
                          .depth = cfg_.length},
      devices::BramPorts{.a_en = bw_->a_en,
                         .a_we = bw_->a_we,
                         .a_addr = bw_->a_addr,
                         .a_wdata = bw_->a_wdata,
                         .a_rdata = bw_->a_rdata,
                         .b_en = bw_->b_en,
                         .b_addr = bw_->b_addr,
                         .b_rdata = bw_->b_rdata});
}

VectorContainer::VectorContainer(Module* parent, std::string name,
                                 Config cfg, RandomImpl p, SramMaster mem)
    : Container(parent, std::move(name), ContainerKind::Vector,
                DeviceKind::Sram, cfg.elem_bits),
      cfg_(cfg),
      p_(p),
      has_mem_(true),
      mem_req_(&mem.req),
      mem_we_(&mem.we),
      mem_addr_(&mem.addr),
      mem_wdata_(&mem.wdata),
      mem_ack_(&mem.ack),
      mem_rdata_(&mem.rdata) {
  HWPAT_ASSERT(cfg_.length >= 1);
  if (cfg_.device != DeviceKind::Sram)
    throw SpecError("vector '" + this->name() +
                    "': SRAM constructor requires device=Sram");
}

VectorContainer::~VectorContainer() = default;

void VectorContainer::check_addr(Word a) const {
  if (a >= static_cast<Word>(cfg_.length) && cfg_.strict)
    throw ProtocolError("vector '" + full_name() + "': index " +
                        std::to_string(a) + " out of range [0, " +
                        std::to_string(cfg_.length) + ")");
}

void VectorContainer::eval_comb() {
  p_.ready.write(state_ == State::Idle);
  if (!has_mem_) {
    // Drive the BRAM port combinationally from the client strobes; the
    // one-cycle read latency is tracked by the FSM state.
    const bool idle = state_ == State::Idle;
    const bool rd = idle && p_.read.read();
    const bool wr = idle && p_.write.read() && !p_.read.read();
    bw_->a_en.write(rd || wr);
    bw_->a_we.write(wr);
    bw_->a_addr.write(p_.addr.read());
    bw_->a_wdata.write(p_.wdata.read());
    bw_->b_en.write(false);
    bw_->b_addr.write(0);
    p_.rdata.write(bw_->a_rdata.read());
  } else {
    p_.rdata.write(mem_rdata_->read());
  }
}

void VectorContainer::declare_state() {
  register_seq(p_.rvalid);
  if (has_mem_) {
    register_seq(*mem_req_);
    register_seq(*mem_we_);
    register_seq(*mem_addr_);
    register_seq(*mem_wdata_);
  }
}

void VectorContainer::on_clock() {
  const State pre = state_;  // the only internal state eval_comb() reads
  const bool rd = p_.read.read();
  const bool wr = p_.write.read();
  switch (state_) {
    case State::Idle: {
      p_.rvalid.write(false);
      if (!rd && !wr) break;
      if (rd && wr && cfg_.strict)
        throw ProtocolError("vector '" + full_name() +
                            "': simultaneous read and write strobes");
      check_addr(p_.addr.read());
      if (!has_mem_) {
        // BRAM: write completes this edge; read data arrives next edge.
        if (rd) state_ = State::BramRead;
        break;
      }
      mem_req_->write(true);
      mem_we_->write(!rd && wr);
      mem_addr_->write(cfg_.base_addr + p_.addr.read());
      mem_wdata_->write(p_.wdata.read());
      state_ = rd ? State::SramRead : State::SramWrite;
      break;
    }
    case State::BramRead:
      p_.rvalid.write(true);
      state_ = State::Idle;
      break;
    case State::SramRead:
      if (mem_ack_->read()) {
        mem_req_->write(false);
        p_.rvalid.write(true);
        state_ = State::Idle;
      }
      break;
    case State::SramWrite:
      if (mem_ack_->read()) {
        mem_req_->write(false);
        mem_we_->write(false);
        state_ = State::Idle;
      }
      break;
  }
  if (state_ != pre) seq_touch();
}

void VectorContainer::on_reset() { state_ = State::Idle; }

void VectorContainer::report(rtl::PrimitiveTally& t) const {
  if (!has_mem_) {
    t.fsm(2, 3);  // idle / read-latency tracking
    t.lut(2);     // port-enable gating
    t.depth(2);
  } else {
    t.fsm(3, 6);
    t.adder(mem_addr_->width());  // base + index
    t.lut(2);
    t.depth(3);
  }
}


void VectorContainer::save_state(rtl::StateWriter& w) const {
  w.u32(static_cast<std::uint32_t>(state_));
}

void VectorContainer::load_state(rtl::StateReader& r) {
  state_ = static_cast<State>(r.u32_in(
      0, static_cast<std::uint32_t>(State::SramWrite), "state_"));
  // Each binding reaches only its own states; on a BRAM binding the
  // SRAM states would read a memory port that does not exist.
  const bool sram_state =
      state_ == State::SramRead || state_ == State::SramWrite;
  if (state_ != State::Idle && sram_state != has_mem_)
    throw SnapshotError(
        "snapshot: state_ = " + std::to_string(static_cast<int>(state_)) +
        " is not a state of the " + (has_mem_ ? "SRAM" : "BRAM") +
        " binding — corrupted blob");
}

}  // namespace hwpat::core

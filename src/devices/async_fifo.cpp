#include "devices/async_fifo.hpp"

// This simulation model and the VHDL the generator emits for the
// AsyncFifoCore device binding (meta::fill_async_fifo_arch -> the
// golden tests/golden/queue_async_fifo.vhd) are the same Cummings
// design: per-domain binary+gray pointer registers, 2-flop
// synchronizers for the opposite pointer, full = wr gray vs synced rd
// gray with the top two bits inverted, empty = rd gray vs synced wr
// gray.  Keep the two in lockstep — the CDC argument made here in
// simulation is the one the emitted RTL embodies.

namespace hwpat::devices {

// ---------------------------------------------------------------------
// Write side (write-clock domain)
// ---------------------------------------------------------------------

/// Owns the binary write pointer, the gray write pointer register (in
/// the parent) and the 2-flop synchronizer of the read pointer.  The
/// `full` flag is a pure function of signals (wr gray vs synced rd gray
/// with the top two bits inverted), so eval_comb() reads no internal
/// C++ state and the declared register signals carry all change
/// propagation.
class AsyncFifo::WriteSide : public rtl::Module {
 public:
  explicit WriteSide(AsyncFifo* f)
      : Module(f, "wr_side"),
        f_(*f),
        rsync1_(*this, "rsync1", f->ptr_bits()),
        rsync2_(*this, "rsync2", f->ptr_bits()) {
    if (f_.cfg_.strict) enable_clock_check();
  }

  void eval_comb() override {
    f_.p_.full.write(f_.wptr_gray_.read() ==
                     (rsync2_.read() ^ f_.top2_mask()));
  }

  /// Strict-mode validate phase: the full test below is a pure function
  /// of settled values, so an illegal write aborts the clock-edge event
  /// before any domain's state (including this side's synchronizers)
  /// has advanced.
  void on_clock_check() const override {
    // Untraced reads (as_word_fast), as in FifoCore::on_clock_check().
    if (f_.p_.wr_en.as_word_fast() == 0) return;
    if (f_.wptr_gray_.as_word_fast() ==
        (rsync2_.as_word_fast() ^ f_.top2_mask()))
      throw ProtocolError("async FIFO '" + f_.full_name() +
                          "': write while full");
  }

  void on_clock() override {
    // Synchronizer chain: the read pointer crosses into this domain.
    rsync2_.write(rsync1_.read());
    rsync1_.write(f_.rptr_gray_.read());
    if (!f_.p_.wr_en.read()) return;
    const bool full_now =
        f_.wptr_gray_.read() == (rsync2_.read() ^ f_.top2_mask());
    if (full_now) {
      if (f_.cfg_.strict)
        throw ProtocolError("async FIFO '" + f_.full_name() +
                            "': write while full");
      return;
    }
    // The storage cell is unreachable by the read side until this
    // write's pointer update has crossed its synchronizer, so writing
    // the shared array needs no seq_touch(): no eval_comb() anywhere
    // can observe the cell before a rd_side register changes too.
    f_.mem_[static_cast<std::size_t>(wbin_) &
            static_cast<std::size_t>(f_.cfg_.depth - 1)] =
        f_.p_.wr_data.read();
    ++wbin_;
    f_.wptr_gray_.write(
        gray(wbin_ & ((Word{2} * static_cast<Word>(f_.cfg_.depth)) - 1)));
  }

  void on_reset() override { wbin_ = 0; }

  void save_state(rtl::StateWriter& w) const override { w.word(wbin_); }
  void load_state(rtl::StateReader& r) override { wbin_ = r.word(); }

  void declare_state() override {
    register_seq(f_.wptr_gray_);
    register_seq(rsync1_);
    register_seq(rsync2_);
  }

 private:
  friend class AsyncFifo;
  AsyncFifo& f_;
  Bus rsync1_;  ///< rd pointer, 1 flop into the write domain
  Bus rsync2_;  ///< rd pointer, 2 flops into the write domain
  Word wbin_ = 0;  ///< free-running binary write pointer
};

// ---------------------------------------------------------------------
// Read side (read-clock domain)
// ---------------------------------------------------------------------

/// Owns the binary read pointer, the gray read pointer register (in the
/// parent) and the 2-flop synchronizer of the write pointer.  `empty`
/// is gray-pointer equality against the synced write pointer.  The
/// show-ahead `rd_data` reads the shared storage array (internal state
/// of the parent): that is safe across the domain boundary because the
/// exposed cell is frozen from the moment the synced pointer makes it
/// visible until this side's own pointer moves past it — and pointer
/// moves are declared register updates, so re-evaluation is triggered.
class AsyncFifo::ReadSide : public rtl::Module {
 public:
  explicit ReadSide(AsyncFifo* f)
      : Module(f, "rd_side"),
        f_(*f),
        wsync1_(*this, "wsync1", f->ptr_bits()),
        wsync2_(*this, "wsync2", f->ptr_bits()) {
    if (f_.cfg_.strict) enable_clock_check();
  }

  /// Strict-mode validate phase (see WriteSide::on_clock_check): an
  /// illegal read aborts the event before the synchronizer writes at
  /// the top of on_clock() below ever happen.
  void on_clock_check() const override {
    // Untraced reads (as_word_fast), as in FifoCore::on_clock_check().
    if (f_.p_.rd_en.as_word_fast() == 0) return;
    if (f_.rptr_gray_.as_word_fast() == wsync2_.as_word_fast())
      throw ProtocolError("async FIFO '" + f_.full_name() +
                          "': read while empty");
  }

  void eval_comb() override {
    const bool empty_now = f_.rptr_gray_.read() == wsync2_.read();
    f_.p_.empty.write(empty_now);
    f_.p_.rd_data.write(
        empty_now ? 0
                  : f_.mem_[static_cast<std::size_t>(rbin_) &
                            static_cast<std::size_t>(f_.cfg_.depth - 1)]);
  }

  void on_clock() override {
    // Synchronizer chain: the write pointer crosses into this domain.
    wsync2_.write(wsync1_.read());
    wsync1_.write(f_.wptr_gray_.read());
    if (!f_.p_.rd_en.read()) return;
    const bool empty_now = f_.rptr_gray_.read() == wsync2_.read();
    if (empty_now) {
      if (f_.cfg_.strict)
        throw ProtocolError("async FIFO '" + f_.full_name() +
                            "': read while empty");
      return;
    }
    ++rbin_;
    f_.rptr_gray_.write(
        gray(rbin_ & ((Word{2} * static_cast<Word>(f_.cfg_.depth)) - 1)));
    // rbin_ selects the show-ahead cell in eval_comb(): internal
    // eval-visible state changed on this edge.
    seq_touch();
  }

  void on_reset() override { rbin_ = 0; }

  void save_state(rtl::StateWriter& w) const override { w.word(rbin_); }
  void load_state(rtl::StateReader& r) override { rbin_ = r.word(); }

  void declare_state() override {
    register_seq(f_.rptr_gray_);
    register_seq(wsync1_);
    register_seq(wsync2_);
  }

 private:
  friend class AsyncFifo;
  AsyncFifo& f_;
  Bus wsync1_;  ///< wr pointer, 1 flop into the read domain
  Bus wsync2_;  ///< wr pointer, 2 flops into the read domain
  Word rbin_ = 0;  ///< free-running binary read pointer
};

// ---------------------------------------------------------------------
// Parent wrapper
// ---------------------------------------------------------------------

AsyncFifo::AsyncFifo(Module* parent, std::string name, AsyncFifoConfig cfg,
                     AsyncFifoPorts p, const rtl::ClockDomain* wr_domain,
                     const rtl::ClockDomain* rd_domain)
    : Module(parent, std::move(name)),
      cfg_(cfg),
      p_(p),
      abits_(std::max(1, clog2(static_cast<Word>(cfg.depth)))),
      mem_(static_cast<std::size_t>(cfg.depth), 0),
      wptr_gray_(*this, "wptr_gray", abits_ + 1),
      rptr_gray_(*this, "rptr_gray", abits_ + 1) {
  HWPAT_ASSERT(cfg_.width >= 1 && cfg_.width <= kMaxBusBits);
  HWPAT_ASSERT(cfg_.depth >= 2 && (cfg_.depth & (cfg_.depth - 1)) == 0 &&
               "gray-coded pointers need a power-of-two depth");
  // The gray pointers are the declared clock-domain-crossing points:
  // each is written in one side's domain and sampled by the *other*
  // side's 2-flop synchronizer — the only register signals the CDC
  // discipline (src/rtl/README.md) allows to cross a clock domain.
  wptr_gray_.mark_cdc_cross();
  rptr_gray_.mark_cdc_cross();
  wr_ = std::make_unique<WriteSide>(this);
  rd_ = std::make_unique<ReadSide>(this);
  wr_->set_clock_domain(wr_domain);
  rd_->set_clock_domain(rd_domain);
}

AsyncFifo::~AsyncFifo() = default;

void AsyncFifo::save_state(rtl::StateWriter& w) const { w.words(mem_); }

void AsyncFifo::load_state(rtl::StateReader& r) { r.fixed_words(mem_); }

int AsyncFifo::size() const {
  return static_cast<int>(wr_->wbin_ - rd_->rbin_);
}

void AsyncFifo::report(rtl::PrimitiveTally& t) const {
  // Modelled after the vendor independent-clocks FIFO macro: storage,
  // binary + gray pointer registers per side, the 2-flop synchronizers,
  // gray encode/decode and the flag comparators.
  const int pb = ptr_bits();
  const int bits = cfg_.width * cfg_.depth;
  if (bits <= 1024) {
    t.distram(bits);
  } else {
    t.blockram(bram_macros_for(bits));
  }
  t.regs(2 * 2 * pb);  // binary + gray pointer per side
  t.regs(2 * 2 * pb);  // two synchronizer flops per side
  t.adder(2 * pb);     // pointer increments
  t.comparator(2 * pb);  // empty, full (gray equality)
  t.lut(2 * pb);         // gray encode
  t.lut(2);              // enable gating
  t.depth(2);
}

}  // namespace hwpat::devices

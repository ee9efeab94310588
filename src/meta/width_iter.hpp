// Width-adapting concrete iterators — the generator output for the
// §3.3 pixel-format scenario: "for an 8-bit data bus, we should also
// modify the iterator code to perform three consecutive container
// reads/writes to get/set the whole pixel.  In any case, all this
// scenarios can be considered by the automatic code generator, thus
// requiring no designer intervention."
//
// These iterators present elem_bits-wide elements to the algorithm
// while the underlying container moves bus_bits-wide lanes.  Lanes are
// sequenced little-endian: the first lane popped/pushed holds the
// element's low bits.  Unlike the pure-wrapper iterators they carry an
// assembly register and a lane counter, so they report real resources —
// width adaptation is the one stream iterator variant that does NOT
// dissolve: each owns the wires of its client() view and drives them.
#pragma once

#include "core/iterator.hpp"

namespace hwpat::meta {

/// Input iterator assembling k = ceil(elem/bus) lanes per element.
class WidthAdaptInputIterator : public core::Iterator {
 public:
  struct Config {
    int elem_bits = 24;  ///< element width the algorithm sees
    int bus_bits = 8;    ///< lane width the container moves
  };

  WidthAdaptInputIterator(Module* parent, std::string name, Spec spec,
                          core::ContainerKind bound_kind, Config cfg,
                          core::StreamConsumer c);

  [[nodiscard]] core::IterClient client() override { return iw_.client(); }
  void eval_comb() override;
  void on_clock() override;
  void on_reset() override;
  // Assembly register/valid changes are reported via seq_touch().
  void declare_state() override { declare_seq_state(); }
  void save_state(rtl::StateWriter& w) const override;
  void load_state(rtl::StateReader& r) override;
  void report(rtl::PrimitiveTally& t) const override;

  [[nodiscard]] int lanes() const { return lanes_; }

 private:
  Config cfg_;
  int lanes_;
  core::StreamConsumer c_;
  core::IterWires iw_;
  Word asm_reg_ = 0;
  int lane_ = 0;
  bool asm_valid_ = false;
};

/// Output iterator splitting each element into k consecutive pushes.
class WidthAdaptOutputIterator : public core::Iterator {
 public:
  struct Config {
    int elem_bits = 24;
    int bus_bits = 8;
  };

  WidthAdaptOutputIterator(Module* parent, std::string name, Spec spec,
                           core::ContainerKind bound_kind, Config cfg,
                           core::StreamProducer pr);

  [[nodiscard]] core::IterClient client() override { return iw_.client(); }
  void eval_comb() override;
  void on_clock() override;
  void on_reset() override;
  // Shift-register/pending changes are reported via seq_touch().
  void declare_state() override { declare_seq_state(); }
  void save_state(rtl::StateWriter& w) const override;
  void load_state(rtl::StateReader& r) override;
  void report(rtl::PrimitiveTally& t) const override;

  [[nodiscard]] int lanes() const { return lanes_; }

 private:
  Config cfg_;
  int lanes_;
  core::StreamProducer pr_;
  core::IterWires iw_;
  Word shift_reg_ = 0;
  int pending_ = 0;
};

}  // namespace hwpat::meta

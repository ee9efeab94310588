// The algorithm layer of the basic component library (§3.2.3): finite
// state machines that touch data exclusively through iterator method
// interfaces.  "Every one should use the interface provided by
// iterators to access data in the containers.  This would guarantee
// reusability of the algorithm, despite of the container chosen for a
// certain implementation."
//
// Common control bundle: `start` launches a run; `busy` is high while
// running; `done` pulses for one cycle on completion.  A transfer count
// of 0 means the paper's "endless loop" streaming mode.
//
// Every algorithm raises an operation strobe only while the iterator's
// `ready` is high.  A stream iterator's client view is its container's
// own wires, so the strobe *is* the container's pop or push; there is no
// gate in between, and a strobe without `ready` is a ProtocolError.
//
// An algorithm drives only the strobes it can raise: its advance
// direction, `read` on an input, `write` and `wdata` on an output.  It
// never writes the ones it holds low (the other direction, `index`,
// `write` on an input, `read` on an output): they keep their reset value
// 0, like a constant '0' that synthesis folds away.
#pragma once

#include "core/opspec.hpp"
#include "core/ports.hpp"
#include "rtl/module.hpp"

namespace hwpat::core {

struct AlgoControl {
  const Bit& start;
  Bit& busy;
  Bit& done;
};

struct AlgoWires {
  Bit start, busy, done;

  AlgoWires(Module& owner, const std::string& prefix)
      : start(owner, prefix + "_start"),
        busy(owner, prefix + "_busy"),
        done(owner, prefix + "_done") {}

  [[nodiscard]] AlgoControl control() { return {start, busy, done}; }
};

/// Base class: run/idle bookkeeping shared by the algorithm FSMs.
class Algorithm : public rtl::Module {
 public:
  Algorithm(Module* parent, std::string name, AlgoControl ctl);

  void eval_comb() override;
  void on_reset() override;
  /// Registers the done pulse; run-flag flips are reported via
  /// seq_touch() inside clock_control()/count_transfer().  Subclasses
  /// with extra eval-visible state extend this (and must call it).
  void declare_state() override;
  void save_state(rtl::StateWriter& w) const override;
  void load_state(rtl::StateReader& r) override;

  [[nodiscard]] bool running() const { return running_; }
  [[nodiscard]] std::uint64_t transfers() const { return transfers_; }

 protected:
  /// Handles start/done; returns true while the FSM should work.
  bool clock_control();
  /// Records one completed element transfer; finishes the run when
  /// `total` transfers are reached (total == 0 never finishes).
  void count_transfer(std::uint64_t total);

  AlgoControl ctl_;

 private:
  bool running_ = false;
  std::uint64_t transfers_ = 0;
};

/// transform(in, out, f): the generalised copy algorithm.  Each cycle
/// both iterators are ready it reads an element, applies the
/// combinational operation and writes the result, advancing both
/// iterators in parallel — the paper's "endless loop that sequences
/// read and write operations and iterator forwarding for both
/// containers; all these operations can be performed in parallel in a
/// hardware implementation".
class TransformFsm : public Algorithm {
 public:
  struct Config {
    std::uint64_t count = 0;       ///< elements per run; 0 = endless
    Op in_advance = Op::Inc;       ///< Inc, or Dec for backward inputs
    Op out_advance = Op::Inc;
    UnaryOpSpec op;                ///< element operation
  };

  TransformFsm(Module* parent, std::string name, Config cfg, IterClient in,
               IterClient out, AlgoControl ctl);

  void eval_comb() override;
  void on_clock() override;
  void report(rtl::PrimitiveTally& t) const override;

  [[nodiscard]] const Config& config() const { return cfg_; }

 private:
  [[nodiscard]] bool transfer_now() const;

  Config cfg_;
  IterClient in_;
  IterClient out_;
};

/// copy(in, out): transform with the identity operation — the first
/// algorithm of the paper's library.
class CopyFsm : public TransformFsm {
 public:
  struct Config {
    std::uint64_t count = 0;
    Op in_advance = Op::Inc;
    Op out_advance = Op::Inc;
  };

  CopyFsm(Module* parent, std::string name, Config cfg, IterClient in,
          IterClient out, AlgoControl ctl);
};

/// fill(out, value, n): writes `value` n times through an output
/// iterator.
class FillFsm : public Algorithm {
 public:
  struct Config {
    std::uint64_t count = 1;
    Word value = 0;
  };

  FillFsm(Module* parent, std::string name, Config cfg, IterClient out,
          AlgoControl ctl);

  void eval_comb() override;
  void on_clock() override;
  void report(rtl::PrimitiveTally& t) const override;

 private:
  [[nodiscard]] bool transfer_now() const;

  Config cfg_;
  IterClient out_;
};

/// reduce(in, op, n): folds n elements through a binary operation;
/// the accumulated result appears on `result` when `done` pulses.
class ReduceFsm : public Algorithm {
 public:
  struct Config {
    std::uint64_t count = 1;
    Op in_advance = Op::Inc;
    BinaryOpSpec op;
  };

  ReduceFsm(Module* parent, std::string name, Config cfg, IterClient in,
            Bus& result, AlgoControl ctl);

  void eval_comb() override;
  void on_clock() override;
  void on_reset() override;
  void report(rtl::PrimitiveTally& t) const override;
  void save_state(rtl::StateWriter& w) const override;
  void load_state(rtl::StateReader& r) override;

 private:
  [[nodiscard]] bool transfer_now() const;

  Config cfg_;
  IterClient in_;
  Bus& result_;
  Word acc_;
};

}  // namespace hwpat::core

#include "rtl/module.hpp"

#include <algorithm>

namespace hwpat::rtl {

SignalBase::SignalBase(Module& owner, std::string name, int width,
                       SigKind kind, Word init)
    : owner_(owner),
      name_(std::move(name)),
      width_(width),
      kind_(kind),
      curs_(init),
      nxts_(init),
      init_(init) {
  HWPAT_ASSERT(width >= 1 && width <= kMaxBusBits);
  owner.add_signal(this);
}

SignalBase::~SignalBase() { owner_.remove_signal(this); }

std::string SignalBase::full_name() const {
  return owner_.full_name() + "." + name_;
}

Module::Module(Module* parent, std::string name)
    : parent_(parent), name_(std::move(name)) {
  if (parent_ != nullptr) parent_->children_.push_back(this);
}

Module::~Module() {
  if (parent_ != nullptr) parent_->remove_child(this);
}

std::string Module::full_name() const {
  if (parent_ == nullptr) return name_;
  return parent_->full_name() + "." + name_;
}

void Module::set_clock_domain(const ClockDomain* d) {
  if (sim_id_ >= 0)
    throw Error("module '" + full_name() +
                "': set_clock_domain() while bound to a simulator — clock "
                "domains are resolved once, at elaboration; destroy the "
                "simulator before reassigning");
  domain_ = d;
}

void Module::register_seq(SignalBase& s) {
  seq_declared_ = true;
  if (std::find(seq_signals_.begin(), seq_signals_.end(), &s) ==
      seq_signals_.end())
    seq_signals_.push_back(&s);
}

void Module::remove_signal(const SignalBase* s) {
  signals_.erase(std::remove(signals_.begin(), signals_.end(), s),
                 signals_.end());
}

void Module::remove_child(const Module* m) {
  children_.erase(std::remove(children_.begin(), children_.end(), m),
                  children_.end());
}

}  // namespace hwpat::rtl

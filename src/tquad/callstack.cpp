#include "tquad/callstack.hpp"

namespace tq::tquad {

std::vector<bool> tracked_functions(const vm::Program& program, LibraryPolicy policy) {
  const auto& functions = program.functions();
  std::vector<bool> tracked(functions.size());
  for (std::size_t i = 0; i < functions.size(); ++i) {
    tracked[i] = functions[i].image == vm::ImageKind::kMain ||
                 policy == LibraryPolicy::kTrack;
  }
  return tracked;
}

CallStack::CallStack(const vm::Program& program, LibraryPolicy policy)
    : tracked_(tracked_functions(program, policy)), policy_(policy) {
  // Untracked routines are pushed as suspension markers under kExclude.
  excluded_.resize(tracked_.size());
  for (std::size_t i = 0; i < tracked_.size(); ++i) {
    excluded_[i] = !tracked_[i] && policy == LibraryPolicy::kExclude;
  }
  frames_.reserve(64);
}

void CallStack::on_enter(std::uint32_t func) {
  TQUAD_DCHECK(func < tracked_.size(), "function id out of range");
  if (!tracked_[func] && policy_ == LibraryPolicy::kAttributeToCaller) {
    return;  // invisible frame: accesses fall through to the caller
  }
  // Tracked kernels and kExclude suspension markers are both pushed so that
  // their returns pop symmetrically.
  frames_.push_back(func);
  max_depth_ = std::max(max_depth_, frames_.size());
}

void CallStack::on_ret(std::uint32_t func) {
  if (!frames_.empty() && frames_.back() == func) {
    frames_.pop_back();
    return;
  }
  if (!tracked_[func] && policy_ == LibraryPolicy::kAttributeToCaller) {
    return;  // was never pushed
  }
  ++mismatched_pops_;
}

}  // namespace tq::tquad

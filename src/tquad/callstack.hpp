// The internal call stack tQUAD maintains.
//
// Pin gives a run-time tool no call graph, so the paper's tool rebuilds one
// dynamically: routine entries push (EnterFC, Figure 5) and return
// instructions pop (Instruction() "monitors instructions for the return from
// a function to maintain the integrity of the internal call stack",
// Section IV-C). Every memory access and retired instruction is attributed
// to the kernel on top of this stack.
//
// Library/OS routines are handled per the tool's third command-line option:
//   * kExclude          — not pushed; while such a routine runs with no
//                         main-image frame above it, accesses are discarded
//                         ("exclusion of memory bandwidth usage data caused
//                         by OS and library routine calls").
//   * kAttributeToCaller— not pushed; their accesses accrue to the nearest
//                         main-image caller still on the stack.
//   * kTrack            — pushed and reported like main-image kernels.
#pragma once

#include <cstdint>
#include <vector>

#include "support/check.hpp"
#include "vm/program.hpp"

namespace tq::tquad {

/// How non-main-image routines participate in attribution.
enum class LibraryPolicy : std::uint8_t {
  kExclude,
  kAttributeToCaller,
  kTrack,
};

/// Sentinel kernel id meaning "no attributable kernel".
inline constexpr std::uint32_t kNoKernel = 0xffffffffu;

/// Per-function "pushed and reported" table under `policy`: main-image
/// routines always, library routines only under kTrack.
std::vector<bool> tracked_functions(const vm::Program& program, LibraryPolicy policy);

/// Dynamically maintained call stack of kernel (function) ids.
class CallStack {
 public:
  CallStack(const vm::Program& program, LibraryPolicy policy);

  /// Routine entry (EnterFC). `func` is the program's function id.
  void on_enter(std::uint32_t func);

  /// A return instruction executed inside `func`.
  void on_ret(std::uint32_t func);

  /// Kernel currently charged for accesses, or kNoKernel.
  ///
  /// Under kExclude, an untracked routine *suspends* attribution: entering
  /// it pushes an opaque marker so accesses are discarded until it returns.
  std::uint32_t top() const noexcept {
    if (frames_.empty()) return kNoKernel;
    const std::uint32_t func = frames_.back();
    return excluded_[func] ? kNoKernel : func;
  }

  std::size_t depth() const noexcept { return frames_.size(); }
  std::size_t max_depth() const noexcept { return max_depth_; }

  /// Number of pops that found a mismatching top (integrity diagnostics;
  /// zero on well-formed runs).
  std::uint64_t mismatched_pops() const noexcept { return mismatched_pops_; }

  /// Whether `func` is pushed/reported under the current policy.
  bool tracked(std::uint32_t func) const noexcept { return tracked_[func]; }

 private:
  std::vector<std::uint32_t> frames_;
  std::vector<bool> tracked_;   // by function id
  std::vector<bool> excluded_;  // pushed as suspension markers
  LibraryPolicy policy_;
  std::size_t max_depth_ = 0;
  std::uint64_t mismatched_pops_ = 0;
};

}  // namespace tq::tquad

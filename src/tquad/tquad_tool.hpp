// The tQUAD profiler — the paper's primary contribution — as a
// ProfileSession consumer.
//
// The paper's pintool (Figures 3-5) keeps its own call stack: EnterFC on
// every routine entry, IncreaseRead / IncreaseWrite on every memory access
// (returning immediately on prefetches), a return handler for call-stack
// integrity and a per-instruction tick. Here the session's shared
// KernelAttribution does all of that once per run; the tool receives each
// entry, tick and access already attributed to the kernel on top of the
// stack and does pure accounting. Construct it with the same library
// policy as the session.
//
// Unlike the original tool, stack-area inclusion/exclusion is not a run-time
// either/or: both classifications are recorded simultaneously (see
// BandwidthRecorder), so one run yields the paper's two runs' worth of data.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "session/events.hpp"
#include "tquad/bandwidth.hpp"
#include "tquad/callstack.hpp"

namespace tq::tquad {

/// Command-line-equivalent options (Section IV-C lists the original three:
/// stack inclusion, slice interval, library exclusion).
struct Options {
  std::uint64_t slice_interval = 100'000;  ///< instructions per time slice
  LibraryPolicy library_policy = LibraryPolicy::kExclude;
};

/// Lifetime per-kernel tallies beyond bandwidth.
struct KernelActivity {
  std::uint64_t calls = 0;         ///< dynamic routine entries
  std::uint64_t instructions = 0;  ///< retired while this kernel was on top
};

/// The tool. Register with ProfileSession::add_consumer before the run;
/// results are valid after it returns.
class TQuadTool final : public session::AnalysisConsumer {
 public:
  TQuadTool(const vm::Program& program, Options options);

  TQuadTool(const TQuadTool&) = delete;
  TQuadTool& operator=(const TQuadTool&) = delete;

  const Options& options() const noexcept { return options_; }
  const BandwidthRecorder& bandwidth() const noexcept { return recorder_; }
  const KernelActivity& activity(std::uint32_t kernel) const {
    TQUAD_CHECK(kernel < activity_.size(), "kernel id out of range");
    return activity_[kernel];
  }
  std::size_t kernel_count() const noexcept { return activity_.size(); }
  const std::string& kernel_name(std::uint32_t kernel) const {
    return program_.functions()[kernel].name;
  }
  /// Whether the kernel is reported under the library policy.
  bool reported(std::uint32_t kernel) const noexcept { return tracked_[kernel]; }

  std::uint64_t total_retired() const noexcept { return total_retired_; }
  /// Instructions retired with no attributable kernel (excluded libraries).
  std::uint64_t unattributed_instructions() const noexcept { return unattributed_; }

  // session::AnalysisConsumer. No return accounting; prefetch touches are
  // skipped, as in the paper's analysis routines.
  unsigned event_interests() const override {
    return kEnterInterest | kTickInterest | kAccessInterest;
  }
  void on_kernel_enter(const session::EnterEvent& event) override;
  void on_tick_run(const session::TickRunEvent& run) override;
  void on_access(const session::AccessEvent& event) override;
  /// The accesses of one stretch: the bytes of each slice window are summed
  /// in registers and added to the recorder once.
  void on_access_stretch(std::uint32_t kernel, std::span<const session::Record> records);
  void on_session_end(std::uint64_t total_retired) override;
  void on_finish(const vm::RunOutcome& outcome) override { outcome_ = outcome; }
  void on_batch(unsigned interests, const session::Batch& batch) override {
    session::deliver(*this, interests, batch);
  }

  /// How the observed run ended (kHalted for a clean run).
  /// A trapped/truncated outcome means the profile is a valid prefix.
  const vm::RunOutcome& outcome() const noexcept { return outcome_; }

 private:
  const vm::Program& program_;
  Options options_;
  std::vector<bool> tracked_;  ///< reported() table under the library policy
  BandwidthRecorder recorder_;
  std::vector<KernelActivity> activity_;
  vm::RunOutcome outcome_;
  std::uint64_t total_retired_ = 0;
  std::uint64_t unattributed_ = 0;
};

}  // namespace tq::tquad

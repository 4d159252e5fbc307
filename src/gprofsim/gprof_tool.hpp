// gsim: a gprof-equivalent flat profiler over the tq VM.
//
// The paper uses gprof to pick the top kernels of hArtes wfs (Table I).
// gprof attributes *self* time by sampling the program counter at a fixed
// wall-clock rate and counts calls exactly via instrumented prologues. On a
// deterministic interpreter the natural clock is the retired-instruction
// counter, so this tool:
//   * samples the executing function every `sample_period` instructions
//     (the statistical estimate gprof reports — the paper runs the program
//     fifty times to tame exactly this sampling noise);
//   * counts every instruction's owning function exactly (the ground truth
//     the sampled estimate converges to; exposed for validation);
//   * counts calls exactly, and measures inclusive ("total") time per
//     function by timing outermost activations, handling recursion the way
//     gprof's call-graph propagation intends.
//
// Instruction counts convert to seconds through a CPU model
// (cycles = instructions / IPC; seconds = cycles / frequency), defaulting to
// the paper's 2.83 GHz Core 2 Quad.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "session/events.hpp"
#include "tquad/callstack.hpp"
#include "support/table.hpp"

namespace tq::gprof {

/// Sampling and CPU-model options.
struct Options {
  std::uint64_t sample_period = 10'000;  ///< instructions between PC samples
  double clock_ghz = 2.83;               ///< paper's Q9550
  double ipc = 1.0;                      ///< instructions per cycle
  tquad::LibraryPolicy library_policy = tquad::LibraryPolicy::kExclude;
};

/// One flat-profile row with the Table I columns.
struct FlatRow {
  std::uint32_t kernel = 0;
  std::string name;
  double time_fraction = 0.0;     ///< "%time" (from samples)
  double self_seconds = 0.0;      ///< "self seconds"
  std::uint64_t calls = 0;        ///< "calls"
  double self_ms_per_call = 0.0;  ///< "self ms/call"
  double total_ms_per_call = 0.0; ///< "total ms/call" (inclusive)
};

/// The profiler tool. Register with ProfileSession::add_consumer before the
/// run (use the same library policy as the session); query afterwards.
class GprofTool : public session::AnalysisConsumer {
 public:
  GprofTool(const vm::Program& program, Options options = {});

  GprofTool(const GprofTool&) = delete;
  GprofTool& operator=(const GprofTool&) = delete;

  /// Flat profile sorted by descending self time (sampled), Table I layout.
  std::vector<FlatRow> flat_profile() const;

  /// Render as the paper's flat-profile table.
  TextTable flat_profile_table() const;

  /// One caller->callee edge of the dynamic call graph (gprof's second
  /// report). Counts are exact, not sampled.
  struct CallEdge {
    std::uint32_t caller = 0;
    std::uint32_t callee = 0;
    std::uint64_t calls = 0;
  };

  /// The dynamic call graph, heaviest edges first. Only edges between
  /// tracked routines appear; program entry has no caller edge.
  std::vector<CallEdge> call_graph() const;

  /// Exact per-function self instruction count (ground truth).
  std::uint64_t exact_self_instructions(std::uint32_t kernel) const;
  /// Sampled per-function hit count.
  std::uint64_t samples(std::uint32_t kernel) const;
  /// Exact inclusive instruction count (outermost activations).
  std::uint64_t inclusive_instructions(std::uint32_t kernel) const;
  std::uint64_t calls(std::uint32_t kernel) const;
  std::uint64_t total_samples() const noexcept { return total_samples_; }
  std::uint64_t total_retired() const noexcept { return total_retired_; }

  double instructions_to_seconds(std::uint64_t instructions) const noexcept {
    return static_cast<double>(instructions) / (options_.ipc * options_.clock_ghz * 1e9);
  }

  std::size_t kernel_count() const noexcept { return self_instrs_.size(); }
  const std::string& kernel_name(std::uint32_t kernel) const {
    return program_.functions()[kernel].name;
  }

  // session::AnalysisConsumer. Memory accesses carry nothing a call-graph
  // profile uses.
  unsigned event_interests() const override {
    return kEnterInterest | kTickInterest | kRetInterest;
  }
  void on_kernel_enter(const session::EnterEvent& event) override;
  void on_tick(const session::TickEvent& event) override;
  void on_tick_run(const session::TickRunEvent& run) override;
  void on_kernel_ret(const session::RetEvent& event) override;
  void on_session_end(std::uint64_t total_retired) override;
  void on_finish(const vm::RunOutcome& outcome) override { outcome_ = outcome; }

  /// How the observed run ended (kHalted for a clean run).
  /// A trapped/truncated outcome means the profile is a valid prefix.
  const vm::RunOutcome& outcome() const noexcept { return outcome_; }

 private:
  const vm::Program& program_;
  Options options_;
  std::vector<bool> tracked_;  ///< flat_profile() rows under the library policy
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> edges_;
  std::vector<std::uint64_t> self_instrs_;
  std::vector<std::uint64_t> samples_;
  std::vector<std::uint64_t> calls_;
  std::vector<std::uint64_t> inclusive_;
  std::vector<std::uint64_t> activation_depth_;
  std::vector<std::uint64_t> activation_start_;
  vm::RunOutcome outcome_;
  std::uint64_t total_samples_ = 0;
  std::uint64_t total_retired_ = 0;
  std::uint64_t next_sample_ = 0;
};

}  // namespace tq::gprof

// Per-kernel address-map heatmap: access counts bucketed by (time slice,
// address bucket), in the spirit of MapVisual's memory-access maps.
//
// The map makes a workload's memory *shape* visible and diffable: a
// streaming kernel paints a diagonal band, a pointer chase speckles the
// whole allocation, and a phase-sharp pipeline shows one hot band per
// phase. `tquad_cli -viz json[:path]` exports the JSON rendering; the zoo
// benches and smoke tests consume it to assert declared shapes.
//
// Accounting contract: every delivered AccessEvent is counted exactly once —
// stack accesses per kernel in `stack_accesses` (a heatmap of stack frames
// would swamp the data-structure signal), all others in a sparse
// (slice, bucket) cell split into reads (prefetch touches included) and
// writes. So for every kernel: accesses == stack_accesses + sum(cell reads
// + cell writes), and the sum over kernels equals the session's delivered
// access-event count.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "session/events.hpp"
#include "vm/program.hpp"

namespace tq::tquad {

struct AddressMapOptions {
  std::uint64_t slice_interval = 50'000;  ///< retired instructions per slice
  std::uint64_t bucket_bytes = 256;       ///< address granularity
};

class AddressMapTool final : public session::AnalysisConsumer {
 public:
  /// Read/write counts of one (slice, bucket) cell.
  struct CellCounts {
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
  };
  /// (time slice, address bucket); std::map keeps cells render-sorted.
  using CellKey = std::pair<std::uint64_t, std::uint64_t>;

  struct KernelMap {
    std::map<CellKey, CellCounts> cells;  ///< non-stack accesses only
    std::uint64_t stack_accesses = 0;
    std::uint64_t accesses = 0;  ///< every access attributed to this kernel
  };

  explicit AddressMapTool(const vm::Program& program,
                          AddressMapOptions options = {});

  unsigned event_interests() const override { return kAccessInterest; }
  void on_access(const session::AccessEvent& event) override;
  void on_batch(unsigned interests, const session::Batch& batch) override {
    session::deliver(*this, interests, batch);
  }

  const AddressMapOptions& options() const noexcept { return options_; }
  /// Per-kernel maps keyed by kernel id (kNoKernel for unattributed
  /// accesses), in id order.
  const std::map<std::uint32_t, KernelMap>& kernels() const noexcept {
    return kernels_;
  }
  std::uint64_t total_accesses() const noexcept { return total_accesses_; }

  /// Kernel display name ("(unattributed)" for kNoKernel).
  std::string kernel_label(std::uint32_t kernel) const;

  /// The full map as JSON: keys sorted at every level, kernels sorted by
  /// label, cells sorted by (slice, bucket). Cell rows are
  /// [slice, bucket, reads, writes].
  std::string render_json() const;

 private:
  const vm::Program& program_;
  AddressMapOptions options_;
  std::map<std::uint32_t, KernelMap> kernels_;
  std::uint64_t total_accesses_ = 0;
};

}  // namespace tq::tquad

// Hand-encoded session batches for tests that drive a consumer's on_batch
// without a KernelAttribution: the same record layout, with every access
// inside a stretch as the attribution writes it. A stretch opens at the
// first access after any other record, and again whenever the kernel
// changes.
#pragma once

#include <cstddef>
#include <cstdint>

#include "session/events.hpp"

namespace tq::testutil {

class BatchEncoder {
 public:
  /// Room for `events` events (see session::Batch).
  explicit BatchEncoder(std::size_t events) : batch_(events) {}

  void access(const session::AccessEvent& event) {
    if (stretch_ == nullptr || stretch_->kernel != event.kernel) {
      close_stretch();
      stretch_ = next();
      *stretch_ = {0, 0, 0, 0, event.kernel, session::kStretch};
    }
    const bool wide = event.size > session::kMaxInlineSize;
    *next() = {.a = event.retired,
               .b = event.ea,
               .func = event.func,
               .c = event.pc,
               .kernel = event.kernel,
               .tag = session::kAccess | session::flag(event.is_read, session::kRead) |
                      session::flag(event.is_stack, session::kStack) |
                      session::flag(event.is_prefetch, session::kPrefetch) |
                      (wide ? session::kWide : event.size << session::kSizeShift)};
    if (wide) *next() = {event.size, 0, 0, 0, 0, session::kExtension};
  }

  void tick_run(const session::TickRunEvent& run) {
    close_stretch();
    *next() = {.a = run.first_retired,
               .b = run.count,
               .func = run.func,
               .c = static_cast<std::uint32_t>(run.mem_count),
               .kernel = run.kernel,
               .tag = session::kTickRun | session::flag(run.tracked, session::kTracked)};
  }

  /// The finished batch (the open stretch closed).
  const session::Batch& batch() {
    close_stretch();
    return batch_;
  }

 private:
  session::Record* next() { return &batch_.records[batch_.size++]; }

  void close_stretch() {
    if (stretch_ == nullptr) return;
    stretch_->b = static_cast<std::uint64_t>(&batch_.records[batch_.size] - stretch_ - 1);
    stretch_ = nullptr;
  }

  session::Batch batch_;
  session::Record* stretch_ = nullptr;
};

}  // namespace tq::testutil

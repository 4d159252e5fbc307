#include "tquad/tquad_tool.hpp"

namespace tq::tquad {

TQuadTool::TQuadTool(const vm::Program& program, Options options)
    : program_(program),
      options_(options),
      tracked_(tracked_functions(program, options.library_policy)),
      recorder_(program.functions().size(), options.slice_interval),
      activity_(program.functions().size()) {}

void TQuadTool::on_kernel_enter(const session::EnterEvent& event) {
  if (event.tracked) ++activity_[event.func].calls;
}

void TQuadTool::on_tick_run(const session::TickRunEvent& run) {
  if (run.kernel == kNoKernel) {
    unattributed_ += run.count;
  } else {
    activity_[run.kernel].instructions += run.count;
  }
}

void TQuadTool::on_access(const session::AccessEvent& event) {
  // Paper: the analysis routines return immediately on a prefetch.
  if (event.is_prefetch || event.kernel == kNoKernel) return;
  recorder_.on_access(event.kernel, event.retired, event.size, event.is_read,
                      event.is_stack);
}

void TQuadTool::on_access_stretch(std::uint32_t kernel,
                                  std::span<const session::Record> records) {
  if (kernel == kNoKernel) return;
  SliceCounters window;  // the bytes of `slice` not yet added
  std::uint64_t slice = 0;
  bool pending = false;
  session::for_each_access(records, [&](const session::Record& r, std::uint32_t size) {
    if (session::has(r, session::kPrefetch)) return;
    const std::uint64_t now = recorder_.slice_of(r.a);
    if (pending && now != slice) [[unlikely]] {
      recorder_.add(kernel, slice, window);
      window.clear();
    }
    slice = now;
    pending = true;
    window.add(size, session::has(r, session::kRead), session::has(r, session::kStack));
  });
  if (pending) recorder_.add(kernel, slice, window);
}

void TQuadTool::on_session_end(std::uint64_t total_retired) {
  total_retired_ = total_retired;
  recorder_.finish();
}

}  // namespace tq::tquad

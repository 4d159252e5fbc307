#include "gprofsim/gprof_tool.hpp"

#include <algorithm>

namespace tq::gprof {

GprofTool::GprofTool(const vm::Program& program, Options options)
    : program_(program),
      options_(options),
      tracked_(tquad::tracked_functions(program, options.library_policy)) {
  TQUAD_CHECK(options_.sample_period > 0, "sample period must be positive");
  const std::size_t n = program.functions().size();
  self_instrs_.assign(n, 0);
  samples_.assign(n, 0);
  calls_.assign(n, 0);
  inclusive_.assign(n, 0);
  activation_depth_.assign(n, 0);
  activation_start_.assign(n, 0);
  next_sample_ = options_.sample_period;
}

void GprofTool::on_kernel_enter(const session::EnterEvent& event) {
  if (!event.tracked) return;
  // Call-graph edge: the attributable routine on top of the stack (before
  // this entry pushed) is the caller.
  if (event.caller != tquad::kNoKernel) {
    ++edges_[{event.caller, event.func}];
  }
  ++calls_[event.func];
  if (activation_depth_[event.func]++ == 0) {
    activation_start_[event.func] = event.retired;
  }
}

void GprofTool::on_tick_run(const session::TickRunEvent& run) {
  self_instrs_[run.func] += run.count;
  // Closed-form PC sampling over [first_retired, first_retired + count). In
  // a sequential tick stream next_sample_ > first_retired always holds on
  // entry (each processed tick leaves next_sample_ at least two ahead of
  // it), so the sample points inside the run are exactly next_sample_ - 1,
  // next_sample_ - 1 + period, ... — the same ones sampling each tick in
  // turn would hit.
  const std::uint64_t last = run.first_retired + run.count;  // max (retired + 1)
  if (last >= next_sample_) {
    const std::uint64_t hits = (last - next_sample_) / options_.sample_period + 1;
    next_sample_ += hits * options_.sample_period;
    if (run.tracked) {
      samples_[run.func] += hits;
    }
    total_samples_ += hits;
  }
}

void GprofTool::on_kernel_ret(const session::RetEvent& event) {
  if (event.tracked && activation_depth_[event.func] > 0) {
    if (--activation_depth_[event.func] == 0) {
      inclusive_[event.func] += event.retired - activation_start_[event.func];
    }
  }
}

void GprofTool::on_session_end(std::uint64_t total_retired) {
  total_retired_ = total_retired;
  // Close any activations still open at program exit (entry function etc.).
  for (std::size_t k = 0; k < inclusive_.size(); ++k) {
    if (activation_depth_[k] > 0) {
      inclusive_[k] += total_retired - activation_start_[k];
      activation_depth_[k] = 0;
    }
  }
}

std::vector<GprofTool::CallEdge> GprofTool::call_graph() const {
  std::vector<CallEdge> edges;
  edges.reserve(edges_.size());
  for (const auto& [key, count] : edges_) {
    edges.push_back(CallEdge{key.first, key.second, count});
  }
  std::sort(edges.begin(), edges.end(), [](const CallEdge& a, const CallEdge& b) {
    return a.calls > b.calls;
  });
  return edges;
}

std::uint64_t GprofTool::exact_self_instructions(std::uint32_t kernel) const {
  TQUAD_CHECK(kernel < self_instrs_.size(), "kernel id out of range");
  return self_instrs_[kernel];
}

std::uint64_t GprofTool::samples(std::uint32_t kernel) const {
  TQUAD_CHECK(kernel < samples_.size(), "kernel id out of range");
  return samples_[kernel];
}

std::uint64_t GprofTool::inclusive_instructions(std::uint32_t kernel) const {
  TQUAD_CHECK(kernel < inclusive_.size(), "kernel id out of range");
  return inclusive_[kernel];
}

std::uint64_t GprofTool::calls(std::uint32_t kernel) const {
  TQUAD_CHECK(kernel < calls_.size(), "kernel id out of range");
  return calls_[kernel];
}

std::vector<FlatRow> GprofTool::flat_profile() const {
  std::vector<FlatRow> rows;
  for (std::uint32_t k = 0; k < kernel_count(); ++k) {
    if (!tracked_[k] || calls_[k] == 0) continue;
    FlatRow row;
    row.kernel = k;
    row.name = kernel_name(k);
    row.time_fraction =
        total_samples_ == 0
            ? 0.0
            : static_cast<double>(samples_[k]) / static_cast<double>(total_samples_);
    row.self_seconds =
        instructions_to_seconds(samples_[k] * options_.sample_period);
    row.calls = calls_[k];
    if (calls_[k] > 0) {
      row.self_ms_per_call = row.self_seconds * 1000.0 / static_cast<double>(calls_[k]);
      row.total_ms_per_call = instructions_to_seconds(inclusive_[k]) * 1000.0 /
                              static_cast<double>(calls_[k]);
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(), [](const FlatRow& a, const FlatRow& b) {
    if (a.time_fraction != b.time_fraction) return a.time_fraction > b.time_fraction;
    return a.name < b.name;
  });
  return rows;
}

TextTable GprofTool::flat_profile_table() const {
  TextTable table({"kernel", "%time", "self seconds", "calls", "self ms/call",
                   "total ms/call"});
  for (const FlatRow& row : flat_profile()) {
    table.add_row({row.name, format_percent(row.time_fraction),
                   format_fixed(row.self_seconds, 4), format_count(row.calls),
                   format_fixed(row.self_ms_per_call, 3),
                   format_fixed(row.total_ms_per_call, 3)});
  }
  return table;
}

}  // namespace tq::gprof

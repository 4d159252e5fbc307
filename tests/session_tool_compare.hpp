// A session with any subset of the tools, and deep-equality assertions over
// finished tools, shared by the engine differential matrix (compiled vs
// interpreter), the pipeline suite (parallel vs serial dispatch), the
// fault-injection suite (faulted prefix vs budget-truncated prefix) and the
// replay suite (replay vs live). Each comparator walks every externally
// observable counter of its tool, so "equal" means the two runs are
// indistinguishable to any report.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "gprofsim/gprof_tool.hpp"
#include "quad/quad_tool.hpp"
#include "session/session.hpp"
#include "trace/trace.hpp"
#include "tquad/tquad_tool.hpp"
#include "workloads/registry.hpp"

namespace tq::testutil {

inline constexpr std::uint64_t kSlice = 1000;
inline constexpr std::uint64_t kSamplePeriod = 700;

/// Which consumers ride the session (bit i of the matrix loops).
struct ToolMask {
  bool tquad = false;
  bool quad = false;
  bool gprof = false;
  bool trace = false;
};

inline constexpr ToolMask kAllTools{true, true, true, true};
/// The three profilers, without the trace recorder.
inline constexpr ToolMask kProfilers{true, true, true, false};

/// One session plus the masked subset of consumers, each configured with the
/// session's library policy.
struct SessionRun {
  SessionRun(const vm::Program& program, const session::SessionConfig& config, ToolMask mask)
      : session(program, config) {
    if (mask.tquad) {
      tquad_tool.emplace(program,
                         tquad::Options{.slice_interval = kSlice,
                                        .library_policy = config.library_policy});
      session.add_consumer(*tquad_tool);
    }
    if (mask.quad) {
      quad_tool.emplace(program, quad::QuadOptions{config.library_policy});
      session.add_consumer(*quad_tool);
    }
    if (mask.gprof) {
      gprof::Options options;
      options.sample_period = kSamplePeriod;
      options.library_policy = config.library_policy;
      gprof_tool.emplace(program, options);
      session.add_consumer(*gprof_tool);
    }
    if (mask.trace) {
      recorder.emplace(program, config.library_policy);
      session.add_consumer(*recorder);
    }
  }

  session::ProfileSession session;
  std::optional<tquad::TQuadTool> tquad_tool;
  std::optional<quad::QuadTool> quad_tool;
  std::optional<gprof::GprofTool> gprof_tool;
  std::optional<trace::TraceRecorder> recorder;
};

/// One fresh guest execution's inputs, built from the workload registry.
/// Each Instance is single-shot: the host accumulates guest output.
inline workloads::Instance make_guest(const std::string& name) {
  return workloads::find_workload(name).build();
}

inline void expect_tquad_equal(const tquad::TQuadTool& a, const tquad::TQuadTool& b) {
  ASSERT_EQ(a.kernel_count(), b.kernel_count());
  EXPECT_EQ(a.total_retired(), b.total_retired());
  EXPECT_EQ(a.unattributed_instructions(), b.unattributed_instructions());
  EXPECT_EQ(a.bandwidth().max_slice(), b.bandwidth().max_slice());
  for (std::uint32_t k = 0; k < a.kernel_count(); ++k) {
    SCOPED_TRACE("kernel " + a.kernel_name(k));
    EXPECT_EQ(a.activity(k).calls, b.activity(k).calls);
    EXPECT_EQ(a.activity(k).instructions, b.activity(k).instructions);
    const auto& ka = a.bandwidth().kernel(k);
    const auto& kb = b.bandwidth().kernel(k);
    EXPECT_EQ(ka.totals.read_incl, kb.totals.read_incl);
    EXPECT_EQ(ka.totals.read_excl, kb.totals.read_excl);
    EXPECT_EQ(ka.totals.write_incl, kb.totals.write_incl);
    EXPECT_EQ(ka.totals.write_excl, kb.totals.write_excl);
    ASSERT_EQ(ka.series.size(), kb.series.size());
    for (std::size_t i = 0; i < ka.series.size(); ++i) {
      EXPECT_EQ(ka.series[i].slice, kb.series[i].slice);
      EXPECT_EQ(ka.series[i].counters.read_incl, kb.series[i].counters.read_incl);
      EXPECT_EQ(ka.series[i].counters.read_excl, kb.series[i].counters.read_excl);
      EXPECT_EQ(ka.series[i].counters.write_incl, kb.series[i].counters.write_incl);
      EXPECT_EQ(ka.series[i].counters.write_excl, kb.series[i].counters.write_excl);
    }
  }
}

/// Every QUAD counter a report shows, except the Table III cost model's
/// (see expect_quad_cost_equal).
inline void expect_quad_equal(const quad::QuadTool& a, const quad::QuadTool& b) {
  ASSERT_EQ(a.kernel_count(), b.kernel_count());
  for (std::uint32_t k = 0; k < a.kernel_count(); ++k) {
    SCOPED_TRACE("kernel " + a.kernel_name(k));
    EXPECT_EQ(a.reported(k), b.reported(k));
    EXPECT_EQ(a.instructions(k), b.instructions(k));
    EXPECT_EQ(a.calls(k), b.calls(k));
    for (const bool incl : {false, true}) {
      const auto& ca = incl ? a.including_stack(k) : a.excluding_stack(k);
      const auto& cb = incl ? b.including_stack(k) : b.excluding_stack(k);
      EXPECT_EQ(ca.in_bytes, cb.in_bytes);
      EXPECT_EQ(ca.out_bytes, cb.out_bytes);
      EXPECT_EQ(ca.in_unma.count(), cb.in_unma.count());
      EXPECT_EQ(ca.out_unma.count(), cb.out_unma.count());
    }
  }
  const auto ba = a.bindings();
  const auto bb = b.bindings();
  ASSERT_EQ(ba.size(), bb.size());
  for (std::size_t i = 0; i < ba.size(); ++i) {
    EXPECT_EQ(ba[i].producer, bb[i].producer);
    EXPECT_EQ(ba[i].consumer, bb[i].consumer);
    EXPECT_EQ(ba[i].bytes, bb[i].bytes);
    EXPECT_EQ(ba[i].unma, bb[i].unma);
  }
}

/// The Table III cost model's inputs, through instrumented_cost, which
/// covers the private mem_refs_/global_* counters. Replay cannot match
/// mem_refs_: a predicated-off memory instruction leaves no trace record
/// (see docs/FORMATS.md).
inline void expect_quad_cost_equal(const quad::QuadTool& a, const quad::QuadTool& b) {
  ASSERT_EQ(a.kernel_count(), b.kernel_count());
  const quad::CostModel model;
  for (std::uint32_t k = 0; k < a.kernel_count(); ++k) {
    SCOPED_TRACE("kernel " + a.kernel_name(k));
    EXPECT_EQ(a.instrumented_cost(k, model), b.instrumented_cost(k, model));
  }
}

inline void expect_gprof_equal(const gprof::GprofTool& a, const gprof::GprofTool& b) {
  ASSERT_EQ(a.kernel_count(), b.kernel_count());
  EXPECT_EQ(a.total_samples(), b.total_samples());
  EXPECT_EQ(a.total_retired(), b.total_retired());
  for (std::uint32_t k = 0; k < a.kernel_count(); ++k) {
    SCOPED_TRACE("kernel " + a.kernel_name(k));
    EXPECT_EQ(a.exact_self_instructions(k), b.exact_self_instructions(k));
    EXPECT_EQ(a.samples(k), b.samples(k));
    EXPECT_EQ(a.calls(k), b.calls(k));
    EXPECT_EQ(a.inclusive_instructions(k), b.inclusive_instructions(k));
  }
  const auto ea = a.call_graph();
  const auto eb = b.call_graph();
  ASSERT_EQ(ea.size(), eb.size());
  for (std::size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].caller, eb[i].caller);
    EXPECT_EQ(ea[i].callee, eb[i].callee);
    EXPECT_EQ(ea[i].calls, eb[i].calls);
  }
}

/// Every tool `mask` selects, `candidate` against `reference`, the QUAD
/// cost model included. `reference_trace` is the reference's trace, taken
/// beforehand (take_encoded consumes it); the candidate's is taken here.
inline void expect_tools_equal(SessionRun& reference,
                               const std::vector<std::uint8_t>& reference_trace,
                               SessionRun& candidate, ToolMask mask) {
  if (mask.tquad) {
    expect_tquad_equal(*reference.tquad_tool, *candidate.tquad_tool);
  }
  if (mask.quad) {
    expect_quad_equal(*reference.quad_tool, *candidate.quad_tool);
    expect_quad_cost_equal(*reference.quad_tool, *candidate.quad_tool);
  }
  if (mask.gprof) {
    expect_gprof_equal(*reference.gprof_tool, *candidate.gprof_tool);
  }
  if (mask.trace) {
    EXPECT_EQ(reference_trace, candidate.recorder->take_encoded());
  }
}

}  // namespace tq::testutil

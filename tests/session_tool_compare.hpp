// Deep-equality assertions over finished profiling tools, shared by the
// engine differential matrix (compiled vs interpreter), the pipeline suite
// (parallel vs serial dispatch) and the fault-injection suite (faulted
// prefix vs budget-truncated prefix). Each comparator walks every externally
// observable counter of its tool, so "equal" means the two runs are
// indistinguishable to any report.
#pragma once

#include <gtest/gtest.h>

#include "gprofsim/gprof_tool.hpp"
#include "quad/quad_tool.hpp"
#include "tquad/tquad_tool.hpp"

namespace tq::testutil {

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

inline void expect_quad_equal(const quad::QuadTool& a, const quad::QuadTool& b) {
  ASSERT_EQ(a.kernel_count(), b.kernel_count());
  const quad::CostModel model;
  for (std::uint32_t k = 0; k < a.kernel_count(); ++k) {
    SCOPED_TRACE("kernel " + a.kernel_name(k));
    EXPECT_EQ(a.reported(k), b.reported(k));
    EXPECT_EQ(a.instructions(k), b.instructions(k));
    EXPECT_EQ(a.calls(k), b.calls(k));
    // instrumented_cost covers the private mem_refs_/global_* counters too.
    EXPECT_EQ(a.instrumented_cost(k, model), b.instrumented_cost(k, model));
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

}  // namespace tq::testutil

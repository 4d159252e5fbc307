// QUAD producer/consumer semantics on programs with exactly known dataflow.
#include <gtest/gtest.h>

#include "gasm/builder.hpp"
#include "session/session.hpp"
#include "quad/instrumented_profile.hpp"
#include "quad/quad_tool.hpp"

namespace tq::quad {
namespace {

using gasm::F;
using gasm::ProgramBuilder;
using gasm::R;
using gasm::SP;

struct QuadRun {
  vm::Program program;
  vm::HostEnv host;
  std::unique_ptr<session::ProfileSession> session;
  std::unique_ptr<QuadTool> tool;

  explicit QuadRun(vm::Program prog, QuadOptions options = {})
      : program(std::move(prog)) {
    session::SessionConfig config;
    config.library_policy = options.library_policy;
    session = std::make_unique<session::ProfileSession>(program, config);
    tool = std::make_unique<QuadTool>(program, options);
    session->add_consumer(*tool);
    session->run_live(host);
  }
  std::uint32_t id(const std::string& name) const { return *program.find(name); }
};

/// Simpler, fully explicit program for exact assertions.
vm::Program make_simple_flow() {
  ProgramBuilder prog;
  const auto buf = prog.alloc_global("buf", 64);
  auto& producer = prog.begin_function("producer");
  producer.movi(R{1}, static_cast<std::int64_t>(buf));
  producer.movi(R{2}, 0x11);
  producer.store(R{1}, 0, R{2}, 8);   // 8 bytes at buf
  producer.store(R{1}, 8, R{2}, 4);   // 4 bytes at buf+8
  producer.ret();
  auto& consumer = prog.begin_function("consumer");
  consumer.movi(R{1}, static_cast<std::int64_t>(buf));
  consumer.load(R{3}, R{1}, 0, 8);    // reads 8 produced bytes
  consumer.load(R{4}, R{1}, 0, 8);    // again (re-read)
  consumer.load(R{5}, R{1}, 8, 8);    // 4 produced + 4 unwritten
  consumer.load(R{6}, R{1}, 32, 8);   // fully unwritten
  consumer.ret();
  auto& main_fn = prog.begin_function("main");
  main_fn.call("producer");
  main_fn.call("consumer");
  main_fn.halt();
  return prog.build("main");
}

TEST(QuadTool, InAndOutBytesExact) {
  QuadRun run(make_simple_flow());
  const auto producer = run.id("producer");
  const auto consumer = run.id("consumer");
  // consumer IN (stack excluded): 4 loads x 8B = 32.
  EXPECT_EQ(run.tool->excluding_stack(consumer).in_bytes, 32u);
  // consumer IN including stack adds its ret pop (8B).
  EXPECT_EQ(run.tool->including_stack(consumer).in_bytes, 40u);
  // producer OUT: bytes read by anyone from its writes = 8 + 8 + 4 = 20.
  EXPECT_EQ(run.tool->excluding_stack(producer).out_bytes, 20u);
  EXPECT_EQ(run.tool->including_stack(producer).out_bytes, 20u);
}

TEST(QuadTool, UnMACountsDistinctAddresses) {
  QuadRun run(make_simple_flow());
  const auto producer = run.id("producer");
  const auto consumer = run.id("consumer");
  // producer wrote bytes buf..buf+11 -> 12 distinct global addresses.
  EXPECT_EQ(run.tool->excluding_stack(producer).out_unma.count(), 12u);
  // consumer read buf..buf+15 and buf+32..39 -> 24 distinct (re-read not
  // double counted).
  EXPECT_EQ(run.tool->excluding_stack(consumer).in_unma.count(), 24u);
  // Stack-included adds the 8-byte return-address slot (shared by both).
  EXPECT_EQ(run.tool->including_stack(consumer).in_unma.count(), 32u);
}

TEST(QuadTool, BindingsRecordProducerToConsumerBytes) {
  QuadRun run(make_simple_flow());
  const auto producer = run.id("producer");
  const auto consumer = run.id("consumer");
  EXPECT_EQ(run.tool->binding_bytes(producer, consumer), 20u);
  EXPECT_EQ(run.tool->binding_bytes(consumer, producer), 0u);
  const auto edges = run.tool->bindings();
  ASSERT_FALSE(edges.empty());
  bool found = false;
  for (const auto& edge : edges) {
    if (edge.producer == producer && edge.consumer == consumer) {
      found = true;
      EXPECT_EQ(edge.bytes, 20u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(QuadTool, SelfBindingWhenKernelReadsOwnWrites) {
  ProgramBuilder prog;
  const auto buf = prog.alloc_global("buf", 64);
  auto& selfish = prog.begin_function("selfish");
  selfish.movi(R{1}, static_cast<std::int64_t>(buf));
  selfish.movi(R{2}, 5);
  selfish.store(R{1}, 0, R{2}, 8);
  selfish.load(R{3}, R{1}, 0, 8);
  selfish.ret();
  auto& main_fn = prog.begin_function("main");
  main_fn.call("selfish");
  main_fn.halt();
  QuadRun run(prog.build("main"));
  const auto selfish_id = run.id("selfish");
  EXPECT_EQ(run.tool->binding_bytes(selfish_id, selfish_id), 8u);
  EXPECT_EQ(run.tool->excluding_stack(selfish_id).out_bytes, 8u);
}

TEST(QuadTool, RetPopConsumesCallersPush) {
  // The return-address dataflow: main's call writes the slot, the callee's
  // ret reads it -> a main->callee stack binding of 8 bytes.
  ProgramBuilder prog;
  auto& callee = prog.begin_function("callee");
  callee.ret();
  auto& main_fn = prog.begin_function("main");
  main_fn.call("callee");
  main_fn.halt();
  QuadRun run(prog.build("main"));
  EXPECT_EQ(run.tool->binding_bytes(run.id("main"), run.id("callee")), 8u);
}

TEST(QuadTool, MovsTransfersProducership) {
  ProgramBuilder prog;
  const auto src = prog.alloc_global("src", 64);
  const auto dst = prog.alloc_global("dst", 64);
  auto& writer = prog.begin_function("writer");
  writer.movi(R{1}, static_cast<std::int64_t>(src));
  writer.movi(R{2}, 0xab);
  writer.count_loop_imm(R{3}, 0, 8, [&] {
    writer.shli(R{4}, R{3}, 3);
    writer.add(R{4}, R{4}, R{1});
    writer.store(R{4}, 0, R{2}, 8);
  });
  writer.ret();
  auto& copier = prog.begin_function("copier");
  copier.movi(R{1}, static_cast<std::int64_t>(dst));
  copier.movi(R{2}, static_cast<std::int64_t>(src));
  copier.movs(R{1}, R{2}, 64);
  copier.ret();
  auto& reader = prog.begin_function("reader");
  reader.movi(R{1}, static_cast<std::int64_t>(dst));
  reader.load(R{2}, R{1}, 0, 8);
  reader.ret();
  auto& main_fn = prog.begin_function("main");
  main_fn.call("writer");
  main_fn.call("copier");
  main_fn.call("reader");
  main_fn.halt();
  QuadRun run(prog.build("main"));
  // copier consumed 64 bytes produced by writer...
  EXPECT_EQ(run.tool->binding_bytes(run.id("writer"), run.id("copier")), 64u);
  // ...and produced the dst bytes the reader consumed.
  EXPECT_EQ(run.tool->binding_bytes(run.id("copier"), run.id("reader")), 8u);
  EXPECT_EQ(run.tool->excluding_stack(run.id("copier")).out_unma.count(), 64u);
}

TEST(QuadTool, StackTrafficOnlyInIncludedCounters) {
  ProgramBuilder prog;
  auto& stacky = prog.begin_function("stacky");
  stacky.enter(32);
  stacky.movi(R{2}, 3);
  stacky.store(SP, 0, R{2}, 8);
  stacky.load(R{3}, SP, 0, 8);
  stacky.leave(32);
  stacky.ret();
  auto& main_fn = prog.begin_function("main");
  main_fn.call("stacky");
  main_fn.halt();
  QuadRun run(prog.build("main"));
  const auto stacky_id = run.id("stacky");
  EXPECT_EQ(run.tool->excluding_stack(stacky_id).in_bytes, 0u);
  EXPECT_EQ(run.tool->excluding_stack(stacky_id).out_unma.count(), 0u);
  EXPECT_EQ(run.tool->including_stack(stacky_id).in_bytes, 16u);  // load + ret
  EXPECT_EQ(run.tool->including_stack(stacky_id).out_unma.count(), 8u);
  // The kernel read its own stack write.
  EXPECT_EQ(run.tool->binding_bytes(stacky_id, stacky_id), 8u);
}

TEST(QuadTool, QduGraphDotContainsNodesAndEdges) {
  QuadRun run(make_simple_flow());
  const std::string dot = run.tool->qdu_graph_dot();
  EXPECT_NE(dot.find("digraph QDU"), std::string::npos);
  EXPECT_NE(dot.find("producer"), std::string::npos);
  EXPECT_NE(dot.find("consumer"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
}

TEST(QuadTool, InstrumentedCostChargesGlobalTraffic) {
  QuadRun run(make_simple_flow());
  const CostModel model;
  const auto producer = run.id("producer");
  // Cost must exceed the plain instruction count (memory work is charged).
  EXPECT_GT(run.tool->instrumented_cost(producer, model),
            run.tool->instructions(producer));
  // A kernel with only stack traffic pays the stub but not the trace cost.
  CostModel no_base = model;
  no_base.per_instruction = 0;
  no_base.per_memory_stub = 0;
  EXPECT_EQ(run.tool->instrumented_cost(producer, no_base),
            run.tool->instrumented_cost(producer, no_base));
}

TEST(QuadTool, InstrumentedProfileRanksAndTrends) {
  QuadRun run(make_simple_flow());
  std::vector<BaseShare> base{
      {run.id("producer"), 0.5},
      {run.id("consumer"), 0.5},
  };
  const auto rows = instrumented_profile(*run.tool, base);
  ASSERT_EQ(rows.size(), 2u);
  // Ranks are 1 and 2 in some order.
  EXPECT_EQ(rows[0].rank + rows[1].rank, 3u);
  for (const auto& row : rows) {
    EXPECT_GE(row.instrumented_fraction, 0.0);
    EXPECT_LE(row.instrumented_fraction, 1.0);
  }
}

TEST(QuadTool, TrendArrowsClassifyRatios) {
  EXPECT_STREQ(trend_arrow(Trend::kStrongUp), "↑↑");
  EXPECT_STREQ(trend_arrow(Trend::kFlat), "↔");
  EXPECT_STREQ(trend_arrow(Trend::kStrongDown), "↓↓");
}

TEST(QuadTool, LibraryPolicyExcludesLibraryKernels) {
  ProgramBuilder prog;
  const auto buf = prog.alloc_global("buf", 64);
  auto& lib = prog.begin_function("libcopy", vm::ImageKind::kLibrary);
  lib.movi(R{1}, static_cast<std::int64_t>(buf));
  lib.movi(R{2}, 1);
  lib.store(R{1}, 0, R{2}, 8);
  lib.ret();
  auto& main_fn = prog.begin_function("main");
  main_fn.call("libcopy");
  main_fn.movi(R{1}, static_cast<std::int64_t>(buf));
  main_fn.load(R{3}, R{1}, 0, 8);
  main_fn.halt();
  QuadRun run(prog.build("main"));
  const auto lib_id = run.id("libcopy");
  const auto main_id = run.id("main");
  // The library write is invisible: no producer recorded.
  EXPECT_EQ(run.tool->excluding_stack(lib_id).out_unma.count(), 0u);
  EXPECT_EQ(run.tool->binding_bytes(lib_id, main_id), 0u);
  // main still counts its read.
  EXPECT_EQ(run.tool->excluding_stack(main_id).in_bytes, 8u);
}


TEST(QuadTool, BindingUnmaCountsDistinctTransferAddresses) {
  // The QDU-edge annotation the paper reads buffer sizes from: re-reads
  // raise bytes but not the edge's UnMA.
  ProgramBuilder prog;
  const auto buf = prog.alloc_global("buf", 64);
  auto& producer = prog.begin_function("producer");
  producer.movi(R{1}, static_cast<std::int64_t>(buf));
  producer.movi(R{2}, 1);
  producer.store(R{1}, 0, R{2}, 8);
  producer.ret();
  auto& consumer = prog.begin_function("consumer");
  consumer.movi(R{1}, static_cast<std::int64_t>(buf));
  consumer.count_loop_imm(R{2}, 0, 10, [&] {  // ten re-reads of one slot
    consumer.load(R{3}, R{1}, 0, 8);
  });
  consumer.ret();
  auto& main_fn = prog.begin_function("main");
  main_fn.call("producer");
  main_fn.call("consumer");
  main_fn.halt();
  QuadRun run(prog.build("main"));
  const auto edges = run.tool->bindings();
  const quad::Binding* edge = nullptr;
  for (const auto& e : edges) {
    if (e.producer == run.id("producer") && e.consumer == run.id("consumer")) {
      edge = &e;
    }
  }
  ASSERT_NE(edge, nullptr);
  EXPECT_EQ(edge->bytes, 80u);  // 10 x 8 re-read bytes
  EXPECT_EQ(edge->unma, 8u);    // ... through only 8 distinct addresses
}

TEST(QuadTool, QduDotCarriesEdgeAnnotations) {
  QuadRun run(make_simple_flow());
  const std::string dot = run.tool->qdu_graph_dot();
  EXPECT_NE(dot.find(" B / "), std::string::npos);
  EXPECT_NE(dot.find("addr"), std::string::npos);
}

}  // namespace
}  // namespace tq::quad

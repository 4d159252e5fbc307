// Interpreter semantics: every opcode family, syscalls, traps, and the
// instrumentation event stream.
#include <gtest/gtest.h>

#include <cmath>

#include "gasm/builder.hpp"
#include "vm/machine.hpp"

namespace tq::vm {
namespace {

using gasm::F;
using gasm::ProgramBuilder;
using gasm::R;
using gasm::SP;

/// Run a single-function program built by `body` and return the Machine for
/// post-mortem register/memory inspection.
template <typename Body>
std::pair<RunOutcome, std::unique_ptr<Machine>> run_program(HostEnv& host, Body&& body,
                                                           EventSink* sink = nullptr) {
  ProgramBuilder prog;
  auto& f = prog.begin_function("main");
  body(prog, f);
  f.halt();
  auto program = std::make_unique<Program>(prog.build("main"));
  // Leak-free ownership dance: keep program alive alongside the machine.
  struct Bundle : Machine {
    Bundle(std::unique_ptr<Program> p, HostEnv& h) : Machine(*p, h), prog(std::move(p)) {}
    std::unique_ptr<Program> prog;
  };
  auto machine = std::make_unique<Bundle>(std::move(program), host);
  const RunOutcome result = sink ? machine->run(*sink) : machine->run();
  return {result, std::unique_ptr<Machine>(machine.release())};
}

// ---- integer ALU (parameterized sweep) ---------------------------------------

struct AluCase {
  const char* name;
  void (gasm::FunctionBuilder::*emit)(R, R, R);
  std::int64_t a;
  std::int64_t b;
  std::int64_t want;
};

class AluSemantics : public ::testing::TestWithParam<AluCase> {};

TEST_P(AluSemantics, ComputesExpectedValue) {
  const AluCase& c = GetParam();
  HostEnv host;
  auto [result, machine] = run_program(host, [&](ProgramBuilder&, auto& f) {
    f.movi(R{1}, c.a);
    f.movi(R{2}, c.b);
    (f.*c.emit)(R{3}, R{1}, R{2});
  });
  EXPECT_EQ(static_cast<std::int64_t>(machine->cpu().regs[3]), c.want) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Ops, AluSemantics,
    ::testing::Values(
        AluCase{"add", &gasm::FunctionBuilder::add, 7, 5, 12},
        AluCase{"add_wrap", &gasm::FunctionBuilder::add, -1, 1, 0},
        AluCase{"sub", &gasm::FunctionBuilder::sub, 7, 5, 2},
        AluCase{"sub_neg", &gasm::FunctionBuilder::sub, 5, 7, -2},
        AluCase{"mul", &gasm::FunctionBuilder::mul, -3, 9, -27},
        AluCase{"divs", &gasm::FunctionBuilder::divs, -20, 6, -3},
        AluCase{"rems", &gasm::FunctionBuilder::rems, -20, 6, -2},
        AluCase{"and", &gasm::FunctionBuilder::and_, 0b1100, 0b1010, 0b1000},
        AluCase{"or", &gasm::FunctionBuilder::or_, 0b1100, 0b1010, 0b1110},
        AluCase{"xor", &gasm::FunctionBuilder::xor_, 0b1100, 0b1010, 0b0110},
        AluCase{"shl", &gasm::FunctionBuilder::shl, 1, 12, 4096},
        AluCase{"shrl", &gasm::FunctionBuilder::shrl, 4096, 3, 512},
        AluCase{"shra", &gasm::FunctionBuilder::shra, -16, 2, -4},
        AluCase{"slts_true", &gasm::FunctionBuilder::slts, -5, 3, 1},
        AluCase{"slts_false", &gasm::FunctionBuilder::slts, 3, -5, 0},
        AluCase{"sltu", &gasm::FunctionBuilder::sltu, 3, 5, 1},
        AluCase{"sltu_wrapped", &gasm::FunctionBuilder::sltu, -1, 5, 0},
        AluCase{"seq_true", &gasm::FunctionBuilder::seq, 9, 9, 1},
        AluCase{"seq_false", &gasm::FunctionBuilder::seq, 9, 8, 0}),
    [](const ::testing::TestParamInfo<AluCase>& info) { return info.param.name; });

TEST(MachineAlu, ImmediateForms) {
  HostEnv host;
  auto [result, machine] = run_program(host, [](ProgramBuilder&, auto& f) {
    f.movi(R{1}, 10);
    f.addi(R{2}, R{1}, -3);   // 7
    f.muli(R{3}, R{2}, 6);    // 42
    f.andi(R{4}, R{3}, 0xf);  // 10
    f.ori(R{5}, R{4}, 0x30);  // 0x3a
    f.xori(R{6}, R{5}, 0xff); // 0xc5
    f.shli(R{7}, R{1}, 4);    // 160
    f.shrli(R{8}, R{7}, 2);   // 40
    f.movi(R{9}, -64);
    f.shrai(R{9}, R{9}, 3);   // -8
    f.sltsi(R{10}, R{1}, 11); // 1
  });
  const auto& regs = machine->cpu().regs;
  EXPECT_EQ(regs[2], 7u);
  EXPECT_EQ(regs[3], 42u);
  EXPECT_EQ(regs[4], 10u);
  EXPECT_EQ(regs[5], 0x3au);
  EXPECT_EQ(regs[6], 0xc5u);
  EXPECT_EQ(regs[7], 160u);
  EXPECT_EQ(regs[8], 40u);
  EXPECT_EQ(static_cast<std::int64_t>(regs[9]), -8);
  EXPECT_EQ(regs[10], 1u);
}

// ---- floating point -----------------------------------------------------------

TEST(MachineFp, ArithmeticAndTranscendentals) {
  HostEnv host;
  auto [result, machine] = run_program(host, [](ProgramBuilder&, auto& f) {
    f.fmovi(F{1}, 2.0);
    f.fmovi(F{2}, 0.5);
    f.fadd(F{3}, F{1}, F{2});   // 2.5
    f.fsub(F{4}, F{1}, F{2});   // 1.5
    f.fmul(F{5}, F{1}, F{2});   // 1.0
    f.fdiv(F{6}, F{1}, F{2});   // 4.0
    f.fneg(F{7}, F{1});         // -2.0
    f.fabs_(F{8}, F{7});        // 2.0
    f.fsqrt(F{9}, F{6});        // 2.0
    f.fmovi(F{10}, 0.0);
    f.fsin(F{11}, F{10});       // 0.0
    f.fcos(F{12}, F{10});       // 1.0
    f.fmin(F{13}, F{1}, F{2});  // 0.5
    f.fmax(F{14}, F{1}, F{2});  // 2.0
    f.fcmplt(R{1}, F{2}, F{1});
    f.fcmple(R{2}, F{1}, F{1});
    f.fcmpeq(R{3}, F{1}, F{8});
    f.movi(R{4}, -7);
    f.i2f(F{15}, R{4});
    f.fmovi(F{16}, 3.9);
    f.f2i(R{5}, F{16});  // truncates to 3
    f.fmovi(F{17}, -3.9);
    f.f2i(R{6}, F{17});  // truncates to -3
  });
  const auto& f = machine->cpu().fregs;
  const auto& r = machine->cpu().regs;
  EXPECT_DOUBLE_EQ(f[3], 2.5);
  EXPECT_DOUBLE_EQ(f[4], 1.5);
  EXPECT_DOUBLE_EQ(f[5], 1.0);
  EXPECT_DOUBLE_EQ(f[6], 4.0);
  EXPECT_DOUBLE_EQ(f[7], -2.0);
  EXPECT_DOUBLE_EQ(f[8], 2.0);
  EXPECT_DOUBLE_EQ(f[9], 2.0);
  EXPECT_DOUBLE_EQ(f[11], 0.0);
  EXPECT_DOUBLE_EQ(f[12], 1.0);
  EXPECT_DOUBLE_EQ(f[13], 0.5);
  EXPECT_DOUBLE_EQ(f[14], 2.0);
  EXPECT_DOUBLE_EQ(f[15], -7.0);
  EXPECT_EQ(r[1], 1u);
  EXPECT_EQ(r[2], 1u);
  EXPECT_EQ(r[3], 1u);
  EXPECT_EQ(r[5], 3u);
  EXPECT_EQ(static_cast<std::int64_t>(r[6]), -3);
}

// ---- memory ---------------------------------------------------------------------

TEST(MachineMemory, LoadStoreSizesAndSignExtension) {
  HostEnv host;
  auto [result, machine] = run_program(host, [](ProgramBuilder& prog, auto& f) {
    const auto addr = prog.alloc_global("buf", 64);
    f.movi(R{1}, static_cast<std::int64_t>(addr));
    f.movi(R{2}, -2);  // 0xfffffffffffffffe
    f.store(R{1}, 0, R{2}, 2);
    f.load(R{3}, R{1}, 0, 2);   // zero-extended: 0xfffe
    f.loads(R{4}, R{1}, 0, 2);  // sign-extended: -2
    f.loads(R{5}, R{1}, 1, 1);  // sign-extended 0xff: -1
  });
  const auto& r = machine->cpu().regs;
  EXPECT_EQ(r[3], 0xfffeu);
  EXPECT_EQ(static_cast<std::int64_t>(r[4]), -2);
  EXPECT_EQ(static_cast<std::int64_t>(r[5]), -1);
}

TEST(MachineMemory, F32ConversionsRoundTripThroughMemory) {
  HostEnv host;
  auto [result, machine] = run_program(host, [](ProgramBuilder& prog, auto& f) {
    const auto addr = prog.alloc_global("buf", 16);
    f.movi(R{1}, static_cast<std::int64_t>(addr));
    f.fmovi(F{1}, 1.5);  // exactly representable in f32
    f.fstore4(R{1}, 0, F{1});
    f.fload4(F{2}, R{1}, 0);
    f.fmovi(F{3}, 0.1);  // not representable: rounds
    f.fstore4(R{1}, 4, F{3});
    f.fload4(F{4}, R{1}, 4);
  });
  const auto& f = machine->cpu().fregs;
  EXPECT_DOUBLE_EQ(f[2], 1.5);
  EXPECT_DOUBLE_EQ(f[4], static_cast<double>(0.1f));
  EXPECT_NE(f[4], 0.1);
}

TEST(MachineMemory, MovsCopiesAndAdvances) {
  HostEnv host;
  auto [result, machine] = run_program(host, [](ProgramBuilder& prog, auto& f) {
    const auto src = prog.alloc_global("src", 128);
    const auto dst = prog.alloc_global("dst", 128);
    std::vector<std::uint8_t> init(128);
    for (std::size_t i = 0; i < init.size(); ++i) init[i] = static_cast<std::uint8_t>(i);
    prog.init_data(src, init);
    f.movi(R{1}, static_cast<std::int64_t>(dst));
    f.movi(R{2}, static_cast<std::int64_t>(src));
    f.movs(R{1}, R{2}, 64);
    f.movs(R{1}, R{2}, 64);
  });
  // Both cursors advanced by 128; the copy is byte-exact.
  const std::uint64_t dst = machine->cpu().regs[1] - 128;
  const std::uint64_t src = machine->cpu().regs[2] - 128;
  EXPECT_EQ(dst - src, 128u);  // dst was allocated right after the 128-byte src
  for (std::uint64_t i = 0; i < 128; ++i) {
    EXPECT_EQ(machine->memory().load(dst + i, 1), i & 0xff);
  }
}

// ---- control flow, predication, calls ---------------------------------------------

TEST(MachineControl, LoopComputesSum) {
  HostEnv host;
  auto [result, machine] = run_program(host, [](ProgramBuilder&, auto& f) {
    f.movi(R{10}, 0);  // sum
    f.movi(R{11}, 100);
    f.count_loop(R{12}, 1, R{11}, [&] { f.add(R{10}, R{10}, R{12}); });
  });
  EXPECT_EQ(machine->cpu().regs[10], 4950u);  // sum 1..99
}

TEST(MachineControl, PredicatedInstructionSkipsWhenFalse) {
  HostEnv host;
  auto [result, machine] = run_program(host, [](ProgramBuilder&, auto& f) {
    f.movi(R{1}, 111);
    f.movi(R{2}, 0);  // predicate false
    f.movi(R{3}, 222);
    f.mov(R{1}, R{3});
    f.predicate_last(R{2});  // must not execute
    f.movi(R{4}, 1);  // predicate true
    f.mov(R{5}, R{3});
    f.predicate_last(R{4});
  });
  EXPECT_EQ(machine->cpu().regs[1], 111u);
  EXPECT_EQ(machine->cpu().regs[5], 222u);
}

TEST(MachineControl, CallPushesAndRetPops) {
  HostEnv host;
  ProgramBuilder prog;
  auto& callee = prog.begin_function("callee");
  callee.movi(R{9}, 77);
  callee.ret();
  auto& main_fn = prog.begin_function("main");
  main_fn.call("callee");
  main_fn.halt();
  Program program = prog.build("main");
  Machine machine(program, host);
  machine.run();
  EXPECT_EQ(machine.cpu().regs[9], 77u);
  EXPECT_EQ(machine.cpu().sp_value(), kStackBase);  // balanced
}

TEST(MachineControl, RecursionWorks) {
  HostEnv host;
  ProgramBuilder prog;
  // fact(n): r1 -> r2 (accumulating via stack discipline)
  auto& fact = prog.begin_function("fact");
  {
    auto base = fact.new_label();
    fact.sltsi(R{3}, R{1}, 2);
    fact.brnz(R{3}, base);
    fact.enter(16);
    fact.store(SP, 0, R{1}, 8);
    fact.addi(R{1}, R{1}, -1);
    fact.call("fact");  // r2 = fact(n-1)
    fact.load(R{1}, SP, 0, 8);
    fact.leave(16);
    fact.mul(R{2}, R{2}, R{1});
    fact.ret();
    fact.bind(base);
    fact.movi(R{2}, 1);
    fact.ret();
  }
  auto& main_fn = prog.begin_function("main");
  main_fn.movi(R{1}, 10);
  main_fn.call("fact");
  main_fn.halt();
  Program program = prog.build("main");
  Machine machine(program, host);
  machine.run();
  EXPECT_EQ(machine.cpu().regs[2], 3628800u);
}

// ---- syscalls ------------------------------------------------------------------------

TEST(MachineSys, ReadWriteSeekFileSize) {
  HostEnv host;
  const int in = host.attach_input({'h', 'e', 'l', 'l', 'o'});
  const int out = host.create_output();
  ASSERT_EQ(in, 0);
  ASSERT_EQ(out, 1);
  auto [result, machine] = run_program(host, [](ProgramBuilder& prog, auto& f) {
    const auto buf = prog.alloc_global("buf", 64);
    // size = filesize(0)
    f.movi(R{1}, 0);
    f.sys(isa::Sys::kFileSize);
    f.mov(R{10}, R{1});
    // read 3 bytes
    f.movi(R{1}, 0);
    f.movi(R{2}, static_cast<std::int64_t>(buf));
    f.movi(R{3}, 3);
    f.sys(isa::Sys::kRead);
    f.mov(R{11}, R{1});
    // seek back to 1 and read 4 more
    f.movi(R{1}, 0);
    f.movi(R{2}, 1);
    f.sys(isa::Sys::kSeek);
    f.movi(R{1}, 0);
    f.movi(R{2}, static_cast<std::int64_t>(buf) + 8);
    f.movi(R{3}, 10);  // asks for more than remains
    f.sys(isa::Sys::kRead);
    f.mov(R{12}, R{1});
    // write "hel" to the output
    f.movi(R{1}, 1);
    f.movi(R{2}, static_cast<std::int64_t>(buf));
    f.movi(R{3}, 3);
    f.sys(isa::Sys::kWrite);
  });
  EXPECT_EQ(machine->cpu().regs[10], 5u);
  EXPECT_EQ(machine->cpu().regs[11], 3u);
  EXPECT_EQ(machine->cpu().regs[12], 4u);  // "ello"
  const auto& bytes = host.output(1);
  ASSERT_EQ(bytes.size(), 3u);
  EXPECT_EQ(bytes[0], 'h');
  EXPECT_EQ(bytes[2], 'l');
}

TEST(MachineSys, AllocReturnsZeroedAlignedBlocks) {
  HostEnv host;
  auto [result, machine] = run_program(host, [](ProgramBuilder&, auto& f) {
    f.movi(R{1}, 100);
    f.sys(isa::Sys::kAlloc);
    f.mov(R{10}, R{1});
    f.movi(R{1}, 8);
    f.sys(isa::Sys::kAlloc);
    f.mov(R{11}, R{1});
    f.load(R{12}, R{10}, 0, 8);  // zeroed
  });
  const auto& r = machine->cpu().regs;
  EXPECT_EQ(r[10] % 16, 0u);
  EXPECT_EQ(r[11] % 16, 0u);
  EXPECT_GE(r[11], r[10] + 100);
  EXPECT_EQ(r[12], 0u);
  EXPECT_GE(machine->heap_used(), 108u);
}

// ---- traps ------------------------------------------------------------------------------

TEST(MachineTrap, DivisionByZero) {
  HostEnv host;
  auto [result, machine] = run_program(host, [](ProgramBuilder&, auto& f) {
    f.movi(R{1}, 1);
    f.movi(R{2}, 0);
    f.divs(R{3}, R{1}, R{2});
  });
  EXPECT_EQ(result.status, RunStatus::kTrapped);
  EXPECT_FALSE(result.complete());
  EXPECT_NE(result.trap_kind.find("division"), std::string::npos);
}

TEST(MachineTrap, InstructionBudgetExhausted) {
  HostEnv host;
  ProgramBuilder prog;
  auto& f = prog.begin_function("main");
  const auto loop = f.new_label();
  f.bind(loop);
  f.jmp(loop);  // infinite
  Program program = prog.build("main");
  Machine machine(program, host);
  machine.set_instruction_budget(10'000);
  // Running out of budget is a graceful cut, not a guest fault.
  const RunOutcome outcome = machine.run();
  EXPECT_EQ(outcome.status, RunStatus::kTruncated);
  EXPECT_EQ(outcome.retired, 10'000u);
  EXPECT_EQ(machine.retired(), 10'000u);
}

TEST(MachineTrap, ReturnWithEmptyStack) {
  HostEnv host;
  ProgramBuilder prog;
  auto& f = prog.begin_function("main");
  f.ret();  // nothing to return to
  Program program = prog.build("main");
  Machine machine(program, host);
  EXPECT_EQ(machine.run().status, RunStatus::kTrapped);
}

TEST(MachineTrap, BadFileDescriptor) {
  HostEnv host;  // no files attached
  auto [result, machine] = run_program(host, [](ProgramBuilder&, auto& f) {
    f.movi(R{1}, 3);
    f.sys(isa::Sys::kFileSize);
  });
  EXPECT_EQ(result.status, RunStatus::kTrapped);
}

TEST(MachineTrap, OutcomeNamesFunctionAndPc) {
  HostEnv host;
  auto [result, machine] = run_program(host, [](ProgramBuilder&, auto& f) {
    f.movi(R{1}, 1);
    f.movi(R{2}, 0);
    f.divs(R{3}, R{1}, R{2});
  });
  ASSERT_EQ(result.status, RunStatus::kTrapped);
  EXPECT_EQ(result.trap_function, "main");
  EXPECT_EQ(result.trap_pc, 2u);
  // movi, movi, plus the div: its tick was delivered before the fault, so
  // it counts toward the observed prefix.
  EXPECT_EQ(result.retired, 3u);
  EXPECT_NE(result.summary().find("main"), std::string::npos);
}

TEST(MachineTrap, RunIsSingleShot) {
  HostEnv host;
  ProgramBuilder prog;
  auto& f = prog.begin_function("main");
  f.halt();
  Program program = prog.build("main");
  Machine machine(program, host);
  machine.run();
  EXPECT_DEATH(machine.run(), "single-shot");
}

// ---- event stream --------------------------------------------------------------------------

/// Records every event for post-hoc assertions.
class RecordingSink : public EventSink {
 public:
  struct Tick {
    std::uint32_t func;
    std::uint64_t retired;
    std::uint64_t mem_count;
  };
  struct Access {
    std::uint64_t retired;
    std::uint64_t ea;
    std::uint32_t size;
    bool is_read;
    bool is_stack;
    bool is_prefetch;
  };
  struct Enter {
    std::uint32_t func;
    std::uint64_t retired;
  };
  std::vector<Tick> ticks;
  std::vector<Access> accesses;
  std::vector<Enter> entries;
  std::vector<std::uint64_t> rets;  ///< retired stamps

  void on_enter(std::uint32_t func, std::uint64_t retired) override {
    entries.push_back(Enter{func, retired});
  }
  void on_tick_span(std::uint32_t func, std::uint64_t first_retired,
                    std::uint64_t count, std::uint64_t mem_count) override {
    // The interpreter emits exactly one tick per span.
    EXPECT_EQ(count, 1u);
    ticks.push_back(Tick{func, first_retired, mem_count});
  }
  void on_access(std::uint32_t, std::uint32_t, std::uint64_t retired,
                 std::uint64_t ea, std::uint32_t size, bool is_read,
                 bool is_stack, bool is_prefetch) override {
    accesses.push_back(Access{retired, ea, size, is_read, is_stack, is_prefetch});
  }
  void on_ret(std::uint32_t, std::uint32_t, std::uint64_t retired) override {
    rets.push_back(retired);
  }
};

TEST(MachineEvents, StreamCoversEveryInstructionInOrder) {
  HostEnv host;
  RecordingSink sink;
  auto [result, machine] = run_program(host, [](ProgramBuilder& prog, auto& f) {
    const auto buf = prog.alloc_global("buf", 32);
    f.movi(R{1}, static_cast<std::int64_t>(buf));
    f.movi(R{2}, 42);
    f.store(R{1}, 8, R{2}, 4);
    f.load(R{3}, R{1}, 8, 4);
    f.prefetch(R{1}, 0, 8);
  }, &sink);
  ASSERT_EQ(sink.ticks.size(), result.retired);
  // Retired stamps are 0..n-1 in order; only the memory ops carry the bit.
  for (std::size_t i = 0; i < sink.ticks.size(); ++i) {
    EXPECT_EQ(sink.ticks[i].retired, i);
    EXPECT_EQ(sink.ticks[i].mem_count, i >= 2 && i <= 4 ? 1u : 0u) << i;
  }
  ASSERT_EQ(sink.accesses.size(), 3u);
  // The store is a 4-byte write.
  const auto& st = sink.accesses[0];
  EXPECT_EQ(st.retired, 2u);
  EXPECT_FALSE(st.is_read);
  EXPECT_EQ(st.size, 4u);
  // The load reads the same address.
  const auto& ld = sink.accesses[1];
  EXPECT_EQ(ld.retired, 3u);
  EXPECT_TRUE(ld.is_read);
  EXPECT_EQ(ld.size, 4u);
  EXPECT_EQ(ld.ea, st.ea);
  // The prefetch is flagged.
  const auto& pf = sink.accesses[2];
  EXPECT_TRUE(pf.is_prefetch);
  EXPECT_TRUE(pf.is_read);
  EXPECT_EQ(pf.size, 8u);
  EXPECT_FALSE(st.is_prefetch);
  EXPECT_FALSE(ld.is_prefetch);
}

TEST(MachineEvents, CallAndRetCarryStackRefsAndEntryOrder) {
  HostEnv host;
  ProgramBuilder prog;
  auto& callee = prog.begin_function("callee");
  callee.ret();
  auto& main_fn = prog.begin_function("main");
  main_fn.call("callee");
  main_fn.halt();
  Program program = prog.build("main");
  RecordingSink sink;
  Machine machine(program, host);
  machine.run(sink);
  // Entries: main (program start), then callee, stamped with the call's
  // retired count.
  const auto main_id = *program.find("main");
  const auto callee_id = *program.find("callee");
  ASSERT_EQ(sink.entries.size(), 2u);
  EXPECT_EQ(sink.entries[0].func, main_id);
  EXPECT_EQ(sink.entries[0].retired, 0u);
  EXPECT_EQ(sink.entries[1].func, callee_id);
  EXPECT_EQ(sink.entries[1].retired, 0u);
  // The call writes 8 stack bytes just below the initial SP; ret reads them
  // back, then reports the return.
  ASSERT_EQ(sink.accesses.size(), 2u);
  const auto& push = sink.accesses[0];
  EXPECT_FALSE(push.is_read);
  EXPECT_EQ(push.size, 8u);
  EXPECT_EQ(push.ea, kStackBase - 8);
  EXPECT_TRUE(push.is_stack);
  const auto& pop = sink.accesses[1];
  EXPECT_TRUE(pop.is_read);
  EXPECT_EQ(pop.size, 8u);
  EXPECT_EQ(pop.ea, push.ea);
  EXPECT_EQ(pop.retired, 1u);
  ASSERT_EQ(sink.rets.size(), 1u);
  EXPECT_EQ(sink.rets[0], 1u);
  // Both carry the memory bit; the ticks name main, callee, main.
  ASSERT_EQ(sink.ticks.size(), 3u);
  EXPECT_EQ(sink.ticks[0].func, main_id);
  EXPECT_EQ(sink.ticks[0].mem_count, 1u);
  EXPECT_EQ(sink.ticks[1].func, callee_id);
  EXPECT_EQ(sink.ticks[1].mem_count, 1u);
  EXPECT_EQ(sink.ticks[2].func, main_id);
}

TEST(MachineEvents, PredicatedOffStillTicksButMakesNoAccess) {
  HostEnv host;
  RecordingSink sink;
  auto [result, machine] = run_program(host, [](ProgramBuilder& prog, auto& f) {
    const auto buf = prog.alloc_global("buf", 16);
    f.movi(R{1}, static_cast<std::int64_t>(buf));
    f.movi(R{2}, 0);  // predicate: false
    f.movi(R{3}, 99);
    f.store(R{1}, 0, R{3}, 8);
    f.predicate_last(R{2});
  }, &sink);
  // The store still retires, with its memory bit from the static width...
  ASSERT_EQ(sink.ticks.size(), result.retired);
  EXPECT_EQ(sink.ticks[3].retired, 3u);
  EXPECT_EQ(sink.ticks[3].mem_count, 1u);
  // ...but produces no access and does not happen architecturally.
  EXPECT_TRUE(sink.accesses.empty());
  EXPECT_EQ(machine->memory().load(machine->cpu().regs[1], 8), 0u);
}

TEST(MachineEvents, MovsCarriesBothRefs) {
  HostEnv host;
  RecordingSink sink;
  auto [result, machine] = run_program(host, [](ProgramBuilder& prog, auto& f) {
    const auto src = prog.alloc_global("src", 64);
    const auto dst = prog.alloc_global("dst", 64);
    f.movi(R{1}, static_cast<std::int64_t>(dst));
    f.movi(R{2}, static_cast<std::int64_t>(src));
    f.movs(R{1}, R{2}, 32);
  }, &sink);
  // One read, then one write, both stamped with the movs.
  ASSERT_EQ(sink.accesses.size(), 2u);
  const auto& rd = sink.accesses[0];
  const auto& wr = sink.accesses[1];
  EXPECT_TRUE(rd.is_read);
  EXPECT_FALSE(wr.is_read);
  EXPECT_EQ(rd.retired, 2u);
  EXPECT_EQ(wr.retired, 2u);
  EXPECT_EQ(rd.size, 32u);
  EXPECT_EQ(wr.size, 32u);
  EXPECT_NE(rd.ea, wr.ea);
}

}  // namespace
}  // namespace tq::vm

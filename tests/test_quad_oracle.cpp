// QuadTool against an independent reference model: a byte-at-a-time
// std::map / std::set transcription of QUAD's semantics. Randomized access
// streams, plus scripted ones that walk the shadow cell's memo and the
// binding store's edge memo through their edge cases, are fed serially
// (encoded as session records, through the batch decode a session uses) and
// through the sharded pipeline entry points (1-4 shards, page-split pieces
// routed as the pipeline routes them); every observable result must match
// the model exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "gasm/builder.hpp"
#include "quad/buffer_report.hpp"
#include "quad/quad_tool.hpp"
#include "support/rng.hpp"

namespace tq::quad {
namespace {

constexpr std::uint32_t kKernels = 20;  // more than 16 kernels share pages
constexpr std::uint64_t kPageSize = ShadowMemory::kPageSize;

struct Access {
  std::uint32_t kernel = 0;
  std::uint64_t ea = 0;
  std::uint32_t size = 0;
  bool is_read = false;
  bool is_stack = false;
};

struct World {
  vm::Program program;
  std::uint64_t lo = 0;  ///< start of the accessed range (page aligned)
  std::uint64_t hi = 0;  ///< end of the accessed range
};

/// kKernels trivial functions (ids 0..kKernels-1) and a few globals for the
/// buffer report, one of them straddling a page boundary.
World make_world() {
  gasm::ProgramBuilder prog;
  const std::uint64_t small = prog.alloc_global("small", 24);
  prog.alloc_global("straddle", kPageSize + 100);
  const std::uint64_t tail = prog.alloc_global("tail", 300);
  for (std::uint32_t k = 0; k + 1 < kKernels; ++k) {
    prog.begin_function("k" + std::to_string(k)).ret();
  }
  prog.begin_function("main").halt();
  World world;
  world.program = prog.build("main");
  world.lo = small & ~(kPageSize - 1);
  world.hi = (tail + 300 + kPageSize) & ~(kPageSize - 1);
  return world;
}

/// QUAD's semantics, one byte at a time.
class Reference {
 public:
  struct Counters {
    std::uint64_t in_bytes = 0;
    std::uint64_t out_bytes = 0;
    std::set<std::uint64_t> in_unma;
    std::set<std::uint64_t> out_unma;
  };
  struct Edge {
    std::uint64_t bytes = 0;
    std::set<std::uint64_t> unma;
  };

  Reference() : incl(kKernels), excl(kKernels), global_accesses(kKernels),
                global_bytes(kKernels) {}

  void access(const Access& a) {
    const std::uint32_t k = a.kernel;
    if (!a.is_stack) {
      ++global_accesses[k];
      global_bytes[k] += a.size;
    }
    if (a.is_read) {
      incl[k].in_bytes += a.size;
      if (!a.is_stack) excl[k].in_bytes += a.size;
    }
    for (std::uint64_t addr = a.ea; addr < a.ea + a.size; ++addr) {
      if (!a.is_read) {
        incl[k].out_unma.insert(addr);
        if (!a.is_stack) excl[k].out_unma.insert(addr);
        producer[addr] = k;
        continue;
      }
      incl[k].in_unma.insert(addr);
      if (!a.is_stack) excl[k].in_unma.insert(addr);
      const auto it = producer.find(addr);
      if (it == producer.end()) continue;
      ++incl[it->second].out_bytes;
      if (!a.is_stack) ++excl[it->second].out_bytes;
      Edge& edge = edges[{it->second, k}];
      ++edge.bytes;
      edge.unma.insert(addr);
    }
  }

  /// bindings() as the original map-backed store produced them: key order,
  /// then the same unstable sort by descending bytes.
  std::vector<Binding> bindings() const {
    std::vector<Binding> out;
    for (const auto& [key, edge] : edges) {
      out.push_back(Binding{key.first, key.second, edge.bytes, edge.unma.size()});
    }
    std::sort(out.begin(), out.end(),
              [](const Binding& a, const Binding& b) { return a.bytes > b.bytes; });
    return out;
  }

  std::vector<Counters> incl;
  std::vector<Counters> excl;
  std::vector<std::uint64_t> global_accesses;
  std::vector<std::uint64_t> global_bytes;
  std::map<std::uint64_t, std::uint32_t> producer;
  std::map<std::pair<std::uint32_t, std::uint32_t>, Edge> edges;
};

/// Per-kernel instruction and memory-reference counts for the cost model,
/// fed to both sides through the control events.
struct Ticks {
  std::vector<std::uint64_t> instrs = std::vector<std::uint64_t>(kKernels);
  std::vector<std::uint64_t> mem_refs = std::vector<std::uint64_t>(kKernels);
};

/// Scripted streams that force every memo edge case, on a word `base`.
std::vector<Access> scripted(std::uint64_t base) {
  std::vector<Access> s;
  const auto rd = [&](std::uint32_t k, std::uint64_t ea, std::uint32_t size,
                      bool stack = false) { s.push_back({k, ea, size, true, stack}); };
  const auto wr = [&](std::uint32_t k, std::uint64_t ea, std::uint32_t size,
                      bool stack = false) { s.push_back({k, ea, size, false, stack}); };
  // A reader's memo must not survive another kernel rewriting the word.
  wr(1, base, 8);
  rd(2, base, 8);
  rd(2, base, 8);
  wr(3, base, 8);
  rd(2, base, 8);
  wr(3, base, 4);
  rd(2, base + 4, 4);
  wr(1, base + 4, 4);
  rd(2, base, 8);
  // 2- and 4-byte writes make a word mixed, then collapse it to uniform.
  const std::uint64_t w = base + 8;
  wr(4, w, 8);
  rd(5, w, 8);
  wr(6, w + 2, 2);
  rd(5, w, 8);
  rd(5, w + 2, 2);
  wr(7, w + 4, 4);
  rd(5, w, 4);
  rd(5, w + 4, 4);
  wr(4, w + 2, 2);
  wr(4, w + 4, 4);
  rd(5, w, 8);
  rd(5, w, 8);
  wr(4, w, 1);
  wr(8, w + 7, 1);
  rd(5, w + 6, 2);
  wr(8, w, 7);
  rd(5, w, 8);
  rd(5, w, 8);
  // One word alternating between stack and non-stack accesses.
  const std::uint64_t t = base + 16;
  wr(9, t, 8, true);
  wr(9, t, 8, false);
  wr(9, t, 4, true);
  wr(9, t + 4, 4, false);
  wr(9, t, 8, false);
  wr(9, t, 8, true);
  rd(10, t, 8, true);
  rd(10, t, 8, false);
  rd(10, t, 4, true);
  rd(10, t, 4, false);
  rd(10, t + 4, 4, true);
  rd(10, t, 8, false);
  rd(10, t, 2, true);
  rd(10, t + 2, 2, false);
  rd(10, t, 8, true);
  wr(11, t, 8, true);
  rd(10, t, 8, false);
  wr(11, t, 8, false);
  rd(10, t, 8, false);
  // 64-byte and unaligned multi-word accesses.
  wr(12, base + 32, 64);
  rd(13, base + 32, 64);
  rd(13, base + 40, 8);
  wr(12, base + 37, 16);
  rd(13, base + 33, 30);
  rd(13, base + 40, 8);
  // Memo flag transitions, each on a fresh word read by a fresh kernel, so
  // the sets cannot already hold the bytes a wrong hit would skip: a stack
  // read extending an excl-covered memo, an excl read extending a
  // stack-only memo, and partial non-stack rewrites of a stack-written word.
  const std::uint64_t x = base + 104;
  wr(1, x, 8);
  rd(16, x, 4, false);
  rd(16, x + 4, 4, true);
  rd(16, x + 4, 4, false);
  const std::uint64_t y = base + 112;
  wr(1, y, 8);
  rd(17, y, 4, true);
  rd(17, y + 4, 4, false);
  rd(17, y, 4, false);
  const std::uint64_t z = base + 120;
  wr(15, z, 8, true);
  wr(15, z, 4, false);
  wr(15, z + 4, 4, false);
  return s;
}

/// The edge memo's cases, on the words from `base`: reader 19 alternates
/// between the words of producers 1 and 2 and a word they split, so its
/// edges repeat (memo hits) and alternate on the word and the byte paths.
/// In between, new producer->reader pairs append edges, so the edge vector
/// reallocates and its index grows past 16 slots (18 edges in all).
std::vector<Access> edge_memo_stream(std::uint64_t base) {
  std::vector<Access> s;
  const std::uint64_t a = base;
  const std::uint64_t b = base + 8;
  const std::uint64_t split = base + 16;
  s.push_back({1, a, 8, false, false});
  s.push_back({2, b, 8, false, false});
  s.push_back({1, split, 4, false, false});
  s.push_back({2, split + 4, 4, false, false});
  for (std::uint32_t i = 0; i < 16; ++i) {
    const bool stack = i % 3 == 0;
    s.push_back({19, a, 8, true, stack});
    s.push_back({19, a + 4, 4, true, !stack});
    const std::uint64_t fresh = base + 24 + 8 * i;
    s.push_back({3 + i % 15, fresh, 8, false, stack});
    s.push_back({i < 8 ? 18u : 0u, fresh + (i % 2) * 4, 4, true, false});
    s.push_back({19, b, 2, true, stack});
    s.push_back({19, b, 8, true, false});
    s.push_back({19, split, 8, true, stack});
    s.push_back({19, a, 1, true, false});
  }
  return s;
}

/// wfs's sub-word shape, on the words from `base`: two kernels each write
/// one aligned 4-byte half of a fresh word, and a third reads each half and
/// the whole word, under every mix of stack and non-stack accesses; then
/// the low half's writer takes the high half too, which makes the word
/// uniform again. Then the same with the high half written first, and
/// rewritten by its own producer after the low half's write. Last, a 1-byte
/// and a 2-byte write into never-written words, each read around.
std::vector<Access> half_word_stream(std::uint64_t base) {
  std::vector<Access> s;
  for (std::uint32_t v = 0; v < 8; ++v) {
    const std::uint64_t w = base + 8 * v;
    const bool lo_stack = (v & 1) != 0;
    const bool hi_stack = (v & 2) != 0;
    const bool rd_stack = (v & 4) != 0;
    s.push_back({1, w, 4, false, lo_stack});
    s.push_back({2, w + 4, 4, false, hi_stack});
    s.push_back({3, w, 4, true, rd_stack});
    s.push_back({3, w + 4, 4, true, !rd_stack});
    s.push_back({3, w, 8, true, rd_stack});
    s.push_back({3, w + 4, 4, true, rd_stack});
    s.push_back({1, w + 4, 4, false, hi_stack});
    s.push_back({3, w, 8, true, !rd_stack});
    s.push_back({3, w, 4, true, rd_stack});
  }
  for (std::uint32_t v = 0; v < 8; ++v) {
    const std::uint64_t w = base + 80 + 8 * v;
    const bool lo_stack = (v & 1) != 0;
    const bool hi_stack = (v & 2) != 0;
    const bool again_stack = (v & 4) != 0;
    s.push_back({2, w + 4, 4, false, hi_stack});
    s.push_back({1, w, 4, false, lo_stack});
    s.push_back({2, w + 4, 4, false, again_stack});
    s.push_back({1, w, 4, false, !lo_stack});
    s.push_back({3, w + 4, 4, true, again_stack});
    s.push_back({3, w, 8, true, lo_stack});
  }
  const std::uint64_t one = base + 64;
  s.push_back({4, one + 3, 1, false, false});
  s.push_back({5, one, 8, true, false});
  s.push_back({5, one + 3, 1, true, true});
  s.push_back({4, one + 3, 1, false, true});
  s.push_back({5, one + 3, 1, true, false});
  const std::uint64_t two = base + 72;
  s.push_back({6, two + 2, 2, false, true});
  s.push_back({5, two, 8, true, false});
  s.push_back({5, two + 2, 2, true, false});
  s.push_back({5, two, 4, true, true});
  return s;
}

/// Writes to each of `pages` pages from `lo`, then, from access `merge_at`
/// on, reads of every page before any write touches it again, then writes
/// and reads once more. Fed through shards, the reads after the merge hit
/// pages the other shards owned, so they only see their producers if the
/// merged shadow found the adopted pages. Each page gets a uniform word,
/// a word of two half producers, a split half (the escape), a 64-byte run
/// and a word across into the next page.
std::vector<Access> adopted_page_stream(std::uint64_t lo, std::uint32_t pages,
                                        std::size_t& merge_at) {
  std::vector<Access> s;
  const auto writer = [](std::uint32_t p) { return 1 + p % 8; };
  const auto reader = [](std::uint32_t p) { return 10 + p % 8; };
  for (std::uint32_t p = 0; p < pages; ++p) {
    const std::uint64_t page = lo + p * kPageSize;
    s.push_back({writer(p), page, 8, false, false});
    s.push_back({writer(p), page + 8, 4, false, p % 2 == 1});
    s.push_back({writer(p) + 1, page + 12, 4, false, false});
    s.push_back({writer(p), page + 16, 4, false, false});
    s.push_back({writer(p) + 1, page + 17, 1, false, p % 2 == 0});
    s.push_back({writer(p), page + 64, 64, false, false});
    if (p + 1 < pages) s.push_back({writer(p), page + kPageSize - 4, 8, false, false});
  }
  merge_at = s.size();
  for (std::uint32_t p = 0; p < pages; ++p) {
    const std::uint64_t page = lo + p * kPageSize;
    s.push_back({reader(p), page, 8, true, false});
    s.push_back({reader(p), page + 8, 8, true, p % 2 == 0});
    s.push_back({reader(p), page + 12, 4, true, false});
    s.push_back({reader(p), page + 16, 4, true, false});
    s.push_back({reader(p), page + 72, 48, true, false});
    if (p + 1 < pages) s.push_back({reader(p), page + kPageSize - 4, 8, true, false});
  }
  for (std::uint32_t p = 0; p < pages; ++p) {
    const std::uint64_t page = lo + p * kPageSize;
    s.push_back({0, page + 4, 8, false, false});
    s.push_back({reader(p) + 1, page, 16, true, false});
    s.push_back({reader(p) + 1, page + 16, 2, true, false});
  }
  return s;
}

/// A random stream of `kernels` kernels over a small set of hot words (so
/// memos hit and break constantly) plus the whole range, with accesses
/// crossing words and pages. Few kernels make same-kernel rewrites and
/// memo hits common; many make memo evictions common.
std::vector<Access> random_stream(const World& world, std::uint32_t kernels,
                                  std::uint64_t seed, std::size_t count) {
  SplitMix64 rng(seed);
  std::vector<std::uint64_t> hot;
  for (int i = 0; i < 24; ++i) {
    hot.push_back(world.lo + rng.next_below((world.hi - world.lo) / 8) * 8);
  }
  hot.push_back(world.lo + kPageSize - 8);  // the last word of a page
  static constexpr std::uint32_t kSizes[] = {1, 2, 4, 8, 8, 8, 8, 16, 64};
  std::vector<Access> out;
  for (std::size_t i = 0; i < count; ++i) {
    Access a;
    a.kernel = static_cast<std::uint32_t>(rng.next_below(kernels));
    a.is_read = rng.next_below(3) != 0;
    a.is_stack = rng.next_below(4) == 0;
    a.size = kSizes[rng.next_below(std::size(kSizes))];
    const std::uint64_t shape = rng.next_below(10);
    if (shape < 7) {
      // Aligned inside a hot word (or a hot run of words).
      a.ea = hot[rng.next_below(hot.size())];
      if (a.size < 8) a.ea += rng.next_below(8 / a.size) * a.size;
    } else if (shape < 9) {
      a.ea = world.lo + rng.next_below(world.hi - world.lo - 64);  // unaligned
    } else {
      // Crossing a page boundary.
      const std::uint64_t page =
          world.lo + kPageSize * (1 + rng.next_below((world.hi - world.lo) / kPageSize - 1));
      a.ea = page - 1 - rng.next_below(a.size > 1 ? a.size - 1 : 1);
      if (a.size == 1) a.ea = page;
    }
    out.push_back(a);
  }
  return out;
}

/// The session's wire form of one access (KernelAttribution's encoding).
session::Record access_record(const Access& a, std::uint64_t retired) {
  return {.a = retired,
          .b = a.ea,
          .func = a.kernel,
          .c = 0,
          .kernel = a.kernel,
          .tag = session::kAccess | session::flag(a.is_read, session::kRead) |
                 session::flag(a.is_stack, session::kStack) |
                 a.size << session::kSizeShift};
}

/// Drive `tool` with `stream`: serially (shards == 0) as a session does,
/// encoded into one batch of records that on_batch decodes; or through
/// prepare_shards / apply_access_shard / merge_shards with page-split
/// pieces routed to shard (page % shards), as the parallel pipeline does.
/// A sharded feed merges before access `merge_at` and goes on serially.
void feed(QuadTool& tool, const std::vector<Access>& stream, unsigned shards,
          std::size_t merge_at, Ticks& ticks, SplitMix64& rng) {
  session::Batch batch(stream.size() + stream.size() / 64 + 1);
  if (shards > 0) tool.prepare_shards(shards);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (shards > 0 && i == merge_at) {
      tool.merge_shards();
      shards = 0;
    }
    const Access& a = stream[i];
    if (shards == 0) {
      batch.records[batch.size++] = access_record(a, i);
    } else {
      session::AccessEvent event;
      event.kernel = a.kernel;
      event.ea = a.ea;
      event.size = a.size;
      event.is_read = a.is_read;
      event.is_stack = a.is_stack;
      std::uint64_t cursor = a.ea;
      std::uint64_t remaining = a.size;
      bool first = true;
      while (remaining > 0) {
        const std::uint64_t page_end = (cursor / kPageSize + 1) * kPageSize;
        session::AccessEvent piece = event;
        piece.ea = cursor;
        piece.size = static_cast<std::uint32_t>(std::min(remaining, page_end - cursor));
        tool.apply_access_shard(static_cast<unsigned>((cursor / kPageSize) % shards),
                                piece, first);
        first = false;
        cursor += piece.size;
        remaining -= piece.size;
      }
    }
    if (i % 64 == 0) {
      session::TickRunEvent run;
      run.kernel = a.kernel;
      run.func = a.kernel;
      run.first_retired = i;
      run.count = 1 + rng.next_below(500);
      run.mem_count = rng.next_below(run.count);
      if (shards == 0) {
        batch.records[batch.size++] = {.a = run.first_retired,
                                       .b = run.count,
                                       .func = run.func,
                                       .c = static_cast<std::uint32_t>(run.mem_count),
                                       .kernel = run.kernel,
                                       .tag = session::kTickRun};
      } else {
        tool.on_tick_run(run);
      }
      ticks.instrs[a.kernel] += run.count;
      ticks.mem_refs[a.kernel] += run.mem_count;
    }
  }
  if (shards > 0) tool.merge_shards();
  tool.on_batch(tool.event_interests(), batch);
}

void expect_set(const AddressSet& got, const std::set<std::uint64_t>& want,
                const std::string& what) {
  ASSERT_EQ(got.count(), want.size()) << what;
  for (std::uint64_t addr : want) ASSERT_TRUE(got.contains(addr)) << what << " @" << addr;
}

std::uint64_t expected_cost(const Reference& ref, const Ticks& ticks,
                            std::uint32_t k, const CostModel& model) {
  const std::uint64_t working_set = ref.excl[k].in_unma.size() + ref.excl[k].out_unma.size();
  const double scale = working_set <= model.hot_set_bytes ? model.hot_discount : 1.0;
  const double trace =
      scale * (static_cast<double>(ref.global_accesses[k] * model.per_global_trace) +
               static_cast<double>(ref.global_bytes[k] * model.per_global_byte));
  return ticks.instrs[k] * model.per_instruction +
         ticks.mem_refs[k] * model.per_memory_stub + static_cast<std::uint64_t>(trace);
}

void expect_matches(const QuadTool& tool, const Reference& ref, const Ticks& ticks,
                    const vm::Program& program) {
  for (std::uint32_t k = 0; k < kKernels; ++k) {
    const std::string at = "kernel " + std::to_string(k);
    for (int mode = 0; mode < 2; ++mode) {
      const KernelCounters& got = mode == 0 ? tool.including_stack(k) : tool.excluding_stack(k);
      const Reference::Counters& want = mode == 0 ? ref.incl[k] : ref.excl[k];
      const std::string what = at + (mode == 0 ? " incl" : " excl");
      EXPECT_EQ(got.in_bytes, want.in_bytes) << what;
      EXPECT_EQ(got.out_bytes, want.out_bytes) << what;
      expect_set(got.in_unma, want.in_unma, what + " in_unma");
      expect_set(got.out_unma, want.out_unma, what + " out_unma");
    }
    EXPECT_EQ(tool.instructions(k), ticks.instrs[k]) << at;
    CostModel tight;
    tight.hot_set_bytes = 64;
    for (const CostModel& model : {CostModel{}, tight}) {
      EXPECT_EQ(tool.instrumented_cost(k, model), expected_cost(ref, ticks, k, model)) << at;
    }
    for (std::uint32_t c = 0; c < kKernels; ++c) {
      const auto it = ref.edges.find({k, c});
      EXPECT_EQ(tool.binding_bytes(k, c), it == ref.edges.end() ? 0 : it->second.bytes)
          << at << " -> " << c;
    }
  }
  EXPECT_EQ(tool.binding_bytes(0x10000, 0), 0u);

  const std::vector<Binding> got = tool.bindings();
  const std::vector<Binding> want = ref.bindings();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].producer, want[i].producer) << "binding " << i;
    EXPECT_EQ(got[i].consumer, want[i].consumer) << "binding " << i;
    EXPECT_EQ(got[i].bytes, want[i].bytes) << "binding " << i;
    EXPECT_EQ(got[i].unma, want[i].unma) << "binding " << i;
  }

  std::vector<BufferRow> rows;
  for (std::uint32_t k = 0; k < kKernels; ++k) {
    for (const vm::GlobalVar& var : program.globals()) {
      const auto in_var = [&](const std::set<std::uint64_t>& set) {
        return static_cast<std::uint64_t>(std::distance(
            set.lower_bound(var.addr), set.lower_bound(var.addr + var.size)));
      };
      const std::uint64_t reads = in_var(ref.excl[k].in_unma);
      const std::uint64_t writes = in_var(ref.excl[k].out_unma);
      if (var.size == 0 || (reads == 0 && writes == 0)) continue;
      BufferRow row;
      row.kernel = k;
      row.buffer = var.name;
      row.read_unma = reads;
      row.write_unma = writes;
      rows.push_back(row);
    }
  }
  const std::vector<BufferRow> report = buffer_report(tool, program);
  ASSERT_EQ(report.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(report[i].kernel, rows[i].kernel) << "buffer row " << i;
    EXPECT_EQ(report[i].buffer, rows[i].buffer) << "buffer row " << i;
    EXPECT_EQ(report[i].read_unma, rows[i].read_unma) << "buffer row " << i;
    EXPECT_EQ(report[i].write_unma, rows[i].write_unma) << "buffer row " << i;
  }
}

/// `stream` fed serially and through 1-4 shards must match the model;
/// the sharded feeds merge before access `merge_at`.
void check_stream(const World& world, const std::vector<Access>& stream,
                  std::size_t merge_at = SIZE_MAX) {
  Reference ref;
  for (const Access& a : stream) ref.access(a);
  for (unsigned shards = 0; shards <= 4; ++shards) {
    SCOPED_TRACE(shards == 0 ? std::string("serial") : std::to_string(shards) + " shards");
    QuadTool tool(world.program);
    Ticks ticks;
    SplitMix64 rng(shards);
    feed(tool, stream, shards, merge_at, ticks, rng);
    expect_matches(tool, ref, ticks, world.program);
  }
}

TEST(QuadOracle, ScriptedMemoEdgeCases) {
  const World world = make_world();
  // Once in the middle of a page, once straddling a page boundary (so the
  // multi-word accesses split across shards).
  std::vector<Access> stream = scripted(world.lo + 512);
  const std::vector<Access> straddling = scripted(world.lo + kPageSize - 40);
  stream.insert(stream.end(), straddling.begin(), straddling.end());
  check_stream(world, stream);
}

TEST(QuadOracle, ManyKernelsShareOnePage) {
  const World world = make_world();
  std::vector<Access> stream;
  const std::uint64_t page = world.lo + kPageSize;
  for (int round = 0; round < 3; ++round) {
    for (std::uint32_t k = 0; k < kKernels; ++k) {
      const std::uint64_t word = page + 8 * ((k * 7 + round) % 16);
      stream.push_back({k, word, 8, false, round == 1});
      stream.push_back({(k + 1) % kKernels, word, 8, true, false});
      stream.push_back({(k + 2) % kKernels, word + 4, 4, true, round == 2});
      stream.push_back({(k + 1) % kKernels, word, 8, true, false});
    }
  }
  check_stream(world, stream);
}

TEST(QuadOracle, EdgeMemoAcrossGrowthAndMerge) {
  const World world = make_world();
  std::vector<Access> stream = edge_memo_stream(world.lo + 512);
  const std::vector<Access> straddling = edge_memo_stream(world.lo + kPageSize - 64);
  stream.insert(stream.end(), straddling.begin(), straddling.end());
  check_stream(world, stream);
  // The sharded feeds merge halfway, and the reads go on against the
  // merged binding store.
  check_stream(world, stream, stream.size() / 2);
}

TEST(QuadOracle, HalfWordWrites) {
  const World world = make_world();
  std::vector<Access> stream = half_word_stream(world.lo + 512);
  const std::vector<Access> straddling = half_word_stream(world.lo + kPageSize - 40);
  stream.insert(stream.end(), straddling.begin(), straddling.end());
  check_stream(world, stream);
}

/// The same program, accessing two pages on each side of 2^31, where the
/// shadow's page directory ends: both lookup paths, and accesses that cross
/// from one to the other.
World make_limit_world() {
  World straddling = make_world();
  straddling.lo = ShadowMemory::kDirectoryPages * kPageSize - 2 * kPageSize;
  straddling.hi = straddling.lo + 4 * kPageSize;
  return straddling;
}

TEST(QuadOracle, ReadsAfterMergeFindAdoptedPages) {
  // Eight pages hold a page of every shard for 2, 3 and 4 shards, so shard
  // 0 has a directory of its own when the others' pages are adopted.
  for (const World& w : {make_world(), make_limit_world()}) {
    SCOPED_TRACE("from " + std::to_string(w.lo));
    std::size_t merge_at = 0;
    const std::vector<Access> stream = adopted_page_stream(w.lo, 8, merge_at);
    check_stream(w, stream, merge_at);
  }
}

TEST(QuadOracle, RandomStreams) {
  const World world = make_world();
  const World limit = make_limit_world();
  for (const World* w : {&world, &limit}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const std::uint32_t kernels = seed % 2 == 0 ? kKernels : 2;
      SCOPED_TRACE("seed " + std::to_string(seed) + ", " + std::to_string(kernels) +
                   " kernels, from " + std::to_string(w->lo));
      check_stream(*w, random_stream(*w, kernels, seed, 4000));
    }
  }
}

}  // namespace
}  // namespace tq::quad

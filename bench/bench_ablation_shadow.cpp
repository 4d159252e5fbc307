// Ablation: QUAD's shadow-memory substrate under different access patterns.
//
// DESIGN.md calls out the shadow memory (byte-granular last-producer map)
// as the design choice QUAD's cost hinges on. This bench measures, with
// google-benchmark, the mark/lookup throughput for the access patterns the
// wfs kernels actually exhibit — sequential streaming (wav_store), strided
// scatter (AudioIo frames), small hot working set (fft1d), and the chaotic
// probe/build order of a 16 MiB hash-join table (4096 random pages, so most
// lookups miss the page directory's last-hit entry and take its probe path)
// — plus the memory footprint of the shadow pages and UnMA bitmaps each
// pattern costs.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "quad/shadow.hpp"
#include "support/address_set.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace {

using namespace tq;

constexpr std::uint64_t kBase = 0x1000'0000;

void BM_ShadowMarkSequential(benchmark::State& state) {
  const std::uint64_t span = static_cast<std::uint64_t>(state.range(0));
  quad::ShadowMemory shadow;
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    for (std::uint64_t addr = kBase; addr < kBase + span; addr += 8) {
      shadow.mark_write(addr, 8, 1);
    }
    bytes += span;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_ShadowMarkSequential)->Arg(1 << 16)->Arg(1 << 20);

void BM_ShadowMarkStrided(benchmark::State& state) {
  const std::uint64_t stride = static_cast<std::uint64_t>(state.range(0));
  quad::ShadowMemory shadow;
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    for (std::uint64_t i = 0; i < 16384; ++i) {
      shadow.mark_write(kBase + i * stride, 4, 2);
    }
    bytes += 16384 * 4;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_ShadowMarkStrided)->Arg(64)->Arg(4096);

void BM_ShadowLookupHot(benchmark::State& state) {
  quad::ShadowMemory shadow;
  shadow.mark_write(kBase, 1 << 16, 3);
  SplitMix64 rng(7);
  std::uint64_t sum = 0;
  for (auto _ : state) {
    std::uint64_t local = 0;
    shadow.for_each_producer(kBase + (rng.next_below(1 << 15)), 8,
                             [&](quad::ProducerId p, std::uint32_t len) {
                               local += static_cast<std::uint64_t>(p) * len;
                             });
    sum += local;
  }
  benchmark::DoNotOptimize(sum);
}
BENCHMARK(BM_ShadowLookupHot);

// A QUAD read then write of one 8-byte slot at a random place in a 16 MiB
// table (4096 pages), the shape of the hashjoin workload's table: shadow
// lookup, shadow mark and an UnMA insert per access, each on a page that
// is rarely the one touched last.
void BM_ShadowChaotic(benchmark::State& state) {
  constexpr std::uint64_t kTableBytes = 4096 * quad::ShadowMemory::kPageSize;
  quad::ShadowMemory shadow;
  AddressSet unma;
  for (std::uint64_t addr = kBase; addr < kBase + kTableBytes; addr += 8) {
    shadow.mark_write(addr, 8, 1);
  }
  SplitMix64 rng(13);
  std::uint64_t sum = 0;
  for (auto _ : state) {
    const std::uint64_t addr = kBase + rng.next_below(kTableBytes / 8) * 8;
    shadow.for_each_producer(addr, 8, [&](quad::ProducerId p, std::uint32_t len) {
      sum += static_cast<std::uint64_t>(p) * len;
    });
    unma.insert_range(addr, 8);
    shadow.mark_write(addr, 8, 2);
  }
  benchmark::DoNotOptimize(sum);
  state.counters["resident_pages"] = static_cast<double>(shadow.resident_pages());
}
BENCHMARK(BM_ShadowChaotic);

void BM_AddressSetInsert(benchmark::State& state) {
  const bool random = state.range(0) != 0;
  SplitMix64 rng(11);
  AddressSet set;
  for (auto _ : state) {
    const std::uint64_t addr =
        random ? kBase + rng.next_below(1 << 22) : kBase + (set.count() % (1 << 22));
    set.insert_range(addr, 8);
  }
  state.counters["resident_pages"] =
      static_cast<double>(set.resident_pages());
}
BENCHMARK(BM_AddressSetInsert)->Arg(0)->Arg(1);

void print_footprints() {
  std::printf("\n== shadow footprint per access pattern (16 MiB address span) ==\n");
  TextTable table({"pattern", "bytes touched", "shadow bytes", "unma bytes",
                   "overhead factor"});
  struct Pattern {
    const char* name;
    std::uint64_t count;
    std::uint64_t stride;
    std::uint32_t size;
  };
  const Pattern patterns[] = {
      {"sequential stream", 1u << 20, 8, 8},
      {"strided scatter (64B)", 1u << 17, 64, 4},
      {"page scatter (4KiB)", 1u << 12, 4096, 4},
      {"hot 4KiB set", 1u << 20, 8, 8},
  };
  for (const auto& pattern : patterns) {
    quad::ShadowMemory shadow;
    AddressSet unma;
    std::uint64_t touched = 0;
    for (std::uint64_t i = 0; i < pattern.count; ++i) {
      const std::uint64_t addr =
          pattern.name[0] == 'h'
              ? kBase + (i * pattern.stride) % 4096  // hot set wraps in a page
              : kBase + i * pattern.stride;
      shadow.mark_write(addr, pattern.size, 1);
      unma.insert_range(addr, pattern.size);
      touched += pattern.size;
    }
    const std::uint64_t shadow_bytes = shadow.resident_bytes();
    const std::uint64_t unma_bytes = unma.resident_pages() * 512;
    table.add_row({pattern.name, format_bytes(touched), format_bytes(shadow_bytes),
                   format_bytes(unma_bytes),
                   format_fixed(static_cast<double>(shadow_bytes + unma_bytes) /
                                    static_cast<double>(unma.count()),
                                2)});
  }
  std::fputs(table.to_ascii().c_str(), stdout);
  std::printf("\nreading: the paged design keeps dense patterns at ~2.1 bytes of\n"
              "shadow per distinct byte (2B producer id + bitmap bit); sparse page\n"
              "scatter pays a whole 8 KiB shadow page per touched location — the\n"
              "worst case for QUAD, and exactly the pattern AudioIo_setFrames'\n"
              "output exhibits at full scale.\n");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_footprints();
  return 0;
}

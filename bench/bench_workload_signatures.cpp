// Generality check: tQUAD across the workload-zoo registry.
//
// The paper claims the tool "is general and not restricted to any particular
// architecture" and that its bytes-per-instruction unit gives a
// platform-independent intensity measure. This bench profiles every
// registered workload at bench scale and *gates* the measured signature
// against the shape each zoo entry declares:
//
//   streaming   — the block-copy kernel dominates every scalar kernel in
//                 traffic density (B/instr);
//   strided     — matmul's read traffic is exactly the 2*n^3 operand streams
//                 of the inner product, below the streaming peak;
//   chaotic     — the pointer chase is read-only (no write traffic) and its
//                 per-slice address spread dwarfs a sequential sweep's; the
//                 histogram's RMW scatter reads exactly what it writes;
//   mixed       — the hash-join probe spreads like a chase while its build
//                 phase streams, landing between the two extremes;
//   phase-sharp — phase detection recovers at least the declared number of
//                 execution phases.
//
// Exits nonzero when any gate fails and writes BENCH_zoo.json (one row per
// workload) for CI trend tracking.
//
// Note what B/instr means: traffic *density*, not speed. A pointer chase —
// the slowest pattern on real hardware — is nearly all loads, so its
// per-instruction traffic is respectable; the paper pairs the unit with
// CPI/IPC to recover wall-clock estimates (§II, last paragraph).
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "session/session.hpp"
#include "support/table.hpp"
#include "tquad/address_map.hpp"
#include "tquad/phase.hpp"
#include "tquad/report.hpp"
#include "tquad/tquad_tool.hpp"
#include "workloads/registry.hpp"

#include "bench_env.hpp"

namespace {

using namespace tq;

constexpr std::uint64_t kSlice = 1000;

/// Measured signature of one kernel within one workload run.
struct KernelSignature {
  double rw_bpi = 0.0;           ///< avg read+write bytes per instruction
  double spread = 0.0;           ///< distinct 256 B buckets touched per access
  std::uint64_t read_bytes = 0;  ///< stack-excluded totals
  std::uint64_t write_bytes = 0;
};

struct WorkloadRow {
  std::string name;
  const char* shape = "";
  std::uint64_t retired = 0;
  std::uint64_t accesses = 0;
  std::size_t phases = 0;
  std::map<std::string, KernelSignature> kernels;
};

int failures = 0;

void gate(bool ok, const std::string& what) {
  std::printf("  %-68s %s\n", what.c_str(), ok ? "yes" : "NO");
  if (!ok) ++failures;
}

WorkloadRow profile(const workloads::Entry& entry) {
  workloads::Instance instance = entry.build_bench();
  session::ProfileSession session(instance.program, session::SessionConfig{});
  tquad::TQuadTool tquad(instance.program,
                         tquad::Options{.slice_interval = kSlice});
  tquad::AddressMapTool map(
      instance.program, {.slice_interval = kSlice, .bucket_bytes = 256});
  session.add_consumer(tquad);
  session.add_consumer(map);
  const vm::RunOutcome outcome = session.run_live(instance.host);

  WorkloadRow row;
  row.name = entry.name;
  row.shape = workloads::shape_name(entry.shape);
  row.retired = outcome.retired;
  row.accesses = map.total_accesses();
  row.phases = tquad::detect_phases(tquad).size();
  for (const auto& [kernel, kmap] : map.kernels()) {
    if (kernel == tquad::kNoKernel) continue;
    const std::uint64_t data_accesses = kmap.accesses - kmap.stack_accesses;
    if (data_accesses == 0) continue;
    KernelSignature sig;
    sig.spread = static_cast<double>(kmap.cells.size()) /
                 static_cast<double>(data_accesses);
    const auto stats =
        tquad::bandwidth_stats(tquad.bandwidth().kernel(kernel), kSlice);
    sig.rw_bpi = stats.avg_read_incl + stats.avg_write_incl;
    const auto& totals = tquad.bandwidth().kernel(kernel).totals;
    sig.read_bytes = totals.read_excl;
    sig.write_bytes = totals.write_excl;
    row.kernels[map.kernel_label(kernel)] = sig;
  }
  return row;
}

const KernelSignature& kernel_of(const WorkloadRow& row, const char* name) {
  static const KernelSignature empty;
  const auto it = row.kernels.find(name);
  if (it == row.kernels.end()) {
    std::printf("  missing kernel '%s' in workload '%s'\n", name,
                row.name.c_str());
    ++failures;
    return empty;
  }
  return it->second;
}

}  // namespace

int main() {
  std::vector<WorkloadRow> rows;
  std::map<std::string, const WorkloadRow*> by_name;
  rows.reserve(workloads::registry().size());
  for (const workloads::Entry& entry : workloads::registry()) {
    rows.push_back(profile(entry));
  }
  for (const WorkloadRow& row : rows) by_name[row.name] = &row;

  std::printf("== workload-zoo signatures (bench scale) ==\n\n");
  TextTable table({"workload", "shape", "kernel", "R+W B/instr",
                   "spread/access", "phases"});
  for (const WorkloadRow& row : rows) {
    bool first = true;
    for (const auto& [kernel, sig] : row.kernels) {
      table.add_row({first ? row.name : "", first ? row.shape : "", kernel,
                     format_fixed(sig.rw_bpi, 3), format_fixed(sig.spread, 4),
                     first ? std::to_string(row.phases) : ""});
      first = false;
    }
  }
  std::fputs(table.to_ascii().c_str(), stdout);

  std::printf("\ndeclared-shape gates:\n");
  const WorkloadRow& stream = *by_name.at("stream");
  const WorkloadRow& chase = *by_name.at("chase");
  const WorkloadRow& histogram = *by_name.at("histogram");
  const WorkloadRow& matmul = *by_name.at("matmul_naive");
  const WorkloadRow& hashjoin = *by_name.at("hashjoin");
  const WorkloadRow& phased = *by_name.at("phased");

  const KernelSignature& copy = kernel_of(stream, "stream_copy");
  const KernelSignature& triad = kernel_of(stream, "stream_triad");
  const KernelSignature& chase_k = kernel_of(chase, "chase");
  const KernelSignature& hist_k = kernel_of(histogram, "histogram");
  const KernelSignature& mm_k = kernel_of(matmul, "matmul_naive");
  const KernelSignature& probe = kernel_of(hashjoin, "hj_probe");
  const KernelSignature& build = kernel_of(hashjoin, "hj_build");

  // streaming: block copies dominate every scalar kernel in density.
  double scalar_peak = 0.0;
  for (const auto& [kernel, sig] : stream.kernels) {
    if (kernel != "stream_copy") scalar_peak = std::max(scalar_peak, sig.rw_bpi);
  }
  gate(copy.rw_bpi > 4.0 * scalar_peak,
       "streaming: block copy >4x any scalar kernel (B/instr)");

  // strided: matmul reads exactly its two operand streams, below streaming.
  const std::uint64_t n = 48;  // bench-scale matmul size (registry entry)
  gate(mm_k.read_bytes == 2 * n * n * n * 8,
       "strided: matmul naive reads exactly 2*n^3 operands");
  gate(mm_k.rw_bpi < copy.rw_bpi,
       "strided: matmul density below the streaming peak");

  // chaotic: the chase is read-only and spreads across its whole working
  // set each slice, far wider than a sequential sweep (the paper's UnMA
  // lens: distinct addresses per unit of traffic).
  gate(chase_k.write_bytes == 0, "chaotic: pointer chase does no data writes");
  gate(chase_k.spread > 5.0 * triad.spread,
       "chaotic: chase per-slice address spread >5x sequential triad");
  gate(hist_k.read_bytes == hist_k.write_bytes,
       "chaotic: histogram RMW reads exactly what it writes");

  // mixed: the probe's random table walk spreads like a chase while the
  // build phase stays below it; the whole workload sits between the
  // streaming and chaotic extremes.
  gate(probe.spread > 3.0 * triad.spread,
       "mixed: hash-join probe spread >3x sequential triad");
  gate(probe.spread < chase_k.spread,
       "mixed: hash-join probe spread below the pure chase");
  gate(build.write_bytes >= 16 * 4096,
       "mixed: hash-join build scatters every (key,payload) pair");

  // phase-sharp: detection recovers the declared phase count.
  gate(phased.phases >= workloads::find_workload("phased").expected_phases,
       "phase-sharp: detected phases >= declared (" +
           std::to_string(phased.phases) + " vs " +
           std::to_string(workloads::find_workload("phased").expected_phases) +
           ")");

  bench::JsonWriter json;
  json.begin_array("workloads");
  for (const WorkloadRow& row : rows) {
    json.begin_object()
        .field("name", row.name)
        .field("shape", row.shape)
        .field("retired", row.retired)
        .field("accesses", row.accesses)
        .field("phases", row.phases)
        .begin_object("kernels");
    for (const auto& [kernel, sig] : row.kernels) {
      json.begin_object(kernel)
          .field("rw_bpi", sig.rw_bpi)
          .field("spread", sig.spread)
          .field("read_bytes", sig.read_bytes)
          .field("write_bytes", sig.write_bytes)
          .end_object();
    }
    json.end_object().end_object();
  }
  json.end_array().field("gate_failures", failures);
  std::printf("\n");
  json.write("BENCH_zoo.json");

  if (failures > 0) {
    std::printf("\n%d signature gate(s) FAILED\n", failures);
    return 1;
  }
  std::printf("\nall signature gates passed\n");
  return 0;
}

// Structured result of a Machine/Engine/ProfileSession run.
//
// A guest fault (trap) and an instruction-budget cut are *outcomes*, not
// host errors: everything observed up to that point is valid profile data,
// and the paper's long-running guests (wfs retires billions of instructions)
// make discarding it unacceptable. Host/tool failures still throw tq::Error.
#pragma once

#include <cstdint>
#include <string>

namespace tq::vm {

enum class RunStatus : std::uint8_t {
  kHalted = 0,       ///< the guest reached kHalt; the profile is complete
  kTrapped = 1,      ///< guest-attributable fault; the profile is a prefix
  kTruncated = 2,    ///< instruction budget exhausted; graceful cut, a prefix
  kInterrupted = 3,  ///< host asked to stop (SIGINT/SIGTERM); a prefix
};

/// What a run produced. `retired` is always the number of instructions whose
/// events were delivered, so a trapped/truncated outcome describes exactly
/// which prefix of the clean execution the consumers observed.
struct RunOutcome {
  RunStatus status = RunStatus::kHalted;
  std::uint64_t retired = 0;  ///< total retired instructions

  // Trap details (kTrapped only).
  std::string trap_kind;      ///< e.g. "integer division by zero"
  std::string trap_function;  ///< name of the faulting function
  std::uint32_t trap_func = 0;
  std::uint32_t trap_pc = 0;

  bool complete() const noexcept { return status == RunStatus::kHalted; }

  /// One-line human description, e.g. for report stamps and CLI stderr.
  std::string summary() const {
    switch (status) {
      case RunStatus::kTrapped:
        return "guest trap: " + trap_kind + " (in '" + trap_function +
               "' at pc " + std::to_string(trap_pc) + ", retired " +
               std::to_string(retired) + ")";
      case RunStatus::kTruncated:
        return "instruction budget exhausted (retired " +
               std::to_string(retired) + ")";
      case RunStatus::kInterrupted:
        return "interrupted by signal (retired " + std::to_string(retired) +
               ")";
      case RunStatus::kHalted:
        break;
    }
    return "halted (retired " + std::to_string(retired) + ")";
  }
};

}  // namespace tq::vm

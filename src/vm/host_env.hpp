// The host side of the guest's syscall boundary.
//
// Input "files" are byte blobs attached before the run; output files are
// collected byte buffers. None of the copies performed here are visible to
// instrumentation, matching Pin's user-level-only view (the kernel writing a
// read() buffer is invisible to a pintool).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace tq::vm {

/// Host services reachable from guest code via Op::kSys.
class HostEnv {
 public:
  /// Attach an input file; returns its descriptor. Reads consume from a
  /// per-file cursor that kSeek can reposition.
  int attach_input(std::vector<std::uint8_t> bytes);

  /// Create an (initially empty) output file; returns its descriptor.
  /// Output descriptors share the same number space as inputs.
  int create_output();

  bool is_input(int fd) const noexcept;
  bool is_output(int fd) const noexcept;

  /// Consume up to `max` bytes at the input file cursor. The view stays
  /// valid until the next attach_input or create_output.
  std::span<const std::uint8_t> read(int fd, std::uint64_t max);

  /// Append bytes to an output file.
  void write(int fd, std::span<const std::uint8_t> in);

  /// Reposition an input file cursor (absolute).
  void seek(int fd, std::uint64_t pos);

  /// Size of an attached input file.
  std::uint64_t file_size(int fd) const;

  /// Retrieve an output file's accumulated bytes.
  const std::vector<std::uint8_t>& output(int fd) const;

  /// Debug prints from the guest (Sys::kPrintI64 / kPrintF64) accumulate here.
  const std::vector<std::string>& log() const noexcept { return log_; }
  void append_log(std::string line) { log_.push_back(std::move(line)); }

 private:
  struct File {
    bool is_output = false;
    std::vector<std::uint8_t> bytes;
    std::uint64_t cursor = 0;
  };

  const File& file_at(int fd) const;
  File& file_at(int fd);

  std::vector<File> files_;
  std::vector<std::string> log_;
};

}  // namespace tq::vm

#include "vm/host_env.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace tq::vm {

int HostEnv::attach_input(std::vector<std::uint8_t> bytes) {
  files_.push_back(File{false, std::move(bytes), 0});
  return static_cast<int>(files_.size() - 1);
}

int HostEnv::create_output() {
  files_.push_back(File{true, {}, 0});
  return static_cast<int>(files_.size() - 1);
}

const HostEnv::File& HostEnv::file_at(int fd) const {
  if (fd < 0 || static_cast<std::size_t>(fd) >= files_.size()) {
    TQUAD_THROW("guest used bad file descriptor " + std::to_string(fd));
  }
  return files_[static_cast<std::size_t>(fd)];
}

HostEnv::File& HostEnv::file_at(int fd) {
  return const_cast<File&>(static_cast<const HostEnv*>(this)->file_at(fd));
}

bool HostEnv::is_input(int fd) const noexcept {
  return fd >= 0 && static_cast<std::size_t>(fd) < files_.size() &&
         !files_[static_cast<std::size_t>(fd)].is_output;
}

bool HostEnv::is_output(int fd) const noexcept {
  return fd >= 0 && static_cast<std::size_t>(fd) < files_.size() &&
         files_[static_cast<std::size_t>(fd)].is_output;
}

std::span<const std::uint8_t> HostEnv::read(int fd, std::uint64_t max) {
  File& file = file_at(fd);
  if (file.is_output) TQUAD_THROW("guest read from output file");
  const std::uint64_t at = std::min<std::uint64_t>(file.cursor, file.bytes.size());
  const std::uint64_t n = std::min<std::uint64_t>(file.bytes.size() - at, max);
  file.cursor = at + n;
  return std::span<const std::uint8_t>(file.bytes.data() + at, n);
}

void HostEnv::write(int fd, std::span<const std::uint8_t> in) {
  File& file = file_at(fd);
  if (!file.is_output) TQUAD_THROW("guest wrote to input file");
  file.bytes.insert(file.bytes.end(), in.begin(), in.end());
}

void HostEnv::seek(int fd, std::uint64_t pos) {
  File& file = file_at(fd);
  if (file.is_output) TQUAD_THROW("guest seek on output file");
  file.cursor = std::min<std::uint64_t>(pos, file.bytes.size());
}

std::uint64_t HostEnv::file_size(int fd) const {
  const File& file = file_at(fd);
  if (file.is_output) TQUAD_THROW("guest asked size of output file");
  return file.bytes.size();
}

const std::vector<std::uint8_t>& HostEnv::output(int fd) const {
  const File& file = file_at(fd);
  TQUAD_CHECK(file.is_output, "output() on input descriptor");
  return file.bytes;
}

}  // namespace tq::vm

// HostEnv: descriptor semantics and error paths at the syscall boundary.
#include <gtest/gtest.h>

#include "support/check.hpp"
#include "vm/host_env.hpp"

namespace tq::vm {
namespace {

TEST(HostEnv, DescriptorsShareOneNumberSpace) {
  HostEnv host;
  EXPECT_EQ(host.attach_input({1, 2, 3}), 0);
  EXPECT_EQ(host.create_output(), 1);
  EXPECT_EQ(host.attach_input({4}), 2);
  EXPECT_TRUE(host.is_input(0));
  EXPECT_TRUE(host.is_output(1));
  EXPECT_TRUE(host.is_input(2));
  EXPECT_FALSE(host.is_input(1));
  EXPECT_FALSE(host.is_output(0));
  EXPECT_FALSE(host.is_input(3));
  EXPECT_FALSE(host.is_output(-1));
}

TEST(HostEnv, ReadAdvancesCursorAndClampsAtEof) {
  HostEnv host;
  const int fd = host.attach_input({'a', 'b', 'c', 'd', 'e'});
  auto got = host.read(fd, 3);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], 'a');
  got = host.read(fd, 3);
  ASSERT_EQ(got.size(), 2u);  // only "de" left
  EXPECT_EQ(got[0], 'd');
  EXPECT_EQ(host.read(fd, 3).size(), 0u);  // eof
}

TEST(HostEnv, HugeReadYieldsOnlyTheFileBytes) {
  HostEnv host;
  const int fd = host.attach_input({'a', 'b'});
  const auto got = host.read(fd, std::uint64_t{1} << 40);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[1], 'b');
  EXPECT_EQ(host.read(fd, ~std::uint64_t{0}).size(), 0u);
}

TEST(HostEnv, SeekRepositionsAndClamps) {
  HostEnv host;
  const int fd = host.attach_input({'x', 'y', 'z'});
  host.seek(fd, 2);
  auto got = host.read(fd, 1);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], 'z');
  host.seek(fd, 99);  // clamps to end
  EXPECT_EQ(host.read(fd, 1).size(), 0u);
  host.seek(fd, 0);
  got = host.read(fd, 1);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], 'x');
}

TEST(HostEnv, OutputAccumulatesWrites) {
  HostEnv host;
  const int fd = host.create_output();
  const std::uint8_t a[] = {1, 2};
  const std::uint8_t b[] = {3};
  host.write(fd, a);
  host.write(fd, b);
  EXPECT_EQ(host.output(fd), (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST(HostEnv, WrongDirectionOperationsThrow) {
  HostEnv host;
  const int in = host.attach_input({1});
  const int out = host.create_output();
  const std::uint8_t buf[1] = {};
  EXPECT_THROW(host.read(out, 1), Error);
  EXPECT_THROW(host.write(in, buf), Error);
  EXPECT_THROW(host.seek(out, 0), Error);
  EXPECT_THROW((void)host.file_size(out), Error);
}

TEST(HostEnv, BadDescriptorThrows) {
  HostEnv host;
  EXPECT_THROW(host.read(0, 1), Error);
  EXPECT_THROW(host.read(-5, 1), Error);
  EXPECT_THROW((void)host.file_size(7), Error);
}

TEST(HostEnv, FileSizeIsStatic) {
  HostEnv host;
  const int fd = host.attach_input({1, 2, 3, 4});
  EXPECT_EQ(host.file_size(fd), 4u);
  host.read(fd, 2);
  EXPECT_EQ(host.file_size(fd), 4u) << "size is independent of the cursor";
}

TEST(HostEnv, LogAccumulates) {
  HostEnv host;
  host.append_log("one");
  host.append_log("two");
  ASSERT_EQ(host.log().size(), 2u);
  EXPECT_EQ(host.log()[1], "two");
}

}  // namespace
}  // namespace tq::vm

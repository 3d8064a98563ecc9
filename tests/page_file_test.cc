#include "storage/page_file.h"

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "join_test_util.h"

namespace sdj::storage {
namespace {

class PageFileTest : public ::testing::TestWithParam<bool> {
 protected:
  std::unique_ptr<PageFile> Make(uint32_t page_size) {
    if (GetParam()) {
      const std::string path = test::TempPath("sdj_pagefile_test_") +
                               std::to_string(counter_++) + ".bin";
      return NewFilePageFile(path, page_size);
    }
    return NewMemoryPageFile(page_size);
  }

  static int counter_;
};

int PageFileTest::counter_ = 0;

INSTANTIATE_TEST_SUITE_P(Backends, PageFileTest, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "Posix" : "Memory";
                         });

TEST_P(PageFileTest, StartsEmpty) {
  auto file = Make(128);
  ASSERT_NE(file, nullptr);
  EXPECT_EQ(file->num_pages(), 0u);
  EXPECT_EQ(file->page_size(), 128u);
}

TEST_P(PageFileTest, AllocateReturnsDenseIds) {
  auto file = Make(64);
  EXPECT_EQ(file->Allocate(), 0u);
  EXPECT_EQ(file->Allocate(), 1u);
  EXPECT_EQ(file->Allocate(), 2u);
  EXPECT_EQ(file->num_pages(), 3u);
}

TEST_P(PageFileTest, FreshPagesAreZeroed) {
  auto file = Make(64);
  const PageId id = file->Allocate();
  char buffer[64];
  std::memset(buffer, 0xAB, sizeof(buffer));
  ASSERT_EQ(file->Read(id, buffer), IoStatus::kOk);
  for (char c : buffer) EXPECT_EQ(c, 0);
}

TEST_P(PageFileTest, WriteThenReadRoundTrips) {
  auto file = Make(256);
  const PageId a = file->Allocate();
  const PageId b = file->Allocate();
  char data_a[256];
  char data_b[256];
  for (int i = 0; i < 256; ++i) {
    data_a[i] = static_cast<char>(i);
    data_b[i] = static_cast<char>(255 - i);
  }
  ASSERT_EQ(file->Write(a, data_a), IoStatus::kOk);
  ASSERT_EQ(file->Write(b, data_b), IoStatus::kOk);
  char readback[256];
  ASSERT_EQ(file->Read(a, readback), IoStatus::kOk);
  EXPECT_EQ(std::memcmp(readback, data_a, 256), 0);
  ASSERT_EQ(file->Read(b, readback), IoStatus::kOk);
  EXPECT_EQ(std::memcmp(readback, data_b, 256), 0);
}

TEST_P(PageFileTest, InvalidIdFails) {
  auto file = Make(64);
  char buffer[64] = {};
  EXPECT_EQ(file->Read(0, buffer), IoStatus::kFailed);
  EXPECT_EQ(file->Write(5, buffer), IoStatus::kFailed);
  file->Allocate();
  EXPECT_EQ(file->Read(0, buffer), IoStatus::kOk);
  EXPECT_EQ(file->Read(1, buffer), IoStatus::kFailed);
}

TEST_P(PageFileTest, CountsPhysicalIo) {
  auto file = Make(64);
  const PageId id = file->Allocate();
  file->ResetCounters();
  char buffer[64] = {};
  file->Read(id, buffer);
  file->Read(id, buffer);
  file->Write(id, buffer);
  EXPECT_EQ(file->physical_reads(), 2u);
  EXPECT_EQ(file->physical_writes(), 1u);
}

TEST_P(PageFileTest, ManyPagesRoundTrip) {
  auto file = Make(128);
  const int n = 200;
  for (int i = 0; i < n; ++i) file->Allocate();
  char buffer[128];
  for (int i = 0; i < n; ++i) {
    std::memset(buffer, i & 0xFF, sizeof(buffer));
    ASSERT_EQ(file->Write(static_cast<PageId>(i), buffer), IoStatus::kOk);
  }
  for (int i = n - 1; i >= 0; --i) {
    ASSERT_EQ(file->Read(static_cast<PageId>(i), buffer), IoStatus::kOk);
    for (char c : buffer) ASSERT_EQ(static_cast<unsigned char>(c), i & 0xFF);
  }
}

}  // namespace
}  // namespace sdj::storage

#include "fpga/arch.hpp"

#include <gtest/gtest.h>

namespace fpr {
namespace {

TEST(ArchTest, Xc3000Preset) {
  const ArchSpec spec = ArchSpec::xc3000(12, 13, 10);
  EXPECT_EQ(spec.rows, 12);
  EXPECT_EQ(spec.cols, 13);
  EXPECT_EQ(spec.channel_width, 10);
  EXPECT_EQ(spec.fs(), 6);
  EXPECT_EQ(spec.fc(), 6);  // ceil(0.6 * 10)
  EXPECT_TRUE(spec.valid());
}

TEST(ArchTest, Xc4000Preset) {
  const ArchSpec spec = ArchSpec::xc4000(19, 17, 15);
  EXPECT_EQ(spec.fs(), 3);
  EXPECT_EQ(spec.fc(), 15);  // Fc = W
}

TEST(ArchTest, FcCeilingRule) {
  // Table 2: Fc = ceil(0.6 W).
  EXPECT_EQ(ArchSpec::xc3000(4, 4, 7).fc(), 5);   // 4.2 -> 5
  EXPECT_EQ(ArchSpec::xc3000(4, 4, 5).fc(), 3);   // 3.0 -> 3
  EXPECT_EQ(ArchSpec::xc3000(4, 4, 9).fc(), 6);   // 5.4 -> 6
  EXPECT_EQ(ArchSpec::xc3000(4, 4, 1).fc(), 1);
}

TEST(ArchTest, WithWidthRederivesFc) {
  const ArchSpec spec = ArchSpec::xc3000(12, 13, 10);
  const ArchSpec wider = spec.with_width(20);
  EXPECT_EQ(wider.channel_width, 20);
  EXPECT_EQ(wider.fc(), 12);
  EXPECT_EQ(wider.fs(), 6);
  EXPECT_EQ(wider.rows, 12);
}

TEST(ArchTest, InvalidSpecs) {
  EXPECT_FALSE(ArchSpec{}.valid());
  EXPECT_FALSE(ArchSpec::xc4000(0, 5, 3).valid());
  EXPECT_FALSE(ArchSpec::xc4000(5, 5, 0).valid());
}

TEST(ArchTest, SizesAreCountedIn64Bits) {
  // 3x4 array, W=2: blocks 12, hwires (3+1)*4*2 = 32, vwires (4+1)*3*2 = 30.
  EXPECT_EQ(ArchSpec::xc4000(3, 4, 2).node_count(), 74);
  // 20000x20000 at W=8: 6.8e9 nodes, past 32 bits though each field fits.
  const ArchSpec huge = ArchSpec::xc4000(20000, 20000, 8);
  EXPECT_EQ(huge.node_count(), 20000LL * 20000 + 2LL * 20001 * 20000 * 8);
  EXPECT_FALSE(huge.fits_ids());
  EXPECT_TRUE(ArchSpec::xc3000(200, 200, 12).fits_ids());
  EXPECT_FALSE(ArchSpec::xc4000(0, 5, 3).fits_ids());
}

TEST(ArchTest, Describe) {
  const std::string s = ArchSpec::xc4000(10, 9, 8).describe();
  EXPECT_NE(s.find("10x9"), std::string::npos);
  EXPECT_NE(s.find("W=8"), std::string::npos);
  EXPECT_NE(s.find("Fs=3"), std::string::npos);
}

}  // namespace
}  // namespace fpr

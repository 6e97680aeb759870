#include "arch/processor.hpp"

#include <gtest/gtest.h>

#include "arch/registry.hpp"
#include "arch/validate.hpp"
#include "common/error.hpp"

namespace bladed::arch {
namespace {

TEST(Registry, AllModelsValidate) {
  for (const ProcessorModel& m : all_processors()) {
    EXPECT_NO_THROW(validate(m)) << m.name;
  }
}

TEST(Registry, LookupByShortName) {
  EXPECT_EQ(by_short_name("TM5600").name, "Transmeta Crusoe TM5600");
  EXPECT_EQ(by_short_name("Power3").clock.value(), 375.0);
  EXPECT_THROW((void)by_short_name("i486"), PreconditionError);
}

TEST(Registry, ShortNamesAreUnique) {
  const auto all = all_processors();
  for (std::size_t i = 0; i < all.size(); ++i)
    for (std::size_t j = i + 1; j < all.size(); ++j)
      EXPECT_NE(all[i].short_name, all[j].short_name);
}

TEST(Registry, MetaBladePeakMatchesPaper) {
  // §3.3: 24 TM5600 CPUs have a peak rating of 15.2 Gflops.
  const double peak_gflops = 24.0 * tm5600_633().peak_mflops() / 1000.0;
  EXPECT_NEAR(peak_gflops, 15.2, 0.1);
}

TEST(Registry, PowerFiguresMatchPaperSection2) {
  // "the Transmeta TM5600 and Pentium 4 CPUs generate approximately 6 and 75
  // watts, respectively".
  EXPECT_NEAR(tm5600_633().watts_at_load.value(), 6.0, 0.5);
  EXPECT_NEAR(pentium4_1300().watts_at_load.value(), 75.0, 1.0);
  // §5: TM5800 at 3.5 watts.
  EXPECT_NEAR(tm5800_800().watts_at_load.value(), 3.5, 0.1);
}

TEST(Registry, OnlyTransmetaPartsPayMorphingTax) {
  for (const ProcessorModel& m : all_processors()) {
    if (m.short_name.substr(0, 2) == "TM") {
      EXPECT_GE(m.morph_overhead, 1.0) << m.name;
    } else {
      EXPECT_DOUBLE_EQ(m.morph_overhead, 1.0) << m.name;
    }
  }
}

TEST(Registry, ProjectedTm6000FollowsTheSection5Roadmap) {
  // "improve flop performance over the TM5800 by another factor of two to
  // three while reducing power requirements in half again".
  const ProcessorModel& tm58 = tm5800_800();
  const ProcessorModel& tm60 = tm6000_projected();
  const double peak_ratio =
      tm60.peak_mflops() / tm58.peak_mflops();
  EXPECT_GE(peak_ratio, 2.0);
  EXPECT_LE(peak_ratio, 3.2);
  EXPECT_NEAR(tm60.watts_at_load.value(), 0.5 * tm58.watts_at_load.value(),
              0.1);
}

TEST(Registry, NewerCmsHasLowerOverhead) {
  // §3.3 footnote: MetaBlade2 with CMS 4.3.x clearly outperformed CMS 4.2.x
  // per clock.
  EXPECT_LT(tm5800_800().morph_overhead, tm5600_633().morph_overhead);
}

TEST(Validate, RejectsMalformedModels) {
  ProcessorModel m = tm5600_633();
  m.clock = Megahertz(0.0);
  EXPECT_THROW(validate(m), PreconditionError);

  m = tm5600_633();
  m.ilp = 1.5;
  EXPECT_THROW(validate(m), PreconditionError);

  m = tm5600_633();
  m.fp_issue_per_cycle = 10.0;  // exceeds what the pipes accept
  EXPECT_THROW(validate(m), PreconditionError);

  m = tm5600_633();
  m.morph_overhead = 0.5;  // a tax cannot speed things up
  EXPECT_THROW(validate(m), PreconditionError);
}

}  // namespace
}  // namespace bladed::arch

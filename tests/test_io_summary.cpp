// Tests for architecture summaries.

#include <string>

#include <gtest/gtest.h>

#include "dnn/presets.hpp"
#include "dnn/summary.hpp"

namespace lens {
namespace {

TEST(Summary, ContainsStructureAndTotals) {
  const dnn::Architecture alexnet = dnn::alexnet();
  const std::string text = dnn::summary(alexnet);
  EXPECT_NE(text.find("conv1"), std::string::npos);
  EXPECT_NE(text.find("pool5"), std::string::npos);
  EXPECT_NE(text.find("fc8"), std::string::npos);
  EXPECT_NE(text.find("total:"), std::string::npos);
  // pool5 row is marked as a viable split; conv1 is not.
  const std::size_t pool5 = text.find("pool5");
  const std::size_t pool5_eol = text.find('\n', pool5);
  EXPECT_NE(text.substr(pool5, pool5_eol - pool5).find("yes"), std::string::npos);
}

TEST(Summary, SignatureIsCompactAndOrdered) {
  const dnn::Architecture alexnet = dnn::alexnet();
  const std::string sig = dnn::signature(alexnet);
  EXPECT_EQ(sig.rfind("conv11x11x96", 0), 0u);  // starts with conv1
  EXPECT_NE(sig.find("fc4096"), std::string::npos);
  EXPECT_NE(sig.find("fc1000"), std::string::npos);
  // Exactly 3 pools.
  std::size_t pools = 0;
  for (std::size_t pos = sig.find("pool"); pos != std::string::npos;
       pos = sig.find("pool", pos + 1)) {
    ++pools;
  }
  EXPECT_EQ(pools, 3u);
}

}  // namespace
}  // namespace lens

#include "nn/serialize.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace maopt::nn {
namespace {

TEST(Serialize, RoundTripIsBitExact) {
  Rng rng(1);
  Mlp net(4, {8, 8}, 3, rng, /*tanh_output=*/false);
  std::stringstream buffer;
  save_mlp(buffer, net);

  Rng rng2(99);  // different init
  Mlp restored(4, {8, 8}, 3, rng2, /*tanh_output=*/false);
  load_mlp(buffer, restored);

  Mat x(3, 4, 0.37);
  Mlp::Rows rows_a, rows_b;
  const Mat& a = net.forward(rows_a, x);
  const Mat& b = restored.forward(rows_b, x);
  for (std::size_t i = 0; i < a.data().size(); ++i) EXPECT_EQ(a.data()[i], b.data()[i]);
}

TEST(Serialize, ExtremeValuesSurvive) {
  Rng rng(2);
  Mlp net(2, {3}, 1, rng, /*tanh_output=*/false);
  auto params = net.params();
  (*params[0].value)[0] = 1e-300;
  (*params[0].value)[1] = -1e300;
  (*params[0].value)[2] = 0.1 + 0.2;  // classic non-representable decimal
  std::stringstream buffer;
  save_mlp(buffer, net);
  Rng rng2(3);
  Mlp restored(2, {3}, 1, rng2, /*tanh_output=*/false);
  load_mlp(buffer, restored);
  auto rp = restored.params();
  EXPECT_EQ((*rp[0].value)[0], 1e-300);
  EXPECT_EQ((*rp[0].value)[1], -1e300);
  EXPECT_EQ((*rp[0].value)[2], 0.1 + 0.2);
}

TEST(Serialize, ArchitectureMismatchThrows) {
  Rng rng(4);
  Mlp net(4, {8}, 2, rng, /*tanh_output=*/false);
  std::stringstream buffer;
  save_mlp(buffer, net);

  Mlp wrong_width(4, {9}, 2, rng, /*tanh_output=*/false);
  EXPECT_THROW(load_mlp(buffer, wrong_width), std::runtime_error);

  std::stringstream buffer2;
  save_mlp(buffer2, net);
  Mlp wrong_depth(4, {8, 8}, 2, rng, /*tanh_output=*/false);
  EXPECT_THROW(load_mlp(buffer2, wrong_depth), std::runtime_error);
}

TEST(Serialize, BadMagicThrows) {
  std::stringstream buffer("not-a-model 1\n");
  Rng rng(5);
  Mlp net(2, {2}, 1, rng, /*tanh_output=*/false);
  EXPECT_THROW(load_mlp(buffer, net), std::runtime_error);
}

TEST(Serialize, TruncatedFileThrows) {
  Rng rng(6);
  Mlp net(2, {2}, 1, rng, /*tanh_output=*/false);
  std::stringstream buffer;
  save_mlp(buffer, net);
  std::string text = buffer.str();
  std::stringstream truncated(text.substr(0, text.size() / 2));
  EXPECT_THROW(load_mlp(truncated, net), std::runtime_error);
}

TEST(Serialize, FilePathVariant) {
  Rng rng(7);
  Mlp net(3, {4}, 2, rng, /*tanh_output=*/false);
  const std::string path = "/tmp/maopt_serialize_test.mlp";
  save_mlp(path, net);
  Rng rng2(8);
  Mlp restored(3, {4}, 2, rng2, /*tanh_output=*/false);
  load_mlp(path, restored);
  Mat x(1, 3, -0.2);
  Mlp::Rows rows_a, rows_b;
  EXPECT_EQ(net.forward(rows_a, x)(0, 0), restored.forward(rows_b, x)(0, 0));
  EXPECT_THROW(load_mlp("/nonexistent/x.mlp", net), std::runtime_error);
}

}  // namespace
}  // namespace maopt::nn

// Microbenchmarks: dense linear algebra used by the MNA solver (LU), the
// GP baseline (Cholesky) — the O(N^3) growth here is the paper's stated
// reason BO scales poorly with simulation count — and the MLP training
// kernels (gemm_nn/tn/nt).
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/gemm.hpp"
#include "linalg/lu.hpp"

namespace {

using namespace maopt;
using namespace maopt::linalg;

Mat random_dd_matrix(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Mat a(n, n);
  for (auto& v : a.data()) v = rng.uniform(-1, 1);
  for (std::size_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);
  return a;
}

Mat random_spd(std::size_t n, std::uint64_t seed) {
  const Mat b = random_dd_matrix(n, seed);
  Mat a = matmul(b, b.transposed());
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 1.0;
  return a;
}

void BM_LuFactorSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Mat a = random_dd_matrix(n, 1);
  Vec b(n, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lu_solve(a, b));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LuFactorSolve)->RangeMultiplier(2)->Range(8, 128)->Complexity(benchmark::oNCubed);

void BM_ComplexLuSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  CMat a(n, n);
  for (auto& v : a.data()) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  for (std::size_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);
  CVec b(n, {1.0, 0.0});
  for (auto _ : state) benchmark::DoNotOptimize(lu_solve(a, b));
}
BENCHMARK(BM_ComplexLuSolve)->Arg(16)->Arg(32);

void BM_CholeskyFactor(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Mat a = random_spd(n, 3);
  for (auto _ : state) {
    Cholesky chol(a);
    benchmark::DoNotOptimize(chol.log_determinant());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CholeskyFactor)->RangeMultiplier(2)->Range(32, 256)->Complexity(benchmark::oNCubed);

void BM_Matmul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Mat a = random_dd_matrix(n, 4);
  const Mat b = random_dd_matrix(n, 5);
  for (auto _ : state) benchmark::DoNotOptimize(matmul(a, b));
}
BENCHMARK(BM_Matmul)->Arg(64)->Arg(128);

void BM_MatmulBlocked(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Mat a = random_dd_matrix(n, 4);
  const Mat b = random_dd_matrix(n, 5);
  Mat c;
  for (auto _ : state) {
    matmul_blocked(a, b, c);
    benchmark::DoNotOptimize(c.data().data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * static_cast<double>(n) * static_cast<double>(n) * static_cast<double>(n) * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_MatmulBlocked)->Arg(64)->Arg(128)->Arg(256);

// The three training kernels at the paper nets' Linear-layer shapes. Args
// are (batch, in, out) of the layer; each kernel runs the pass it computes
// there: gemm_nn the forward Y += X W, gemm_tn the weight gradient
// dW += X^T dY, gemm_nt the input gradient dX += dY W^T. All three do
// 2 * batch * in * out flops, so their GFLOP/s rows compare directly.
struct LayerShape {
  std::size_t batch, in, out;
  explicit LayerShape(const benchmark::State& state)
      : batch(static_cast<std::size_t>(state.range(0))),
        in(static_cast<std::size_t>(state.range(1))),
        out(static_cast<std::size_t>(state.range(2))) {}
  void count_flops(benchmark::State& state) const {
    state.counters["GFLOP/s"] = benchmark::Counter(
        2.0 * static_cast<double>(batch * in * out) * 1e-9,
        benchmark::Counter::kIsIterationInvariantRate);
  }
};

Vec random_vec(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Vec v(n);
  for (auto& x : v) x = rng.uniform(-1, 1);
  return v;
}

void BM_GemmNn(benchmark::State& state) {
  const LayerShape s(state);
  const Vec x = random_vec(s.batch * s.in, 6), w = random_vec(s.in * s.out, 7);
  Vec y(s.batch * s.out, 0.0);
  for (auto _ : state) {
    gemm_nn(s.batch, s.out, s.in, x.data(), w.data(), y.data());
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  s.count_flops(state);
}

void BM_GemmTn(benchmark::State& state) {
  const LayerShape s(state);
  const Vec x = random_vec(s.batch * s.in, 6), dy = random_vec(s.batch * s.out, 8);
  Vec dw(s.in * s.out, 0.0);
  for (auto _ : state) {
    gemm_tn(s.in, s.out, s.batch, x.data(), s.in, dy.data(), dw.data());
    benchmark::DoNotOptimize(dw.data());
    benchmark::ClobberMemory();
  }
  s.count_flops(state);
}

void BM_GemmNt(benchmark::State& state) {
  const LayerShape s(state);
  const Vec dy = random_vec(s.batch * s.out, 8), w = random_vec(s.in * s.out, 7);
  Vec dx(s.batch * s.in, 0.0), wt(s.in * s.out);
  for (auto _ : state) {
    gemm_nt(s.batch, s.in, s.out, dy.data(), w.data(), dx.data(), wt.data());
    benchmark::DoNotOptimize(dx.data());
    benchmark::ClobberMemory();
  }
  s.count_flops(state);
}

void mlp_shapes(benchmark::internal::Benchmark* b) {
  b->Args({64, 100, 100})->Args({64, 32, 100})->Args({64, 100, 9});
}
BENCHMARK(BM_GemmNn)->Apply(mlp_shapes);
BENCHMARK(BM_GemmTn)->Apply(mlp_shapes);
BENCHMARK(BM_GemmNt)->Apply(mlp_shapes);

}  // namespace

BENCHMARK_MAIN();

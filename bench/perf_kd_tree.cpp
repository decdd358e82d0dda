// Performance benchmark: kd-tree vs uniform grid vs linear scan for ball
// queries, on uniform and clustered point sets — the two engines
// spatial::make_index picks between. Shows where each index pays off
// (grid on uniform density, kd-tree on clustered).

#include <benchmark/benchmark.h>

#include <vector>

#include "mmph/geometry/kd_tree.hpp"
#include "mmph/random/workload.hpp"
#include "mmph/spatial/uniform_grid.hpp"

namespace {

using namespace mmph;

geo::PointSet make_points(std::size_t n, bool clustered, std::uint64_t seed) {
  rnd::WorkloadSpec spec;
  spec.n = n;
  spec.box_side = 40.0;  // large box: queries touch a small neighborhood
  if (clustered) {
    spec.placement = rnd::Placement::kClustered;
    spec.clusters = 8;
    spec.cluster_stddev = 0.5;
  }
  rnd::Rng rng(seed);
  return rnd::generate_workload(spec, rng).points;
}

template <bool kClustered>
void BM_LinearScan(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const geo::PointSet ps = make_points(n, kClustered, 1);
  const geo::Metric metric = geo::l2_metric();
  std::size_t q = 0;
  for (auto _ : state) {
    std::size_t hits = 0;
    geo::ConstVec center = ps[q % n];
    for (std::size_t i = 0; i < n; ++i) {
      if (metric.distance(center, ps[i]) <= 1.0) ++hits;
    }
    benchmark::DoNotOptimize(hits);
    ++q;
  }
}
BENCHMARK(BM_LinearScan<false>)->RangeMultiplier(4)->Range(256, 16384);
BENCHMARK(BM_LinearScan<true>)->RangeMultiplier(4)->Range(256, 16384);

template <bool kClustered>
void BM_UniformGridQuery(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const geo::PointSet ps = make_points(n, kClustered, 1);
  const spatial::UniformGridIndex grid(ps, 1.0);
  const geo::Metric metric = geo::l2_metric();
  std::vector<std::size_t> box;
  std::size_t q = 0;
  for (auto _ : state) {
    std::size_t hits = 0;
    grid.query(ps[q % n], box);
    for (const std::size_t i : box) {
      if (metric.distance(ps[q % n], ps[i]) <= 1.0) ++hits;
    }
    benchmark::DoNotOptimize(hits);
    ++q;
  }
}
BENCHMARK(BM_UniformGridQuery<false>)->RangeMultiplier(4)->Range(256, 16384);
BENCHMARK(BM_UniformGridQuery<true>)->RangeMultiplier(4)->Range(256, 16384);

template <bool kClustered>
void BM_KdTreeQuery(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const geo::PointSet ps = make_points(n, kClustered, 1);
  const geo::KdTree tree(ps);
  const geo::Metric metric = geo::l2_metric();
  std::size_t q = 0;
  for (auto _ : state) {
    std::size_t hits = 0;
    tree.for_each_in_ball(ps[q % n], 1.0, metric,
                          [&](std::size_t) { ++hits; });
    benchmark::DoNotOptimize(hits);
    ++q;
  }
}
BENCHMARK(BM_KdTreeQuery<false>)->RangeMultiplier(4)->Range(256, 16384);
BENCHMARK(BM_KdTreeQuery<true>)->RangeMultiplier(4)->Range(256, 16384);

void BM_KdTreeBuild(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const geo::PointSet ps = make_points(n, true, 2);
  for (auto _ : state) {
    const geo::KdTree tree(ps);
    benchmark::DoNotOptimize(tree.node_count());
  }
}
BENCHMARK(BM_KdTreeBuild)->RangeMultiplier(4)->Range(256, 16384);

void BM_UniformGridBuild(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const geo::PointSet ps = make_points(n, true, 2);
  for (auto _ : state) {
    const spatial::UniformGridIndex grid(ps, 1.0);
    benchmark::DoNotOptimize(grid.occupied_cells());
  }
}
BENCHMARK(BM_UniformGridBuild)->RangeMultiplier(4)->Range(256, 16384);

}  // namespace

BENCHMARK_MAIN();

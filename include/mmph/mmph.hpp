#pragma once

/// \file mmph.hpp
/// \brief Umbrella header: the whole public API in one include.
///
/// Fine-grained headers remain the recommended include style inside larger
/// builds; this header exists for quick experiments and examples.

// Support
#include "mmph/support/assert.hpp"
#include "mmph/support/error.hpp"

// Geometry substrate
#include "mmph/geometry/ball.hpp"
#include "mmph/geometry/enclosing.hpp"
#include "mmph/geometry/enclosing_ball.hpp"
#include "mmph/geometry/enclosing_l1.hpp"
#include "mmph/geometry/kd_tree.hpp"
#include "mmph/geometry/norms.hpp"
#include "mmph/geometry/point_set.hpp"
#include "mmph/geometry/vec.hpp"

// Randomness and workloads
#include "mmph/random/halton.hpp"
#include "mmph/random/pcg64.hpp"
#include "mmph/random/rng.hpp"
#include "mmph/random/workload.hpp"

// Parallelism
#include "mmph/parallel/parallel_for.hpp"
#include "mmph/parallel/thread_pool.hpp"

// I/O and statistics
#include "mmph/io/args.hpp"
#include "mmph/io/stats.hpp"
#include "mmph/io/table.hpp"

// Core problem and solvers
#include "mmph/core/analysis.hpp"
#include "mmph/core/baselines.hpp"
#include "mmph/core/bounds.hpp"
#include "mmph/core/budgeted.hpp"
#include "mmph/core/candidate_set.hpp"
#include "mmph/core/certificate.hpp"
#include "mmph/core/exhaustive.hpp"
#include "mmph/core/greedy_complex.hpp"
#include "mmph/core/greedy_local.hpp"
#include "mmph/core/greedy_simple.hpp"
#include "mmph/core/kernels.hpp"
#include "mmph/core/lazy_greedy.hpp"
#include "mmph/core/local_search.hpp"
#include "mmph/core/objective.hpp"
#include "mmph/core/problem.hpp"
#include "mmph/core/registry.hpp"
#include "mmph/core/reward.hpp"
#include "mmph/core/round_based.hpp"
#include "mmph/core/round_polish.hpp"
#include "mmph/core/sieve_streaming.hpp"
#include "mmph/core/solution.hpp"
#include "mmph/core/solver.hpp"
#include "mmph/core/stochastic_greedy.hpp"
#include "mmph/core/submodular.hpp"
#include "mmph/core/swap_evaluator.hpp"

// Local-search polish tier and certified upper bounds
#include "mmph/ls/bounds.hpp"
#include "mmph/ls/local_search.hpp"
#include "mmph/ls/registry.hpp"

// Traces
#include "mmph/trace/span.hpp"
#include "mmph/trace/trace.hpp"

// Simulation
#include "mmph/sim/adaptive.hpp"
#include "mmph/sim/fairness.hpp"
#include "mmph/sim/metrics.hpp"
#include "mmph/sim/network.hpp"
#include "mmph/sim/recorder.hpp"
#include "mmph/sim/simulator.hpp"
#include "mmph/sim/user.hpp"
#include "mmph/sim/warm_start.hpp"

// Serving layer
#include "mmph/serve/instance_store.hpp"
#include "mmph/serve/metrics.hpp"
#include "mmph/serve/placement_service.hpp"
#include "mmph/serve/request.hpp"
#include "mmph/serve/request_batcher.hpp"
#include "mmph/serve/sharded_solver.hpp"

// Network layer
#include "mmph/net/client.hpp"
#include "mmph/net/metrics.hpp"
#include "mmph/net/server.hpp"
#include "mmph/net/socket.hpp"
#include "mmph/net/wire.hpp"

// Experiment harness
#include "mmph/exp/experiment.hpp"
#include "mmph/exp/paired.hpp"
#include "mmph/exp/report.hpp"

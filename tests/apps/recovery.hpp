// Seeded recovery runs for the corrector applications: how many steps a
// self-stabilizing program takes to reach its target from uniformly random
// states.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "runtime/simulator.hpp"

namespace dcft {

/// Mean steps of `runs` runs of `p` until `target` holds, each run from an
/// assignment of `vars` drawn uniformly by an Rng seeded with `seed` (the
/// other variables start at 0). Every run must reach the target.
inline double mean_recovery_steps(const Program& p, const Predicate& target,
                                  const std::vector<VarId>& vars, int runs,
                                  std::uint64_t seed) {
    const StateSpace& space = p.space();
    RandomScheduler scheduler;
    Rng rng(seed);
    double total = 0;
    for (int i = 0; i < runs; ++i) {
        StateIndex from = 0;
        for (const VarId v : vars)
            from = space.set(from, v,
                             static_cast<Value>(rng.below(
                                 static_cast<std::uint64_t>(
                                     space.variable(v).domain_size))));
        Simulator sim(p, scheduler, seed + 100 + static_cast<std::uint64_t>(i));
        RunOptions options;
        options.max_steps = 200000;
        options.stop_when = target;
        const RunResult run = sim.run(from, options);
        EXPECT_TRUE(run.stopped_early) << "run " << i;
        total += static_cast<double>(run.steps);
    }
    return total / runs;
}

}  // namespace dcft

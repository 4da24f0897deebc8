#pragma once

#include <string>

#include "sim/simulator.hpp"

/// Reference trace replay: simulate_scheme as it was written before the
/// closed-loop memoryless replay counted transition pairs. It serves every
/// step through the ICAP datapath, computing the step's transfer time anew.
/// sim::simulate_scheme must return exactly what it returns; the replay
/// identity tests and bench_simulate compare the two with describe().
namespace prpart::oracle {

sim::SimulationResult simulate_scheme_reference(
    const Design& design, const PartitionScheme& scheme,
    const SchemeEvaluation& evaluation, const sim::TransitionTrace& trace,
    const sim::SimulationOptions& options = {});

/// Every field of a result as one line, transitions_per_second by its bit
/// pattern: equal strings mean equal results, and a test failure shows
/// both.
std::string describe(const sim::SimulationResult& result);

}  // namespace prpart::oracle

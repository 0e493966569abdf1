// Shared command-line driver for the registered experiments.
//
// `run_experiment_main` is the backend of `manywalks run <exp>`: it parses
// the
// shared flags (--full/--n/--trials/--seed/--threads/--format/--out plus
// the experiment's declared extras), resolves presets, runs the experiment
// on a shared ThreadPool, and emits the result through the selected sink.
#pragma once

#include <string_view>

namespace manywalks::cli {

/// Runs the registered experiment `name` with argv-style arguments
/// (argv[0] is ignored). Exit codes: 0 success, 1 usage error or a failed
/// rigorous-bound verdict, 2 unknown experiment.
int run_experiment_main(std::string_view name, int argc, char** argv);

/// The `manywalks` umbrella binary: list / run <exp> / table1 / help.
int manywalks_main(int argc, char** argv);

}  // namespace manywalks::cli

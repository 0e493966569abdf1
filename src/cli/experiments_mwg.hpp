// The stored-graph (--graph=FILE.mwg) experiments: the paper's k-walk
// speed-up and start-placement measurements on arbitrary graphs loaded
// zero-copy from disk (storage/mapped_graph.hpp).
//
// The experiment bodies are exposed on a bound CsrSubstrate so the
// acceptance contract is testable: the registered in-core runners map the
// file and call these, and the tests call them again with the same graph
// built in memory — same seed — and require byte-identical results
// (tests/test_storage.cpp). The `--block-walk` runners run the same
// bodies on the out-of-core engine; the tests compare their tables too.
#pragma once

#include <string>

#include "cli/registry.hpp"
#include "graph/substrate.hpp"
#include "walk/cover_types.hpp"

namespace manywalks::cli {

/// The mwg-speedup body: S^k curve (optionally to a partial-cover
/// --target) from --start on an already-bound substrate. `source` labels
/// the graph in the output; `cover` carries the walk options (the
/// registered runner passes CoverOptions{}).
ExperimentResult run_mwg_speedup_on_substrate(const CsrSubstrate& substrate,
                                              const std::string& source,
                                              const ExperimentParams& params,
                                              ThreadPool& pool,
                                              const CoverOptions& cover);

/// The mwg-starts body: C^k under same-vertex / stationary / uniform
/// start placements on an already-bound substrate.
ExperimentResult run_mwg_starts_on_substrate(const CsrSubstrate& substrate,
                                             const std::string& source,
                                             const ExperimentParams& params,
                                             ThreadPool& pool,
                                             const CoverOptions& cover);

}  // namespace manywalks::cli

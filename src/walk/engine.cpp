#include "walk/engine.hpp"

namespace manywalks {

// The hot loops (the pipelined lane rounds and lane-major strips)
// compile here once, with the substrate accessors inlined into the round
// loop, instead of in every including translation unit.
template class WalkEngineT<CsrSubstrate>;
template class WalkEngineT<CycleSubstrate>;
template class WalkEngineT<TorusSubstrate>;
template class WalkEngineT<HypercubeSubstrate>;
template class WalkEngineT<CompleteSubstrate>;

// Walkability (min degree >= 1) is validated by CsrSubstrate itself.
WalkEngine::WalkEngine(const Graph& g)
    : WalkEngineT<CsrSubstrate>(CsrSubstrate(g)) {}

}  // namespace manywalks

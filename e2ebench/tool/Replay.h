//===----------------------------------------------------------------------===//
//
// The traced run: one workload's operations replayed in-process, layer by
// layer, from outside the program. Every operation runs twice on twin
// state — once with spans recorded, once with the recorder off — so the
// difference is the tracing overhead. Each operation also calls the
// workload's whole front door in-process (AnalysisEngine::analyzeCorpus,
// Supervisor::run, or Server::flushPending); those "entry" spans are
// reported but left out of the layer sum that trace.unattributed_ms
// compares against the untraced front-door time.
//
//===----------------------------------------------------------------------===//

#ifndef RSBENCH_REPLAY_H
#define RSBENCH_REPLAY_H

#include <map>
#include <string>

namespace bench {

/// `rsbench trace`: arguments by flag name (without the leading "--").
/// Prints one JSON object with per-layer self times, counts and the
/// traced/untraced operation times; writes the Chrome trace file.
int runTrace(std::map<std::string, std::string> &Args);

} // namespace bench

#endif // RSBENCH_REPLAY_H

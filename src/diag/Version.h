//===----------------------------------------------------------------------===//
//
// Part of RustSight, a reproduction of "Understanding Memory and Thread
// Safety Practices and Issues in Real-World Rust Programs" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single source of truth for the tool's identity: version string,
/// report schema version, and the derived one-line banner. `rustsight
/// --version`, the serve daemon's JSON-RPC `initialize` serverInfo, and the
/// engine's cache/wire schema salt all read from here, so the spellings
/// cannot drift apart.
///
//===----------------------------------------------------------------------===//

#ifndef RUSTSIGHT_DIAG_VERSION_H
#define RUSTSIGHT_DIAG_VERSION_H

#include <cstdint>
#include <string>

namespace rs::version {

/// The tool name as spelled in --version output, SARIF tool.driver, and
/// LSP serverInfo.
inline constexpr const char *ToolName = "rustsight";

/// The tool version. Bump on releases.
inline constexpr const char *ToolVersion = "0.7.0";

/// The FileReport serialization schema version shared by the result cache,
/// the worker wire protocol, and the checkpoint journal. Bump when
/// serializeFileReport's shape changes: the version feeds the cache salt,
/// so old entries stop matching instead of misparsing.
/// v2: structured-diagnostics core — findings carry rule IDs, severities,
/// secondary spans, notes and fix-its; suppression notices and the
/// suppressed-finding count ride along.
/// v3: arena/SoA MIR storage + interned symbols landed alongside the
/// binary snapshot layer; reports are shape-compatible with v2 but the
/// bump retires every pre-SoA disk entry as a clean miss (cold, not
/// corrupt) rather than trusting payloads produced by the old layout.
/// v4: whole-program link step — secondary spans and fix-its may carry an
/// explicit "file" when they point into a counterpart file instead of
/// re-anchoring to the report's own path (docs/WHOLEPROGRAM.md).
/// v5: the report cache payload is binary (magic "RSFR", then this
/// version, varints and length-prefixed strings) instead of JSON; v4
/// entries miss instead of misparsing. The wire protocol and checkpoint
/// journal stay JSON and carry the version in their "v" field.
inline constexpr uint64_t ReportSchemaVersion = 5;

/// Total rule-catalog size (diag::numRules(), re-exported here so version
/// consumers need only this header).
uint64_t ruleCount();

/// "rustsight 0.7.0 (report schema v2, N rules)" with the live rule count.
std::string versionLine();

} // namespace rs::version

#endif // RUSTSIGHT_DIAG_VERSION_H

//===----------------------------------------------------------------------===//
// End-to-end structured-diagnostics flows through the engine: inline
// suppression comments (including the unknown-rule notice and its fix-it),
// the baseline write/apply cycle, degraded/skipped statuses as rendered
// diagnostics, the SARIF surface, and the schema-v2 cache payload carrying
// the full diagnostic shape through a serialize/deserialize round trip.
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"

#include "diag/SourceManager.h"
#include "diag/Version.h"
#include "support/Json.h"

#include <gtest/gtest.h>

using namespace rs;
using namespace rs::engine;

namespace {

// The Figure 7 shape; the dereference of the dangling pointer is on line 12.
const char *BuggySrc = "fn uaf() -> u8 {\n"
                       "    let _1: Box<u8>;\n"
                       "    let _2: *const u8;\n"
                       "    bb0: {\n"
                       "        _1 = Box::new(const 7) -> bb1;\n"
                       "    }\n"
                       "    bb1: {\n"
                       "        _2 = &raw const (*_1);\n"
                       "        drop(_1) -> bb2;\n"
                       "    }\n"
                       "    bb2: {\n"
                       "        _0 = copy (*_2);\n"
                       "        return;\n"
                       "    }\n"
                       "}\n";

FileReport analyze(std::string_view Src) {
  AnalysisEngine E;
  return E.analyzeSource(Src, "test.mir");
}

std::string withAllowComment(const char *Comment) {
  std::string Src = BuggySrc;
  std::string Anchor = "_0 = copy (*_2);";
  size_t Pos = Src.find(Anchor);
  EXPECT_NE(Pos, std::string::npos);
  Src.insert(Pos + Anchor.size(), Comment);
  return Src;
}

} // namespace

TEST(DiagnosticsFlow, FindingsCarryRuleMetadataAndSpans) {
  FileReport R = analyze(BuggySrc);
  ASSERT_FALSE(R.Findings.empty());
  const diag::Diagnostic &D = R.Findings[0];
  EXPECT_EQ(D.Kind, diag::RuleId::UseAfterFree);
  EXPECT_EQ(D.Sev, diag::Severity::Error);
  // The paper's pattern has a second program point — the drop — and the
  // detector must mark it.
  ASSERT_FALSE(D.Secondary.empty());
  EXPECT_FALSE(D.Secondary[0].Label.empty());
  EXPECT_TRUE(D.Secondary[0].Loc.isValid());
}

TEST(DiagnosticsFlow, TrailingAllowCommentSuppresses) {
  FileReport R =
      analyze(withAllowComment(" // rustsight-allow(use-after-free)"));
  EXPECT_EQ(R.Status, EngineStatus::Ok);
  EXPECT_TRUE(R.Findings.empty());
  EXPECT_EQ(R.SuppressedFindings, 1u);
  EXPECT_TRUE(R.Notices.empty());
  // The per-detector count shrinks with the suppression, so text and JSON
  // summaries stay consistent.
  for (const DetectorOutcome &O : R.Detectors)
    EXPECT_EQ(O.Findings, 0u) << O.Name;
}

TEST(DiagnosticsFlow, StableRuleIdSpellingSuppressesToo) {
  FileReport R = analyze(withAllowComment(" // rustsight-allow(RS-UAF-001)"));
  EXPECT_TRUE(R.Findings.empty());
  EXPECT_EQ(R.SuppressedFindings, 1u);
}

TEST(DiagnosticsFlow, OtherRulesDoNotSuppress) {
  FileReport R = analyze(withAllowComment(" // rustsight-allow(double-lock)"));
  EXPECT_EQ(R.Findings.size(), 1u);
  EXPECT_EQ(R.SuppressedFindings, 0u);
}

TEST(DiagnosticsFlow, UnknownRuleBecomesAWarningWithAFixIt) {
  FileReport R = analyze(
      withAllowComment(" // rustsight-allow(use-after-free, not-a-rule)"));
  // The known rule still worked...
  EXPECT_TRUE(R.Findings.empty());
  EXPECT_EQ(R.SuppressedFindings, 1u);
  // ...and the bogus one is surfaced, with the machine-applicable rewrite.
  ASSERT_EQ(R.Notices.size(), 1u);
  const diag::Diagnostic &N = R.Notices[0];
  EXPECT_EQ(N.Kind, diag::RuleId::UnknownSuppression);
  EXPECT_EQ(N.Sev, diag::Severity::Warning);
  EXPECT_NE(N.Message.find("not-a-rule"), std::string::npos);
  EXPECT_EQ(N.Loc.file(), "test.mir");
  EXPECT_EQ(N.Loc.line(), 12u);
  ASSERT_EQ(N.Fixes.size(), 1u);
  EXPECT_NE(N.Fixes[0].Replacement.find("rustsight-allow(use-after-free)"),
            std::string::npos);
  EXPECT_EQ(N.Fixes[0].Replacement.find("not-a-rule"), std::string::npos);
}

TEST(DiagnosticsFlow, SuppressedRunExitsClean) {
  AnalysisEngine E;
  CorpusReport Report;
  Report.Files.push_back(E.analyzeSource(
      withAllowComment(" // rustsight-allow(use-after-free)"), "test.mir"));
  EXPECT_EQ(Report.totalFindings(), 0u);
  EXPECT_EQ(Report.exitCode(), 0);
  std::string J = Report.renderJson();
  EXPECT_NE(J.find("\"suppressed\":1"), std::string::npos) << J;
}

TEST(DiagnosticsFlow, BaselineWriteThenApplyDropsKnownFindings) {
  AnalysisEngine E;
  CorpusReport First;
  First.Files.push_back(E.analyzeSource(BuggySrc, "test.mir"));
  ASSERT_EQ(First.totalFindings(), 1u);

  diag::Baseline B = collectBaseline(First);
  EXPECT_EQ(B.size(), 1u);

  // Round-trip the baseline through its JSON document, as CI would.
  diag::Baseline Loaded;
  std::string Err;
  ASSERT_TRUE(diag::Baseline::parse(B.renderJson(), Loaded, Err)) << Err;

  CorpusReport Second;
  Second.Files.push_back(E.analyzeSource(BuggySrc, "test.mir"));
  EXPECT_EQ(applyBaseline(Second, Loaded), 1u);
  EXPECT_EQ(Second.totalFindings(), 0u);
  EXPECT_EQ(Second.Files[0].BaselinedFindings, 1u);
  EXPECT_EQ(Second.exitCode(), 0);
  std::string J = Second.renderJson();
  EXPECT_NE(J.find("\"baselined\":1"), std::string::npos) << J;
}

TEST(DiagnosticsFlow, BaselineRejectsNewFindings) {
  AnalysisEngine E;
  // Baseline an empty state: the finding is new and must survive.
  CorpusReport Report;
  Report.Files.push_back(E.analyzeSource(BuggySrc, "test.mir"));
  EXPECT_EQ(applyBaseline(Report, diag::Baseline()), 0u);
  EXPECT_EQ(Report.totalFindings(), 1u);
  EXPECT_EQ(Report.exitCode(), 1);
}

TEST(DiagnosticsFlow, BaselineSurvivesPathReanchoring) {
  // Fingerprints hash the basename only, so the same file analyzed from a
  // different directory still matches its baseline.
  AnalysisEngine E;
  CorpusReport AtRoot;
  AtRoot.Files.push_back(E.analyzeSource(BuggySrc, "test.mir"));
  diag::Baseline B = collectBaseline(AtRoot);

  CorpusReport Moved;
  Moved.Files.push_back(E.analyzeSource(BuggySrc, "corpus/v2/test.mir"));
  EXPECT_EQ(applyBaseline(Moved, B), 1u);
}

TEST(DiagnosticsFlow, StatusDiagnosticsForSkippedFile) {
  FileReport R = analyze("@@@ not mir at all @@@");
  ASSERT_EQ(R.Status, EngineStatus::Skipped);
  std::vector<diag::Diagnostic> Ds = R.statusDiagnostics();
  ASSERT_FALSE(Ds.empty());
  EXPECT_EQ(Ds[0].Kind, diag::RuleId::FileSkipped);
  EXPECT_EQ(Ds[0].Sev, diag::Severity::Warning);
  EXPECT_NE(Ds[0].Message.find("no parseable items"), std::string::npos);
  EXPECT_EQ(Ds[0].Loc.file(), "test.mir");
}

TEST(DiagnosticsFlow, StatusDiagnosticsCarryTheBudgetCause) {
  EngineOptions Opts;
  Opts.MaxDataflowIters = 1;
  AnalysisEngine E(Opts);
  FileReport R = E.analyzeSource(BuggySrc, "test.mir");
  ASSERT_EQ(R.Status, EngineStatus::Degraded);

  std::vector<diag::Diagnostic> Ds = R.statusDiagnostics();
  ASSERT_FALSE(Ds.empty());
  EXPECT_EQ(Ds[0].Kind, diag::RuleId::FileDegraded);
  // One RS-ENGINE-003 per degraded detector, its note carried along.
  bool SawDetector = false;
  for (const diag::Diagnostic &D : Ds)
    if (D.Kind == diag::RuleId::DetectorDegraded) {
      SawDetector = true;
      EXPECT_NE(D.Message.find("detector '"), std::string::npos);
      EXPECT_FALSE(D.Notes.empty());
    }
  EXPECT_TRUE(SawDetector);
}

TEST(DiagnosticsFlow, OkFileHasNoStatusDiagnostics) {
  FileReport R = analyze(BuggySrc);
  ASSERT_EQ(R.Status, EngineStatus::Ok);
  EXPECT_TRUE(R.statusDiagnostics().empty());
}

TEST(DiagnosticsFlow, SarifRendersFindingsAndStatuses) {
  AnalysisEngine E;
  CorpusReport Report;
  Report.Files.push_back(E.analyzeSource(BuggySrc, "buggy.mir"));
  Report.Files.push_back(E.analyzeSource("@@@", "junk.mir"));

  std::optional<JsonValue> Doc = JsonValue::parse(Report.renderSarif());
  ASSERT_TRUE(Doc.has_value());
  const JsonValue *Results =
      Doc->get("runs")->elements()[0].get("results");
  ASSERT_TRUE(Results && Results->isArray());

  bool SawFinding = false, SawSkip = false;
  for (const JsonValue &R : Results->elements()) {
    std::string_view Rule = R.getString("ruleId");
    SawFinding |= Rule == "RS-UAF-001";
    SawSkip |= Rule == "RS-ENGINE-002";
  }
  EXPECT_TRUE(SawFinding);
  EXPECT_TRUE(SawSkip) << "skipped files must be visible in SARIF";
}

TEST(DiagnosticsFlow, TextRenderingShowsSnippetsSpansAndCounts) {
  diag::SourceManager SM;
  SM.addBuffer("test.mir", BuggySrc);
  AnalysisEngine E;
  CorpusReport Report;
  Report.Files.push_back(E.analyzeSource(BuggySrc, "test.mir"));

  std::string T = Report.renderText(&SM);
  EXPECT_NE(T.find("use-after-free"), std::string::npos) << T;
  // The primary span's caret snippet and the secondary span's note line.
  EXPECT_NE(T.find("_0 = copy (*_2);"), std::string::npos) << T;
  EXPECT_NE(T.find("  note: "), std::string::npos) << T;

  CorpusReport Suppressed;
  Suppressed.Files.push_back(E.analyzeSource(
      withAllowComment(" // rustsight-allow(use-after-free)"), "test.mir"));
  EXPECT_NE(Suppressed.renderText().find("1 suppressed"), std::string::npos);
}

TEST(DiagnosticsFlow, CacheV2PayloadRoundTripsTheFullShape) {
  FileReport R = analyze(BuggySrc);
  ASSERT_EQ(R.Status, EngineStatus::Ok);
  ASSERT_FALSE(R.Findings.empty());
  ASSERT_FALSE(R.Findings[0].Secondary.empty());

  std::optional<FileReport> Back =
      deserializeFileReport(serializeFileReport(R), "warm/test.mir");
  ASSERT_TRUE(Back.has_value());
  ASSERT_EQ(Back->Findings.size(), R.Findings.size());

  const diag::Diagnostic &Orig = R.Findings[0];
  const diag::Diagnostic &D = Back->Findings[0];
  EXPECT_EQ(D.Kind, Orig.Kind);
  EXPECT_EQ(D.Sev, Orig.Sev);
  EXPECT_EQ(D.Function, Orig.Function);
  EXPECT_EQ(D.Block, Orig.Block);
  EXPECT_EQ(D.StmtIndex, Orig.StmtIndex);
  EXPECT_EQ(D.Message, Orig.Message);
  // Locations re-anchor to the new path, keeping line/column.
  EXPECT_EQ(D.Loc.file(), "warm/test.mir");
  EXPECT_EQ(D.Loc.line(), Orig.Loc.line());
  EXPECT_EQ(D.Loc.column(), Orig.Loc.column());
  ASSERT_EQ(D.Secondary.size(), Orig.Secondary.size());
  EXPECT_EQ(D.Secondary[0].Label, Orig.Secondary[0].Label);
  EXPECT_EQ(D.Secondary[0].Loc.file(), "warm/test.mir");
  EXPECT_EQ(D.Secondary[0].Loc.line(), Orig.Secondary[0].Loc.line());
  EXPECT_EQ(D.Notes, Orig.Notes);
  // Same basename, so the fingerprint — and with it any baseline — holds.
  EXPECT_EQ(D.fingerprintHex(), Orig.fingerprintHex());
}

TEST(DiagnosticsFlow, CacheV2PayloadKeepsSuppressionState) {
  FileReport R =
      analyze(withAllowComment(" // rustsight-allow(use-after-free)"));
  ASSERT_EQ(R.Status, EngineStatus::Ok);
  ASSERT_EQ(R.SuppressedFindings, 1u);

  std::optional<FileReport> Back =
      deserializeFileReport(serializeFileReport(R), "test.mir");
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->SuppressedFindings, 1u);
  EXPECT_TRUE(Back->Findings.empty());
}

TEST(DiagnosticsFlow, StaleSchemaVersionMisses) {
  FileReport R = analyze(BuggySrc);
  std::string Payload = serializeFileReport(R);
  ASSERT_TRUE(deserializeFileReport(Payload, "test.mir").has_value());
  // The schema version is the varint right after the 4-byte magic.
  ASSERT_EQ(static_cast<uint64_t>(Payload[4]), version::ReportSchemaVersion);
  for (uint64_t Skewed : {uint64_t(1), version::ReportSchemaVersion - 1,
                          version::ReportSchemaVersion + 1}) {
    Payload[4] = static_cast<char>(Skewed);
    EXPECT_FALSE(deserializeFileReport(Payload, "test.mir").has_value())
        << Skewed;
  }
}

//===----------------------------------------------------------------------===//
//
// Tests for the binary report cache payload (serializeFileReport /
// deserializeFileReport): a full round trip with re-anchoring to a new
// path, and the defect contract — any truncation, a trailing byte, a
// version skew or a flipped byte is a miss (nullopt) or a clean decode,
// never a crash.
//
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"

#include "diag/Version.h"

#include <gtest/gtest.h>

#include <string>

using namespace rs;
using namespace rs::engine;

namespace {

const char *OwnPath = "dir/b_use.mir";
const char *CounterpartPath = "dir/a_def.mir";

/// A report exercising every field the payload carries: detector outcomes,
/// findings with own-file, counterpart-file and absent secondary spans,
/// notes, own-file and counterpart-file fix-its, multi-byte varints, a
/// notice, and the suppressed count.
FileReport sampleReport() {
  const std::string *Own = internFileName(OwnPath);
  const std::string *Other = internFileName(CounterpartPath);
  FileReport R;
  R.Path = OwnPath;
  R.Status = EngineStatus::Ok;
  R.Detectors = {{"use-after-free", EngineStatus::Ok, "", 1},
                 {"double-lock", EngineStatus::Ok, "", 300}};

  diag::Diagnostic Uaf(diag::RuleId::UseAfterFree);
  Uaf.Function = "xp_caller";
  Uaf.Block = 2;
  Uaf.StmtIndex = 1;
  Uaf.Message = "use of freed \"_1\"\n\twith escapes \\ and \xc3\xa9";
  Uaf.Loc = SourceLocation(Own, 12, 5);
  Uaf.Secondary = {{SourceLocation(Other, 3, 9), "freed here", "xp_free"},
                   {SourceLocation(Own, 10, 1), "allocated here", ""},
                   {SourceLocation(), "nowhere", ""}};
  Uaf.Notes = {"first note", ""};
  Uaf.Fixes = {{SourceLocation(Own, 12, 1), "    _0 = const 0;", "own"},
               {SourceLocation(Other, 4, 2), "", "counterpart"}};
  R.Findings.push_back(Uaf);

  diag::Diagnostic Dl(diag::RuleId::DoubleLock);
  Dl.Sev = diag::Severity::Warning;
  Dl.Function = "outer";
  Dl.Block = 70000;
  Dl.StmtIndex = size_t(1) << 40;
  Dl.Message = "second lock";
  Dl.Loc = SourceLocation(Own, 1u << 20, 130);
  R.Findings.push_back(Dl);

  diag::Diagnostic Notice(diag::RuleId::UnknownSuppression);
  Notice.Sev = diag::Severity::Note;
  Notice.Message = "unknown rule in rustsight-allow";
  Notice.Loc = SourceLocation(Own, 7, 3);
  R.Notices.push_back(Notice);

  R.SuppressedFindings = 3;
  return R;
}

std::string describeLoc(const SourceLocation &L) {
  return L.isValid() ? L.file() + ":" + std::to_string(L.line()) + ":" +
                           std::to_string(L.column())
                     : "<none>";
}

std::string describeDiagnostic(const diag::Diagnostic &D) {
  std::string Out = std::string(diag::ruleStringId(D.Kind)) + " " +
                    diag::severityName(D.Sev) + " " + D.Function + " bb" +
                    std::to_string(D.Block) + "[" +
                    std::to_string(D.StmtIndex) + "] " + D.Message + " @" +
                    describeLoc(D.Loc) + "\n";
  for (const diag::Span &S : D.Secondary)
    Out += "  span " + describeLoc(S.Loc) + " " + S.Function + " " + S.Label +
           "\n";
  for (const std::string &N : D.Notes)
    Out += "  note " + N + "\n";
  for (const diag::FixIt &F : D.Fixes)
    Out += "  fix " + describeLoc(F.Loc) + " " + F.Replacement + " " +
           F.Description + "\n";
  return Out;
}

/// Every field the payload carries, with locations spelled out.
std::string describe(const FileReport &R) {
  std::string Out = R.Path + " " + engineStatusName(R.Status) +
                    " suppressed=" + std::to_string(R.SuppressedFindings) +
                    "\n";
  for (const DetectorOutcome &D : R.Detectors)
    Out += "detector " + D.Name + " " + engineStatusName(D.Status) + " " +
           std::to_string(D.Findings) + "\n";
  for (const diag::Diagnostic &D : R.Findings)
    Out += "finding " + describeDiagnostic(D);
  for (const diag::Diagnostic &D : R.Notices)
    Out += "notice " + describeDiagnostic(D);
  return Out;
}

} // namespace

TEST(ReportCodec, RoundTripReanchorsOwnSpansAndKeepsCounterparts) {
  const FileReport R = sampleReport();
  const std::string Payload = serializeFileReport(R);
  ASSERT_EQ(Payload.compare(0, 4, "RSFR"), 0);

  std::optional<FileReport> Same = deserializeFileReport(Payload, OwnPath);
  ASSERT_TRUE(Same.has_value());
  EXPECT_EQ(describe(*Same), describe(R));

  // At a new path every own-file location follows the content; the
  // counterpart-file spans and fix-its keep naming the other file.
  std::optional<FileReport> Moved =
      deserializeFileReport(Payload, "moved/b_use.mir");
  ASSERT_TRUE(Moved.has_value());
  FileReport Want = R;
  Want.Path = "moved/b_use.mir";
  const std::string *NewOwn = internFileName(Want.Path);
  auto Reanchor = [&](SourceLocation &L) {
    if (L.isValid() && L.file() == OwnPath)
      L = SourceLocation(NewOwn, L.line(), L.column());
  };
  for (std::vector<diag::Diagnostic> *List : {&Want.Findings, &Want.Notices})
    for (diag::Diagnostic &D : *List) {
      Reanchor(D.Loc);
      for (diag::Span &S : D.Secondary)
        Reanchor(S.Loc);
      for (diag::FixIt &F : D.Fixes)
        Reanchor(F.Loc);
    }
  EXPECT_EQ(describe(*Moved), describe(Want));
  EXPECT_EQ(Moved->Findings[0].Secondary[0].Loc.file(), CounterpartPath);
  EXPECT_EQ(Moved->Findings[0].Fixes[1].Loc.file(), CounterpartPath);

  // Re-encoding the decoded report gives the same bytes.
  EXPECT_EQ(serializeFileReport(*Same), Payload);
}

TEST(ReportCodec, EmptyReportRoundTrips) {
  FileReport R;
  R.Path = OwnPath;
  R.Status = EngineStatus::Ok;
  std::optional<FileReport> Back =
      deserializeFileReport(serializeFileReport(R), OwnPath);
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(describe(*Back), describe(R));
}

TEST(ReportCodec, TruncationTrailingByteAndVersionSkewMiss) {
  const std::string Payload = serializeFileReport(sampleReport());
  for (size_t Len = 0; Len != Payload.size(); ++Len)
    EXPECT_FALSE(deserializeFileReport(Payload.substr(0, Len), OwnPath))
        << "truncated to " << Len << " of " << Payload.size();
  EXPECT_FALSE(deserializeFileReport(Payload + '\0', OwnPath));
  EXPECT_FALSE(deserializeFileReport(Payload + "x", OwnPath));

  ASSERT_EQ(static_cast<uint64_t>(Payload[4]), version::ReportSchemaVersion);
  for (uint64_t Skew : {version::ReportSchemaVersion - 1,
                        version::ReportSchemaVersion + 1}) {
    std::string Skewed = Payload;
    Skewed[4] = static_cast<char>(Skew);
    EXPECT_FALSE(deserializeFileReport(Skewed, OwnPath)) << Skew;
  }
  // A previous-schema JSON payload is a miss too.
  EXPECT_FALSE(deserializeFileReport("{\"v\":4,\"detectors\":[],"
                                     "\"findings\":[]}",
                                     OwnPath));
}

TEST(ReportCodec, NoSingleByteFlipCrashes) {
  // Every byte, each of its bits and its complement: the decoder either
  // declines or yields a report that itself round-trips. Run under
  // ASan/UBSan in CI, this is the no-overread, no-UB contract.
  const std::string Payload = serializeFileReport(sampleReport());
  size_t Decoded = 0;
  for (size_t I = 0; I != Payload.size(); ++I)
    for (unsigned Mask : {0x01u, 0x02u, 0x04u, 0x08u, 0x10u, 0x20u, 0x40u,
                          0x80u, 0xffu}) {
      std::string Flipped = Payload;
      Flipped[I] = static_cast<char>(Flipped[I] ^ Mask);
      std::optional<FileReport> Back = deserializeFileReport(Flipped, OwnPath);
      if (!Back)
        continue;
      ++Decoded;
      std::optional<FileReport> Again =
          deserializeFileReport(serializeFileReport(*Back), OwnPath);
      ASSERT_TRUE(Again.has_value()) << "byte " << I << " mask " << Mask;
      EXPECT_EQ(describe(*Again), describe(*Back));
    }
  // Flips inside strings and counts decode to other reports; most others
  // are caught. Both outcomes must occur for the test to mean anything.
  EXPECT_GT(Decoded, 0u);
  EXPECT_LT(Decoded, Payload.size() * 9);
}

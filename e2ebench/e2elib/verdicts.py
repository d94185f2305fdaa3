"""The verdict checker: the per-(file, detector) rule of testgen::scoreReport,
applied to every file verdict a front door delivers.

A detector "fires" on a file when one of the file's findings carries that
detector's kind name or rule id. A labeled case (file, detector, positive)
agrees when the detector fired exactly when the label is positive; a case
labeled "*" is a negative for every battery detector. Labels come only from
the generator's manifest, never from rustsight output."""

import os


class Checker:
    def __init__(self, manifest, rules):
        """`rules` is `rsbench rules` output: the detector battery and the
        rule-id -> kind-name table."""
        self.kinds = rules["kinds"]
        self.expect = {}
        for case in manifest["cases"]:
            dets = (rules["battery"] if case["detector"] == "*"
                    else [case["detector"]])
            positive = bool(case.get("positive", False))
            self.expect.setdefault(case["file"], []).extend(
                (d, positive) for d in dets)

    def fired(self, rule_ids):
        ids = set(rule_ids)
        return ids | {self.kinds[r] for r in ids if r in self.kinds}

    def agrees(self, name, fired):
        return all((d in fired) == pos for d, pos in self.expect.get(name, []))

    def check_report(self, report):
        """Names of the labeled files a `check --json` report gets wrong,
        counting a file the report lacks as wrong."""
        fired_by_file = {}
        for f in report.get("files", []):
            fired_by_file[os.path.basename(f["path"])] = self.fired(
                [d["rule"] for d in f.get("findings", [])])
        return sorted(name for name in self.expect
                      if name not in fired_by_file or
                      not self.agrees(name, fired_by_file[name]))

    def check_publish(self, name, params):
        """True when a publishDiagnostics for `name` agrees with its labels."""
        return self.agrees(name, self.fired(
            [d.get("code", "") for d in params.get("diagnostics", [])]))

    def link_dependent_positives(self, corpus):
        """Positive use files of the cross-file pairs: their bug exists only
        once the whole-program link resolves the callee in the def file. The
        serve daemon does not link, so edits to these files are the known
        serve/check disagreement; they stay in the corpus and stay labeled,
        and every edit to them counts against agreement_rate."""
        defs = set(corpus.def_files())
        out = set()
        for name, cases in self.expect.items():
            if name.endswith("_use.mir") and \
                    name[:-len("_use.mir")] + "_def.mir" in defs and \
                    any(pos for _, pos in cases):
                out.add(name)
        return out

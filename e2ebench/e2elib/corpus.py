"""The seeded corpus, its labels and the edit stream.

The corpus comes from `rsbench gen` (testgen::writeEvalCorpus at the
benchmark's scale); its manifest is moved out of the corpus directory, so
the program under test only ever sees the .mir files, and the verdict
checker only ever reads labels from the generator."""

import hashlib
import json
import os
import random
import shutil
import subprocess

# The first line every edit writes (tool/Replay.cpp applies the same rule):
# a comment carrying the operation number, replacing the previous edit's
# comment, so every edit is new bytes and every verdict stays known.
EDIT_MARKER = "// e2ebench edit "

# About 1% of the files per incremental operation, one of them always a
# cross-file def file.
BATCH_SHARE = 0.01


def apply_edit(text, op):
    if text.startswith(EDIT_MARKER):
        nl = text.find("\n")
        text = "" if nl < 0 else text[nl + 1:]
    return "%s%d\n%s" % (EDIT_MARKER, op, text)


class Corpus:
    def __init__(self, directory, manifest_path):
        self.dir = directory
        self.manifest_path = manifest_path
        self.files = sorted(f for f in os.listdir(directory)
                            if f.endswith(".mir"))
        with open(manifest_path) as f:
            self.manifest = json.load(f)

    def path(self, name):
        return os.path.join(self.dir, name)

    def def_files(self):
        """Files that define a callee for a file in another corpus file."""
        return [f for f in self.files if f.endswith("_def.mir") and
                f[:-len("_def.mir")] + "_use.mir" in self.files]

    def digest(self):
        h = hashlib.sha256()
        for name in self.files:
            h.update(name.encode() + b"\0")
            with open(self.path(name), "rb") as f:
                h.update(f.read())
        with open(self.manifest_path, "rb") as f:
            h.update(f.read())
        return h.hexdigest()


def generate(rsbench, seed, directory, manifest_path):
    """Writes a fresh corpus for `seed` into `directory`."""
    shutil.rmtree(directory, ignore_errors=True)
    subprocess.run([rsbench, "gen", "--seed", str(seed), "--out", directory,
                    "--manifest", manifest_path],
                   check=True, stdout=subprocess.DEVNULL)
    return Corpus(directory, manifest_path)


class EditStream:
    """The seeded order of edits. The same seed and file list give the same
    stream; it never looks at the program's output."""

    def __init__(self, seed, corpus):
        self.rng = random.Random("e2ebench-edits-%d" % seed)
        self.files = list(corpus.files)
        self.defs = corpus.def_files()
        self.others = [f for f in self.files if f not in self.defs]
        self.batch_size = max(2, round(BATCH_SHARE * len(self.files)))

    def batch(self):
        """One incremental operation's files: a def file plus others."""
        return ([self.rng.choice(self.defs)] +
                self.rng.sample(self.others, self.batch_size - 1))

    def serve_pass(self):
        """Every corpus file once, in a seeded order."""
        order = list(self.files)
        self.rng.shuffle(order)
        return order


def stream_digest(seed, corpus, batches=50, passes=2):
    s = EditStream(seed, corpus)
    h = hashlib.sha256()
    for _ in range(batches):
        h.update("\n".join(s.batch()).encode() + b"\1")
    for _ in range(passes):
        h.update("\n".join(s.serve_pass()).encode() + b"\2")
    return h.hexdigest()


def edit_file(corpus, name, op):
    p = corpus.path(name)
    with open(p) as f:
        text = f.read()
    with open(p, "w") as f:
        f.write(apply_edit(text, op))

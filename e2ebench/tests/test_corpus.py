"""The edit rule and the seeded corpus/edit-stream generator are
deterministic: the same seed gives byte-identical output, another seed
different output. The corpus half needs a built rsbench (run.py builds it
into $CARGO_TARGET_DIR, default .bench_build); it is skipped without one."""

import os
import shutil
import sys
import tempfile
import unittest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

from e2elib import build  # noqa: E402
from e2elib import corpus as corpuslib  # noqa: E402


class FakeCorpus:
    files = ["a.mir", "b.mir", "c.mir", "x_def.mir", "x_use.mir"] + \
        ["f%d.mir" % i for i in range(300)]

    def def_files(self):
        return ["x_def.mir"]


class EditTest(unittest.TestCase):
    def test_edit_replaces_previous_comment(self):
        once = corpuslib.apply_edit("fn f() {}\n", 1)
        twice = corpuslib.apply_edit(once, 2)
        self.assertEqual(once, corpuslib.EDIT_MARKER + "1\nfn f() {}\n")
        self.assertEqual(twice, corpuslib.EDIT_MARKER + "2\nfn f() {}\n")

    def test_stream_is_seeded(self):
        c = FakeCorpus()
        self.assertEqual(corpuslib.stream_digest(7, c),
                         corpuslib.stream_digest(7, c))
        self.assertNotEqual(corpuslib.stream_digest(7, c),
                            corpuslib.stream_digest(8, c))

    def test_batch_holds_a_def_file(self):
        s = corpuslib.EditStream(3, FakeCorpus())
        for _ in range(20):
            batch = s.batch()
            self.assertIn("x_def.mir", batch)
            self.assertEqual(len(set(batch)), len(batch))
        self.assertEqual(sorted(s.serve_pass()), sorted(FakeCorpus.files))


def built_rsbench():
    root = os.path.dirname(BENCH)
    try:
        with open(os.path.join(build.build_dir(root), "binaries.txt")) as f:
            path = f.read().split()[1]
    except (OSError, IndexError):
        return None
    return path if os.access(path, os.X_OK) else None


@unittest.skipUnless(built_rsbench(), "rsbench is not built")
class CorpusTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.mkdtemp(dir=os.path.dirname(BENCH),
                                    prefix=".e2ebench-test-")

    def tearDown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def gen(self, seed, tag):
        return corpuslib.generate(built_rsbench(), seed,
                                  os.path.join(self.tmp, tag),
                                  os.path.join(self.tmp, tag + ".json"))

    def test_same_seed_same_bytes_other_seed_differs(self):
        a, b, c = self.gen(5, "a"), self.gen(5, "b"), self.gen(6, "c")
        self.assertEqual(a.digest(), b.digest())
        self.assertNotEqual(a.digest(), c.digest())
        self.assertEqual(corpuslib.stream_digest(5, a),
                         corpuslib.stream_digest(5, b))

    def test_program_sees_only_mir_files(self):
        a = self.gen(5, "a")
        self.assertEqual(sorted(os.listdir(a.dir)), a.files)
        self.assertGreater(len(a.files), 600)
        self.assertEqual(len(a.def_files()), 6)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Unit tests for the tools/lint.py rule-registry engine.

Each rule gets a positive case (finding fired), a negative case (clean
code passes), and a suppression case (`// lint:allow(rule-id)` silences
it). Runs against throwaway temp trees so the real repo never leaks in.

    python3 tools/test_lint.py
"""

from __future__ import annotations

import tempfile
import unittest
from pathlib import Path

import lint


def run_lint(files: dict[str, str],
             hot_manifest: set[str] | None = None) -> list[str]:
    """Writes `files` (relpath -> contents) into a temp tree, lints every
    .cpp/.hpp, and returns the findings."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for rel, contents in files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(contents, encoding="utf-8")
        linter = lint.Linter(root=root, hot_manifest=hot_manifest or set())
        for rel in sorted(files):
            if Path(rel).suffix in lint.CPP_SUFFIXES:
                linter.lint_file(root / rel)
        return linter.findings


def run_repo_lint(files: dict[str, str]) -> list[str]:
    """Writes `files` into a temp tree and runs the repo rules over it."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for rel, contents in files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(contents, encoding="utf-8")
        linter = lint.Linter(root=root, hot_manifest=set())
        linter.lint_repo()
        return linter.findings


def rules_fired(findings: list[str]) -> set[str]:
    return {f.split("[", 1)[1].split("]", 1)[0] for f in findings}


class RegistryTest(unittest.TestCase):
    def test_every_rule_has_id_and_doc(self):
        rules = [*lint.RULES, *lint.REPO_RULES]
        ids = [r.id for r in rules]
        self.assertEqual(len(ids), len(set(ids)), "duplicate rule ids")
        for rule in rules:
            self.assertTrue(rule.id, f"{type(rule).__name__} missing id")
            self.assertTrue(rule.doc, f"{rule.id} missing doc")

    def test_expected_rules_registered(self):
        self.assertEqual(
            {r.id for r in lint.RULES},
            {"pragma-once", "endl", "raw-mutex", "naked-new",
             "unbounded-recv", "include-path", "guarded-include",
             "hot-path-alloc", "hot-path-vector", "env-prefix",
             "alloc-guard-include", "layer-children"})
        self.assertEqual({r.id for r in lint.REPO_RULES}, {"knob-doc"})


class PragmaOnceTest(unittest.TestCase):
    def test_missing(self):
        f = run_lint({"src/a.hpp": "int f();\n"})
        self.assertIn("pragma-once", rules_fired(f))

    def test_present(self):
        f = run_lint({"src/a.hpp": "// header\n#pragma once\nint f();\n"})
        self.assertNotIn("pragma-once", rules_fired(f))

    def test_cpp_exempt(self):
        f = run_lint({"src/a.cpp": "int f() { return 0; }\n"})
        self.assertNotIn("pragma-once", rules_fired(f))


class EndlTest(unittest.TestCase):
    def test_fires(self):
        f = run_lint({"src/a.cpp": 'void f() { std::cout << std::endl; }\n'})
        self.assertIn("endl", rules_fired(f))

    def test_clean(self):
        f = run_lint({"src/a.cpp": 'void f() { std::cout << "\\n"; }\n'})
        self.assertNotIn("endl", rules_fired(f))

    def test_comment_ignored(self):
        f = run_lint({"src/a.cpp": "// prefer '\\n' over std::endl\n"})
        self.assertNotIn("endl", rules_fired(f))

    def test_suppressed(self):
        f = run_lint({"src/a.cpp":
                      "void f() { std::cout << std::endl; }"
                      "  // lint:allow(endl)\n"})
        self.assertNotIn("endl", rules_fired(f))


class RawMutexTest(unittest.TestCase):
    def test_fires(self):
        f = run_lint({"src/a.cpp": "std::mutex m;\n"})
        self.assertIn("raw-mutex", rules_fired(f))

    def test_sync_hpp_exempt(self):
        f = run_lint({"src/common/sync.hpp":
                      "#pragma once\nstd::mutex m;\n"})
        self.assertNotIn("raw-mutex", rules_fired(f))

    def test_wrapper_clean(self):
        f = run_lint({"src/a.cpp": "exaclim::Mutex m;\nMutexLock l(m);\n"})
        self.assertNotIn("raw-mutex", rules_fired(f))

    def test_suppressed(self):
        f = run_lint({"src/a.cpp":
                      "std::mutex m;  // lint:allow(raw-mutex)\n"})
        self.assertNotIn("raw-mutex", rules_fired(f))


class NakedNewTest(unittest.TestCase):
    def test_fires(self):
        f = run_lint({"src/a.cpp": "int* p = new int(3);\n"})
        self.assertIn("naked-new", rules_fired(f))

    def test_delete_fires(self):
        f = run_lint({"src/a.cpp": "void f(int* p) { delete p; }\n"})
        self.assertIn("naked-new", rules_fired(f))

    def test_make_unique_clean(self):
        f = run_lint({"src/a.cpp": "auto p = std::make_unique<int>(3);\n"})
        self.assertNotIn("naked-new", rules_fired(f))

    def test_string_ignored(self):
        f = run_lint({"src/a.cpp": 'const char* s = "a new Thing";\n'})
        self.assertNotIn("naked-new", rules_fired(f))

    def test_bare_allow_suppresses(self):
        f = run_lint({"src/a.cpp": "int* p = new int(3);  // lint:allow\n"})
        self.assertNotIn("naked-new", rules_fired(f))

    def test_per_rule_allow_suppresses(self):
        f = run_lint({"src/a.cpp":
                      "int* p = new int(3);  // lint:allow(naked-new)\n"})
        self.assertNotIn("naked-new", rules_fired(f))

    def test_other_rule_allow_does_not_suppress(self):
        f = run_lint({"src/a.cpp":
                      "int* p = new int(3);  // lint:allow(endl)\n"})
        self.assertIn("naked-new", rules_fired(f))


class UnboundedRecvTest(unittest.TestCase):
    def test_fires_in_src(self):
        f = run_lint({"src/train/a.cpp": "comm.Recv(0, 1);\n"})
        self.assertIn("unbounded-recv", rules_fired(f))

    def test_world_substrate_exempt(self):
        f = run_lint({"src/comm/world.cpp": "comm.Recv(0, 1);\n"})
        self.assertNotIn("unbounded-recv", rules_fired(f))

    def test_rest_of_comm_fires(self):
        # The exemption covers only the substrate (world.*): the elastic
        # exchange path through collectives/elastic must stay bounded.
        f = run_lint({"src/comm/collectives.cpp": "comm.Recv(0, 1);\n"})
        self.assertIn("unbounded-recv", rules_fired(f))

    def test_tests_exempt(self):
        f = run_lint({"tests/a.cpp": "comm.Recv(0, 1);\n"})
        self.assertNotIn("unbounded-recv", rules_fired(f))

    def test_timeout_variant_clean(self):
        f = run_lint({"src/train/a.cpp": "comm.RecvTimeout(0, 1, 2.0);\n"})
        self.assertNotIn("unbounded-recv", rules_fired(f))

    def test_blocking_ok_marker(self):
        f = run_lint({"src/train/a.cpp":
                      "comm.Recv(0, 1);  // fault: blocking-ok\n"})
        self.assertNotIn("unbounded-recv", rules_fired(f))


class IncludePathTest(unittest.TestCase):
    def test_unresolvable_fires(self):
        f = run_lint({"src/a.cpp": '#include "nope/missing.hpp"\n'})
        self.assertIn("include-path", rules_fired(f))

    def test_resolvable_clean(self):
        f = run_lint({
            "src/common/x.hpp": "#pragma once\n",
            "src/a.cpp": '#include "common/x.hpp"\n',
        })
        self.assertNotIn("include-path", rules_fired(f))

    def test_dotdot_fires(self):
        f = run_lint({
            "src/common/x.hpp": "#pragma once\n",
            "src/nn/a.cpp": '#include "../common/x.hpp"\n',
        })
        self.assertIn("include-path", rules_fired(f))

    def test_system_header_clean(self):
        f = run_lint({"src/a.cpp": "#include <vector>\n"})
        self.assertNotIn("include-path", rules_fired(f))


class GuardedIncludeTest(unittest.TestCase):
    def test_missing_include_fires(self):
        f = run_lint({"src/a.hpp":
                      "#pragma once\nint x_ EXACLIM_GUARDED_BY(mutex_);\n"})
        self.assertIn("guarded-include", rules_fired(f))

    def test_sync_include_clean(self):
        f = run_lint({"src/a.hpp":
                      "#pragma once\n"
                      '#include "common/sync.hpp"\n'
                      "int x_ EXACLIM_GUARDED_BY(mutex_);\n"})
        self.assertNotIn("guarded-include", rules_fired(f))


class HotPathAllocTest(unittest.TestCase):
    def test_alloc_in_region_fires(self):
        f = run_lint({"src/a.cpp":
                      "void f(std::vector<int>& v) {\n"
                      "  // hot-path: begin\n"
                      "  v.push_back(1);\n"
                      "  // hot-path: end\n"
                      "}\n"})
        self.assertIn("hot-path-alloc", rules_fired(f))

    def test_alloc_outside_region_clean(self):
        f = run_lint({"src/a.cpp":
                      "void f(std::vector<int>& v) {\n"
                      "  v.push_back(1);\n"
                      "  // hot-path: begin\n"
                      "  v[0] = 2;\n"
                      "  // hot-path: end\n"
                      "}\n"})
        self.assertNotIn("hot-path-alloc", rules_fired(f))

    def test_all_banned_tokens_fire(self):
        for snippet in ("int* p = new int(3);",
                        "auto p = std::make_unique<int>(3);",
                        "v.resize(8);",
                        "v.push_back(1);"):
            f = run_lint({"src/a.cpp":
                          f"// hot-path: begin\n{snippet}\n"
                          "// hot-path: end\n"})
            self.assertIn("hot-path-alloc", rules_fired(f), snippet)

    def test_manifest_file_whole_file(self):
        f = run_lint({"src/kernel.cpp": "void f(V& v) { v.resize(8); }\n"},
                     hot_manifest={"src/kernel.cpp"})
        self.assertIn("hot-path-alloc", rules_fired(f))

    def test_manifest_clean_file_passes(self):
        f = run_lint({"src/kernel.cpp": "void f(int* v) { v[0] = 1; }\n"},
                     hot_manifest={"src/kernel.cpp"})
        self.assertNotIn("hot-path-alloc", rules_fired(f))

    def test_unbalanced_begin_fires(self):
        f = run_lint({"src/a.cpp": "// hot-path: begin\nint x;\n"})
        self.assertIn("hot-path-alloc", rules_fired(f))

    def test_unbalanced_end_fires(self):
        f = run_lint({"src/a.cpp": "int x;\n// hot-path: end\n"})
        self.assertIn("hot-path-alloc", rules_fired(f))

    def test_suppressed(self):
        f = run_lint({"src/a.cpp":
                      "// hot-path: begin\n"
                      "v.resize(8);  // lint:allow(hot-path-alloc)\n"
                      "// hot-path: end\n"})
        self.assertNotIn("hot-path-alloc", rules_fired(f))


class HotPathVectorTest(unittest.TestCase):
    def test_manifest_file_fires(self):
        f = run_lint({"src/kernel.cpp":
                      "void f() { std::vector<float> tmp(8); }\n"},
                     hot_manifest={"src/kernel.cpp"})
        self.assertIn("hot-path-vector", rules_fired(f))

    def test_non_manifest_file_clean(self):
        f = run_lint({"src/a.cpp":
                      "void f() { std::vector<float> tmp(8); }\n"})
        self.assertNotIn("hot-path-vector", rules_fired(f))

    def test_other_element_type_clean(self):
        f = run_lint({"src/kernel.cpp":
                      "void f() { std::vector<int> tmp(8); }\n"},
                     hot_manifest={"src/kernel.cpp"})
        self.assertNotIn("hot-path-vector", rules_fired(f))

    def test_comment_ignored(self):
        f = run_lint({"src/kernel.cpp":
                      "// the old std::vector<float> member\nint x;\n"},
                     hot_manifest={"src/kernel.cpp"})
        self.assertNotIn("hot-path-vector", rules_fired(f))

    def test_suppressed(self):
        f = run_lint({"src/kernel.cpp":
                      "std::vector<float> tmp(8);"
                      "  // lint:allow(hot-path-vector)\n"},
                     hot_manifest={"src/kernel.cpp"})
        self.assertNotIn("hot-path-vector", rules_fired(f))


class EnvPrefixTest(unittest.TestCase):
    def test_unprefixed_fires(self):
        f = run_lint({"src/a.cpp":
                      'const char* e = std::getenv("OMP_NUM_THREADS");\n'})
        self.assertIn("env-prefix", rules_fired(f))

    def test_prefixed_clean(self):
        f = run_lint({"src/a.cpp":
                      'const char* e = std::getenv("EXACLIM_THREADS");\n'})
        self.assertNotIn("env-prefix", rules_fired(f))

    def test_comment_ignored(self):
        f = run_lint({"src/a.cpp": '// like getenv("HOME") would\n'})
        self.assertNotIn("env-prefix", rules_fired(f))

    def test_suppressed(self):
        f = run_lint({"src/a.cpp":
                      'std::getenv("HOME");  // lint:allow(env-prefix)\n'})
        self.assertNotIn("env-prefix", rules_fired(f))


class AllocGuardIncludeTest(unittest.TestCase):
    def test_missing_include_fires(self):
        f = run_lint({"src/a.cpp":
                      'void f() { EXACLIM_ASSERT_NO_ALLOC("f"); }\n'})
        self.assertIn("alloc-guard-include", rules_fired(f))

    def test_census_macro_fires_too(self):
        f = run_lint({"src/a.cpp":
                      'void f() { EXACLIM_ALLOC_CENSUS("f"); }\n'})
        self.assertIn("alloc-guard-include", rules_fired(f))

    def test_with_include_clean(self):
        f = run_lint({"src/a.cpp":
                      '#include "common/alloc_tracker.hpp"\n'
                      'void f() { EXACLIM_ASSERT_NO_ALLOC("f"); }\n'})
        self.assertNotIn("alloc-guard-include", rules_fired(f))

    def test_tracker_itself_exempt(self):
        f = run_lint({"src/common/alloc_tracker.cpp":
                      "void f() { EXACLIM_ALLOC_SITE(s, \"x\"); }\n"})
        self.assertNotIn("alloc-guard-include", rules_fired(f))


class LayerChildrenTest(unittest.TestCase):
    HEAD = "#pragma once\n"

    def lint_src(self, body: str) -> set[str]:
        return rules_fired(run_lint({"src/a.hpp": self.HEAD + body}))

    def test_owner_without_children_fires(self):
        fired = self.lint_src(
            "class Block : public Layer {\n"
            " public:\n"
            "  Tensor Forward(const Tensor& x, bool) override { return x; }\n"
            " private:\n"
            "  std::unique_ptr<Conv2d> conv_;\n"
            "};\n")
        self.assertIn("layer-children", fired)

    def test_vector_and_layerptr_members_fire(self):
        for member in ("std::vector<std::unique_ptr<Sequential>> units_;",
                       "std::vector<LayerPtr> layers_;",
                       "LayerPtr head_{};"):
            fired = self.lint_src("class B : public Layer {\n"
                                  f"  {member}\n}};\n")
            self.assertIn("layer-children", fired, member)

    def test_subclass_of_in_file_layer_fires(self):
        fired = self.lint_src(
            "class Base : public Layer {\n"
            "  std::vector<Layer*> Children() override { return {}; }\n"
            "};\n"
            "class Derived final : public Base {\n"
            "  std::unique_ptr<ReLU> relu_;\n"
            "};\n")
        self.assertIn("layer-children", fired)

    def test_children_declared_clean(self):
        fired = self.lint_src(
            "class Block : public Layer {\n"
            " public:\n"
            "  std::vector<Layer*> Children() override {\n"
            "    return ChildList(conv_);\n"
            "  }\n"
            " private:\n"
            "  std::unique_ptr<Conv2d> conv_;\n"
            "};\n")
        self.assertNotIn("layer-children", fired)

    def test_non_owning_uses_clean(self):
        # Parameters, locals inside bodies and non-Layer classes own no
        # sublayer of a Layer.
        fired = self.lint_src(
            "class Seq : public Layer {\n"
            "  void Append(LayerPtr layer) { auto p = std::move(layer); }\n"
            "  std::unique_ptr<Conv2d> Make();\n"
            "  Tensor cached_;\n"
            "};\n"
            "class Stack {\n"
            "  std::vector<std::unique_ptr<Conv2d>> convs_;\n"
            "};\n")
        self.assertNotIn("layer-children", fired)

    def test_outside_src_clean(self):
        f = run_lint({"tests/a.cpp": "class B : public Layer {\n"
                                     "  std::unique_ptr<ReLU> r_;\n};\n"})
        self.assertNotIn("layer-children", rules_fired(f))

    def test_suppressed(self):
        fired = self.lint_src(
            "class B : public Layer {  // lint:allow(layer-children)\n"
            "  std::unique_ptr<Workspace> ws_;\n"
            "};\n")
        self.assertNotIn("layer-children", fired)


class KnobDocTest(unittest.TestCase):
    README = ("# r\n\n| variable | default | effect |\n|---|---|---|\n"
              "| `EXACLIM_A` | on | a |\n\nAlso `EXACLIM_B` in prose.\n")

    def test_documented_knobs_clean(self):
        f = run_repo_lint({
            "README.md": self.README,
            "src/a.cpp": 'auto a = std::getenv("EXACLIM_A");\n'
                         'bool b = EnvFlag("EXACLIM_B", true);\n'})
        self.assertEqual(f, [])

    def test_undocumented_getenv_fires(self):
        f = run_repo_lint({
            "README.md": self.README,
            "src/a.cpp": 'auto a = std::getenv("EXACLIM_A");\n'
                         'auto b = std::getenv("EXACLIM_B");\n'
                         'auto c = std::getenv("EXACLIM_C");\n'})
        self.assertEqual(rules_fired(f), {"knob-doc"})
        self.assertEqual(len(f), 1)
        self.assertIn("src/a.cpp:3", f[0])
        self.assertIn("EXACLIM_C", f[0])

    def test_undocumented_env_helper_fires(self):
        f = run_repo_lint({
            "README.md": self.README,
            "src/a.cpp": 'auto a = std::getenv("EXACLIM_A");\n'
                         'auto b = EnvNonNegativeInt("EXACLIM_SIZE");\n'})
        self.assertEqual(len(f), 1)
        self.assertIn("EXACLIM_SIZE", f[0])

    def test_stale_readme_row_fires(self):
        f = run_repo_lint({
            "README.md": self.README + "| `EXACLIM_GONE` | x | y |\n",
            "src/a.cpp": 'auto a = std::getenv("EXACLIM_A");\n'})
        self.assertEqual(len(f), 1)
        self.assertIn("README.md:8", f[0])
        self.assertIn("EXACLIM_GONE", f[0])

    def test_prose_mention_is_not_a_row(self):
        # EXACLIM_B is only mentioned in prose: no row, so no finding
        # even though nothing reads it.
        f = run_repo_lint({
            "README.md": self.README,
            "src/a.cpp": 'auto a = std::getenv("EXACLIM_A");\n'})
        self.assertEqual(f, [])

    def test_comment_and_non_src_ignored(self):
        f = run_repo_lint({
            "README.md": self.README,
            "src/a.cpp": 'auto a = std::getenv("EXACLIM_A");\n'
                         '// std::getenv("EXACLIM_C") in a comment\n',
            "tests/t.cpp": 'auto c = std::getenv("EXACLIM_C");\n'})
        self.assertEqual(f, [])

    def test_suppressed(self):
        f = run_repo_lint({
            "README.md": self.README,
            "src/a.cpp": 'auto a = std::getenv("EXACLIM_A");\n'
                         'auto c = std::getenv("EXACLIM_C");'
                         '  // lint:allow(knob-doc)\n'})
        self.assertEqual(f, [])


class HelperTest(unittest.TestCase):
    def test_strip_keeps_token_boundaries(self):
        self.assertEqual(lint.strip_comments_and_strings('f("x") // c'),
                         'f("") ')

    def test_strip_keep_strings(self):
        self.assertEqual(lint.strip_comments_keep_strings('f("x") // c'),
                         'f("x") ')

    def test_block_comment_spanning_lines(self):
        f = run_lint({"src/a.cpp":
                      "/* block with std::endl\n"
                      "   and new int(3) inside\n"
                      "*/ int x;\n"})
        self.assertEqual(rules_fired(f), set())

    def test_hot_manifest_parser(self):
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "manifest.txt"
            p.write_text("# comment\n\nsrc/a.cpp  # trailing\nsrc/b.cpp\n")
            self.assertEqual(lint.load_hot_manifest(p),
                             {"src/a.cpp", "src/b.cpp"})
        self.assertEqual(lint.load_hot_manifest(Path("/nonexistent")), set())


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Self-tests for tools/lint_invariants.py.

Each rule is exercised against synthetic sources laid out in a temp repo
root, both in its firing and its waived/clean configuration — the linter
gates CI, so the linter itself is under test (same policy as the bench
gate). Run directly or via ctest (registered in tests/CMakeLists.txt).
"""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tools"))
import lint_invariants as lint  # noqa: E402


def make_source(path_rel, text, root):
    path = os.path.join(root, path_rel)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return lint.SourceFile.load(root, path_rel)


class StripTest(unittest.TestCase):
    def test_preserves_line_structure(self):
        text = 'int a; // rand()\nconst char* s = "std::random_device";\nint b;\n'
        stripped = lint.strip_comments_and_strings(text)
        self.assertEqual(text.count("\n"), stripped.count("\n"))
        self.assertNotIn("rand", stripped)
        self.assertNotIn("random_device", stripped)

    def test_block_comments_and_char_literals(self):
        text = "/* rand() \n rand() */ char c = '%';\n"
        stripped = lint.strip_comments_and_strings(text)
        self.assertNotIn("rand", stripped)
        self.assertNotIn("%", stripped)


class RulesTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory(prefix="lint_test_")
        self.root = self._tmp.name

    def tearDown(self):
        self._tmp.cleanup()

    def violations(self, path_rel, text, check):
        return check(make_source(path_rel, text, self.root))

    # ---- forbidden-rng ----

    def test_forbidden_rng_fires(self):
        v = self.violations(
            "src/sampling/bad.cc",
            "int f() { return rand(); }\n",
            lint.check_forbidden_rng,
        )
        self.assertEqual([x.rule for x in v], ["forbidden-rng"])

    def test_forbidden_rng_random_device(self):
        v = self.violations(
            "src/core/bad.cc",
            "#include <random>\nstd::random_device rd;\n",
            lint.check_forbidden_rng,
        )
        self.assertTrue(v)

    def test_forbidden_rng_ignores_comments_and_home(self):
        self.assertFalse(
            self.violations(
                "src/core/ok.cc",
                "// rand() is banned here\nint x;\n",
                lint.check_forbidden_rng,
            )
        )
        self.assertFalse(
            self.violations(
                "src/util/rng.h",
                "int seed() { return rand(); }\n",  # home file is exempt
                lint.check_forbidden_rng,
            )
        )

    def test_forbidden_rng_does_not_flag_suffix_identifiers(self):
        self.assertFalse(
            self.violations(
                "src/core/ok2.cc",
                "int expand(int x) { return do_expand(x); }\n"
                "double integrand(double t);\n",
                lint.check_forbidden_rng,
            )
        )

    # ---- hot-path-std-function ----

    def test_hot_path_std_function_fires_and_waives(self):
        bad = "#include <functional>\nstd::function<void()> cb;\n"
        v = self.violations(
            "src/sketch/bad.h", bad, lint.check_hot_path_std_function
        )
        self.assertEqual([x.rule for x in v], ["hot-path-std-function"])

        waived = (
            "#include <functional>\n"
            "// lint:allow(hot-path-std-function): invoked once per chunk\n"
            "std::function<void()> cb;\n"
        )
        self.assertFalse(
            self.violations(
                "src/sketch/ok.h", waived, lint.check_hot_path_std_function
            )
        )

    def test_hot_path_rule_ignores_cold_layers(self):
        self.assertFalse(
            self.violations(
                "src/core/ok.cc",
                "#include <functional>\nstd::function<void()> cb;\n",
                lint.check_hot_path_std_function,
            )
        )

    # ---- batch-kernel-modulo ----

    def test_batch_modulo_fires_inside_batch_kernel_only(self):
        text = (
            "void SignBatch(const uint64_t* k, size_t n, uint64_t* out) {\n"
            "  for (size_t i = 0; i < n; ++i) out[i] = k[i] % 7;\n"
            "}\n"
            "uint64_t Scalar(uint64_t k) { return k % 7; }\n"
        )
        v = self.violations(
            "src/prng/bad.cc", text, lint.check_batch_kernel_modulo
        )
        self.assertEqual(len(v), 1)
        self.assertEqual(v[0].rule, "batch-kernel-modulo")

    def test_batch_modulo_ignores_declarations_and_strings(self):
        text = (
            "void SignBatch(const uint64_t* k, size_t n, uint64_t* out);\n"
            'void BucketBatch() { printf("100%%\\n"); }\n'
        )
        self.assertFalse(
            self.violations(
                "src/prng/ok.cc", text, lint.check_batch_kernel_modulo
            )
        )

    # ---- mutator-metrics ----

    def test_mutator_metrics_fires(self):
        text = "void FooSketch::Update(uint64_t k) { table_[k] += 1; }\n"
        v = self.violations(
            "src/sketch/foo.cc", text, lint.check_mutator_metrics
        )
        self.assertEqual([x.rule for x in v], ["mutator-metrics"])

    def test_mutator_metrics_accepts_hook_and_forwarders(self):
        hooked = (
            "void FooSketch::Update(uint64_t k) {\n"
            '  SKETCHSAMPLE_METRIC_INC("sketch.foo.updates");\n'
            "  table_[k] += 1;\n"
            "}\n"
        )
        self.assertFalse(
            self.violations(
                "src/sketch/hooked.cc", hooked, lint.check_mutator_metrics
            )
        )
        forwarder = (
            "void FooSketch::Update(uint64_t k) { UpdateBatch(&k, 1); }\n"
        )
        self.assertFalse(
            self.violations(
                "src/sketch/fwd.cc", forwarder, lint.check_mutator_metrics
            )
        )

    def test_mutator_metrics_only_scoped_dirs(self):
        text = "void Foo::Update(uint64_t k) { table_[k] += 1; }\n"
        self.assertFalse(
            self.violations("src/core/foo.cc", text, lint.check_mutator_metrics)
        )
        # The sketch vocabulary does not apply in src/stream and vice versa.
        self.assertFalse(
            self.violations(
                "src/stream/foo.cc", text, lint.check_mutator_metrics
            )
        )

    def test_mutator_metrics_covers_stream_operators(self):
        bare = "void FooOperator::OnTuple(uint64_t v) { count_ += v; }\n"
        v = self.violations(
            "src/stream/foo.cc", bare, lint.check_mutator_metrics
        )
        self.assertEqual([x.rule for x in v], ["mutator-metrics"])

        hooked = (
            "size_t FooSource::NextChunk(uint64_t* out, size_t n) {\n"
            '  SKETCHSAMPLE_METRIC_ADD("stream.foo.tuples", n);\n'
            "  return n;\n"
            "}\n"
        )
        self.assertFalse(
            self.violations(
                "src/stream/hooked.cc", hooked, lint.check_mutator_metrics
            )
        )
        # Next -> NextChunk forwarding inherits the callee's hook.
        forwarder = (
            "std::optional<uint64_t> FooSource::Next() {\n"
            "  uint64_t v;\n"
            "  return NextChunk(&v, 1) ? std::optional<uint64_t>(v)\n"
            "                          : std::nullopt;\n"
            "}\n"
        )
        self.assertFalse(
            self.violations(
                "src/stream/fwd.cc", forwarder, lint.check_mutator_metrics
            )
        )

    def test_mutator_metrics_covers_shard_engine_entry_points(self):
        # Template-qualified definitions (ShardEngine<SketchT>::Run) must
        # match, and the shard_engine scope must win over the broader
        # src/stream prefix.
        bare = (
            "template <typename SketchT>\n"
            "ShardEngineStats ShardEngine<SketchT>::Run(StreamSource& s) {\n"
            "  return ShardEngineStats{};\n"
            "}\n"
        )
        v = self.violations(
            "src/stream/shard_engine.cc", bare, lint.check_mutator_metrics
        )
        self.assertEqual([x.rule for x in v], ["mutator-metrics"])

        hooked = (
            "template <typename SketchT>\n"
            "void ShardEngine<SketchT>::Restore(const Checkpoint& cp) {\n"
            '  SKETCHSAMPLE_METRIC_INC("engine.shard.restores");\n'
            "}\n"
        )
        self.assertFalse(
            self.violations(
                "src/stream/shard_engine_hooked.cc",
                hooked,
                lint.check_mutator_metrics,
            )
        )
        # The stream vocabulary does not leak into the shard_engine scope:
        # a bare OnTuple defined here is outside its mutator list.
        stream_vocab = (
            "void ShardEngineHelper::OnTuple(uint64_t v) { count_ += v; }\n"
        )
        self.assertFalse(
            self.violations(
                "src/stream/shard_engine_helper.cc",
                stream_vocab,
                lint.check_mutator_metrics,
            )
        )

    # ---- direct-include ----

    def test_direct_include_fires(self):
        v = self.violations(
            "src/core/bad.h",
            "inline int f() { return std::min(1, 2); }\n",
            lint.check_direct_include,
        )
        self.assertEqual([x.rule for x in v], ["direct-include"])
        self.assertIn("<algorithm>", v[0].message)

    def test_direct_include_satisfied_directly_or_via_own_header(self):
        self.assertFalse(
            self.violations(
                "src/core/ok.h",
                "#include <algorithm>\n"
                "inline int f() { return std::min(1, 2); }\n",
                lint.check_direct_include,
            )
        )
        make_source("src/core/pair.h", "#include <algorithm>\n", self.root)
        self.assertFalse(
            self.violations(
                "src/core/pair.cc",
                '#include "src/core/pair.h"\n'
                "int g() { return std::min(1, 2); }\n",
                lint.check_direct_include,
            )
        )

    def test_direct_include_skips_tests_and_bench(self):
        self.assertFalse(
            self.violations(
                "tests/whatever_test.cc",
                "int f() { return std::min(1, 2); }\n",
                lint.check_direct_include,
            )
        )

    # ---- simd-intrinsics-confined ----

    def test_simd_intrinsics_fire_outside_kernel_tus(self):
        v = self.violations(
            "src/sketch/bad.cc",
            "#include <immintrin.h>\n"
            "__m256i f(__m256i a) { return _mm256_add_epi64(a, a); }\n",
            lint.check_simd_intrinsics_confined,
        )
        self.assertTrue(v)
        self.assertTrue(all(x.rule == "simd-intrinsics-confined" for x in v))
        # Both the include and the intrinsic tokens are reported.
        self.assertGreaterEqual(len(v), 2)

    def test_simd_intrinsics_allowed_in_kernel_tus_and_waivable(self):
        self.assertFalse(
            self.violations(
                "src/prng/simd/kernels_avx2.cc",
                "#include <immintrin.h>\n"
                "__m256i f(__m256i a) { return _mm256_add_epi64(a, a); }\n",
                lint.check_simd_intrinsics_confined,
            )
        )
        self.assertFalse(
            self.violations(
                "src/util/special.cc",
                "// lint:allow(simd-intrinsics-confined) measured reason\n"
                "#include <immintrin.h>\n",
                lint.check_simd_intrinsics_confined,
            )
        )

    def test_simd_intrinsics_ignores_comments_and_lookalikes(self):
        self.assertFalse(
            self.violations(
                "src/sketch/ok.cc",
                "// _mm256_add_epi64 is only named in this comment\n"
                "int _mm_lookalike;  // declaration, not a call\n",
                lint.check_simd_intrinsics_confined,
            )
        )

    # ---- simd-scalar-twin ----

    SCALAR_TABLE = (
        "const int t = 0;\n"
        "KernelTable k{\n"
        "    .name = s,\n"
        "    .eh3_sign = ScalarEh3Sign,\n"
        "    .bucket_batch = ScalarBucketBatch,\n"
        "};\n"
    )

    def test_simd_scalar_twin_passes_when_slots_match(self):
        make_source(
            "src/prng/simd/kernels_scalar.cc", self.SCALAR_TABLE, self.root
        )
        self.assertFalse(
            self.violations(
                "src/prng/simd/kernels_avx2.cc",
                "KernelTable k{\n"
                "    .name = s,\n"
                "    .eh3_sign = Avx2Eh3Sign,\n"
                "};\n",
                lint.check_simd_scalar_twin,
            )
        )

    def test_simd_scalar_twin_fires_on_unregistered_slot(self):
        make_source(
            "src/prng/simd/kernels_scalar.cc", self.SCALAR_TABLE, self.root
        )
        v = self.violations(
            "src/prng/simd/kernels_avx512.cc",
            "KernelTable k{\n"
            "    .name = s,\n"
            "    .vector_only_kernel = Avx512Thing,\n"
            "};\n",
            lint.check_simd_scalar_twin,
        )
        self.assertEqual([x.rule for x in v], ["simd-scalar-twin"])
        self.assertIn("vector_only_kernel", v[0].message)

    def test_simd_scalar_twin_skips_scalar_table_and_other_files(self):
        make_source(
            "src/prng/simd/kernels_scalar.cc", self.SCALAR_TABLE, self.root
        )
        self.assertFalse(
            self.violations(
                "src/prng/simd/kernels_scalar.cc",
                self.SCALAR_TABLE,
                lint.check_simd_scalar_twin,
            )
        )
        self.assertFalse(
            self.violations(
                "src/sketch/fagms.cc",
                "struct P p{.x = 1};\n",
                lint.check_simd_scalar_twin,
            )
        )

    # ---- raw-atomic-confined ----

    def test_raw_atomic_fires_outside_policy_seam(self):
        v = self.violations(
            "src/service/cell.h",
            "#include <atomic>\n"
            "std::atomic<int> flag{0};\n"
            "auto o = std::memory_order_acquire;\n",
            lint.check_raw_atomic_confined,
        )
        self.assertEqual([x.rule for x in v], ["raw-atomic-confined"] * 2)
        self.assertEqual([x.line for x in v], [2, 3])

    def test_raw_atomic_allowed_in_policy_and_metrics(self):
        for home in (
            "src/util/atomics_policy.h",
            "src/util/metrics.h",
            "src/util/metrics.cc",
        ):
            self.assertFalse(
                self.violations(
                    home,
                    "#include <atomic>\nstd::atomic<long> hits{0};\n",
                    lint.check_raw_atomic_confined,
                )
            )

    def test_raw_atomic_line_and_file_waivers(self):
        self.assertFalse(
            self.violations(
                "src/util/other.h",
                "// lint:allow(raw-atomic-confined): measured reason\n"
                "std::atomic<int> x{0};\n",
                lint.check_raw_atomic_confined,
            )
        )
        self.assertFalse(
            self.violations(
                "tests/harness_test.cc",
                "// lint:allow-file(raw-atomic-confined): real-thread harness\n"
                "std::atomic<int> gate{0};\n"
                "std::atomic<bool> stop{false};\n",
                lint.check_raw_atomic_confined,
            )
        )

    def test_raw_atomic_ignores_comments_and_strings(self):
        self.assertFalse(
            self.violations(
                "src/sketch/fagms.cc",
                "// replaces the old std::atomic<uint64_t> counter\n"
                'const char* s = "std::memory_order_seq_cst";\n',
                lint.check_raw_atomic_confined,
            )
        )

    # ---- node-container-in-hot-path ----

    def test_node_container_fires_in_hot_paths(self):
        for path in (
            "src/sketch/kmv.h",
            "src/stream/shard_engine.cc",
            "src/service/push_source.h",
            "src/service/push_source.cc",
        ):
            v = self.violations(
                path,
                "#include <set>\n"
                "std::set<uint64_t> a;\n"
                "std::map<uint64_t, int> b;\n"
                "std :: deque<uint64_t> c;\n"
                "std::list<int> d;\n",
                lint.check_node_container_in_hot_path,
            )
            self.assertEqual(
                [x.rule for x in v], ["node-container-in-hot-path"] * 4, path
            )
            self.assertEqual([x.line for x in v], [2, 3, 4, 5], path)

    def test_node_container_ignores_other_files_and_lookalikes(self):
        self.assertFalse(
            self.violations(
                "src/service/service.cc",
                "std::map<uint64_t, uint64_t> sessions;\n",
                lint.check_node_container_in_hot_path,
            )
        )
        self.assertFalse(
            self.violations(
                "src/sketch/kll.cc",
                "// the old std::set<uint64_t> storage\n"
                'const char* s = "std::deque";\n'
                "std::vector<uint64_t> v; std::unordered_map<int, int> u;\n"
                "std::setw(4); my::set<int> q; std::list_like x;\n",
                lint.check_node_container_in_hot_path,
            )
        )

    def test_node_container_line_waiver(self):
        self.assertFalse(
            self.violations(
                "src/stream/window.h",
                "// lint:allow(node-container-in-hot-path): built once\n"
                "std::map<int, int> table;\n",
                lint.check_node_container_in_hot_path,
            )
        )

    # ---- tsan-supp-rationale ----

    def write_tsan_supp(self, text):
        with open(os.path.join(self.root, "tsan.supp"), "w") as fh:
            fh.write(text)

    def test_tsan_supp_empty_or_comment_only_is_clean(self):
        self.assertFalse(lint.check_tsan_supp_rationale(self.root))  # absent
        self.write_tsan_supp("# policy: entries need a rationale\n\n")
        self.assertFalse(lint.check_tsan_supp_rationale(self.root))

    def test_tsan_supp_entry_without_rationale_fires(self):
        self.write_tsan_supp(
            "# third-party noise\nrace:libthirdparty.so\n"
        )
        v = lint.check_tsan_supp_rationale(self.root)
        self.assertEqual([x.rule for x in v], ["tsan-supp-rationale"])
        self.assertEqual(v[0].line, 2)

    def test_tsan_supp_entry_with_rationale_passes(self):
        self.write_tsan_supp(
            "# rationale: libthirdparty interns strings racily; upstream\n"
            "# bug 123, benign under our usage.\n"
            "race:libthirdparty.so\n"
            "called_from_lib:libthirdparty.so\n"
            "\n"
            "race:unexplained_function\n"
        )
        v = lint.check_tsan_supp_rationale(self.root)
        # The rationale covers the contiguous block; the entry after the
        # blank line starts a new block and needs its own.
        self.assertEqual([x.line for x in v], [6])


class HeaderCheckTest(unittest.TestCase):
    def test_non_self_contained_header_fails(self):
        cxx = os.environ.get("CXX", "c++")
        import shutil

        if shutil.which(cxx) is None:
            self.skipTest(f"no compiler '{cxx}'")
        with tempfile.TemporaryDirectory(prefix="lint_hdr_test_") as root:
            good = os.path.join(root, "src", "good.h")
            bad = os.path.join(root, "src", "bad.h")
            os.makedirs(os.path.dirname(good))
            with open(good, "w") as fh:
                fh.write(
                    "#ifndef GOOD_H_\n#define GOOD_H_\n"
                    "#include <vector>\n"
                    "inline bool f(const std::vector<int>& v) "
                    "{ return v.empty(); }\n"
                    "#endif\n"
                )
            with open(bad, "w") as fh:
                # Uses std::vector without including it: only compiles when
                # some other header happened to pull <vector> in first.
                fh.write(
                    "#ifndef BAD_H_\n#define BAD_H_\n"
                    "inline bool f(const std::vector<int>& v) "
                    "{ return v.empty(); }\n"
                    "#endif\n"
                )
            v = lint.check_headers(root, ["src/good.h", "src/bad.h"], cxx)
            self.assertEqual([x.path for x in v], ["src/bad.h"])
            self.assertEqual(v[0].rule, "self-contained-header")


if __name__ == "__main__":
    unittest.main()

// Tests for the sketchsample command-line tool (driven in-process).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "tools/cli.h"

namespace sketchsample {
namespace cli {
namespace {

namespace fs = std::filesystem;

#ifndef SKETCHSAMPLE_GOLDEN_DIR
#error "SKETCHSAMPLE_GOLDEN_DIR must point at tests/golden"
#endif

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("sketchsample_cli_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::create_directories(dir_);
  }

  void TearDown() override { fs::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  // Runs the CLI with the given arguments, capturing stdout.
  int Run(std::vector<std::string> args, std::string* output = nullptr) {
    args.insert(args.begin(), "sketchsample");
    std::vector<char*> argv;
    argv.reserve(args.size());
    for (auto& a : args) argv.push_back(a.data());
    ::testing::internal::CaptureStdout();
    const int code = RunCli(static_cast<int>(argv.size()), argv.data());
    const std::string captured = ::testing::internal::GetCapturedStdout();
    if (output != nullptr) *output = captured;
    return code;
  }

  fs::path dir_;
};

TEST_F(CliTest, ValuesFileRoundTrip) {
  const std::vector<uint64_t> values = {0, 42, 7, 1000000007};
  WriteValuesFile(Path("v.txt"), values);
  EXPECT_EQ(ReadValuesFile(Path("v.txt")), values);
}

TEST_F(CliTest, ValuesFileSkipsCommentsAndBlanks) {
  {
    std::FILE* f = std::fopen(Path("v.txt").c_str(), "w");
    std::fputs("# header\n1\n\n2\n# trailing\n3\n", f);
    std::fclose(f);
  }
  EXPECT_EQ(ReadValuesFile(Path("v.txt")),
            (std::vector<uint64_t>{1, 2, 3}));
}

TEST_F(CliTest, ValuesFileRejectsGarbage) {
  {
    std::FILE* f = std::fopen(Path("v.txt").c_str(), "w");
    std::fputs("1\nbanana\n", f);
    std::fclose(f);
  }
  EXPECT_THROW(ReadValuesFile(Path("v.txt")), std::runtime_error);
  EXPECT_THROW(ReadValuesFile(Path("missing.txt")), std::runtime_error);
}

TEST_F(CliTest, NoArgsFails) {
  EXPECT_NE(Run({}), 0);
  EXPECT_NE(Run({"frobnicate"}), 0);
}

TEST_F(CliTest, GenerateZipfWritesRequestedCount) {
  std::string out;
  ASSERT_EQ(Run({"generate", "--kind=zipf", "--domain=100", "--tuples=5000",
                 "--skew=1", "--out=" + Path("z.txt")},
                &out),
            0);
  EXPECT_NE(out.find("5000"), std::string::npos);
  EXPECT_EQ(ReadValuesFile(Path("z.txt")).size(), 5000u);
}

TEST_F(CliTest, GenerateTpchKinds) {
  ASSERT_EQ(Run({"generate", "--kind=tpch-orders", "--scale=0.001",
                 "--out=" + Path("o.txt")}),
            0);
  ASSERT_EQ(Run({"generate", "--kind=tpch-lineitem", "--scale=0.001",
                 "--out=" + Path("l.txt")}),
            0);
  EXPECT_EQ(ReadValuesFile(Path("o.txt")).size(), 1500u);
  EXPECT_GT(ReadValuesFile(Path("l.txt")).size(), 1500u);
  EXPECT_NE(Run({"generate", "--kind=nope", "--out=" + Path("x.txt")}), 0);
}

TEST_F(CliTest, ExactSelfJoinMatchesHandComputation) {
  WriteValuesFile(Path("v.txt"), {1, 1, 1, 2, 2, 5});  // F2 = 9 + 4 + 1
  std::string out;
  ASSERT_EQ(Run({"exact", "--agg=selfjoin", "--in=" + Path("v.txt")}, &out),
            0);
  EXPECT_DOUBLE_EQ(std::stod(out), 14.0);
}

TEST_F(CliTest, ExactJoinMatchesHandComputation) {
  WriteValuesFile(Path("f.txt"), {1, 1, 2});
  WriteValuesFile(Path("g.txt"), {1, 2, 2, 3});
  std::string out;
  ASSERT_EQ(Run({"exact", "--agg=join", "--in=" + Path("f.txt"),
                 "--in-g=" + Path("g.txt")},
                &out),
            0);
  EXPECT_DOUBLE_EQ(std::stod(out), 2 * 1 + 1 * 2);
}

TEST_F(CliTest, EstimateFullSketchIsAccurate) {
  ASSERT_EQ(Run({"generate", "--kind=zipf", "--domain=500", "--tuples=20000",
                 "--skew=1", "--out=" + Path("z.txt")}),
            0);
  std::string exact_out, est_out;
  ASSERT_EQ(Run({"exact", "--agg=selfjoin", "--in=" + Path("z.txt")},
                &exact_out),
            0);
  ASSERT_EQ(Run({"estimate", "--agg=selfjoin", "--in=" + Path("z.txt"),
                 "--buckets=2048"},
                &est_out),
            0);
  const double exact = std::stod(exact_out);
  const double est = std::stod(est_out);
  EXPECT_LT(std::abs(est - exact) / exact, 0.1);
}

TEST_F(CliTest, EstimateWithSamplingModes) {
  ASSERT_EQ(Run({"generate", "--kind=zipf", "--domain=500", "--tuples=20000",
                 "--skew=1", "--out=" + Path("z.txt")}),
            0);
  std::string exact_out;
  ASSERT_EQ(Run({"exact", "--agg=selfjoin", "--in=" + Path("z.txt")},
                &exact_out),
            0);
  const double exact = std::stod(exact_out);
  for (const std::string mode : {"bernoulli", "wr", "wor"}) {
    std::string est_out;
    ASSERT_EQ(Run({"estimate", "--agg=selfjoin", "--in=" + Path("z.txt"),
                   "--sampling=" + mode, "--p=0.2", "--fraction=0.2",
                   "--buckets=2048"},
                  &est_out),
              0)
        << mode;
    EXPECT_LT(std::abs(std::stod(est_out) - exact) / exact, 0.3) << mode;
  }
  EXPECT_NE(Run({"estimate", "--agg=selfjoin", "--in=" + Path("z.txt"),
                 "--sampling=alien"}),
            0);
}

TEST_F(CliTest, SketchCombineWorkflow) {
  ASSERT_EQ(Run({"generate", "--kind=zipf", "--domain=300", "--tuples=10000",
                 "--skew=1", "--out=" + Path("f.txt")}),
            0);
  ASSERT_EQ(Run({"generate", "--kind=zipf", "--domain=300", "--tuples=10000",
                 "--skew=1", "--seed=2", "--out=" + Path("g.txt")}),
            0);
  ASSERT_EQ(Run({"sketch", "--in=" + Path("f.txt"),
                 "--out=" + Path("f.sk"), "--buckets=2048"}),
            0);
  ASSERT_EQ(Run({"sketch", "--in=" + Path("g.txt"),
                 "--out=" + Path("g.sk"), "--buckets=2048"}),
            0);

  std::string exact_out, combine_out;
  ASSERT_EQ(Run({"exact", "--agg=join", "--in=" + Path("f.txt"),
                 "--in-g=" + Path("g.txt")},
                &exact_out),
            0);
  ASSERT_EQ(Run({"combine", "--agg=join", "--a=" + Path("f.sk"),
                 "--b=" + Path("g.sk")},
                &combine_out),
            0);
  const double exact = std::stod(exact_out);
  EXPECT_LT(std::abs(std::stod(combine_out) - exact) / exact, 0.1);
}

TEST_F(CliTest, CombineMergeEqualsUnionSketch) {
  WriteValuesFile(Path("a.txt"), {1, 2, 3, 4, 5});
  WriteValuesFile(Path("b.txt"), {6, 7, 8, 9, 10});
  WriteValuesFile(Path("all.txt"), {1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  ASSERT_EQ(Run({"sketch", "--in=" + Path("a.txt"), "--out=" + Path("a.sk"),
                 "--buckets=64"}),
            0);
  ASSERT_EQ(Run({"sketch", "--in=" + Path("b.txt"), "--out=" + Path("b.sk"),
                 "--buckets=64"}),
            0);
  ASSERT_EQ(Run({"sketch", "--in=" + Path("all.txt"),
                 "--out=" + Path("all.sk"), "--buckets=64"}),
            0);
  ASSERT_EQ(Run({"combine", "--agg=merge", "--a=" + Path("a.sk"),
                 "--b=" + Path("b.sk"), "--out=" + Path("merged.sk")}),
            0);
  std::string merged_out, all_out;
  ASSERT_EQ(
      Run({"combine", "--agg=selfjoin", "--a=" + Path("merged.sk")},
          &merged_out),
      0);
  ASSERT_EQ(Run({"combine", "--agg=selfjoin", "--a=" + Path("all.sk")},
                &all_out),
            0);
  EXPECT_DOUBLE_EQ(std::stod(merged_out), std::stod(all_out));
}

TEST_F(CliTest, StatsReportsCountDistinctF2) {
  WriteValuesFile(Path("v.txt"), {1, 1, 1, 2, 2, 5});
  std::string out;
  ASSERT_EQ(Run({"stats", "--in=" + Path("v.txt"), "--buckets=512"}, &out),
            0);
  EXPECT_NE(out.find("count    6"), std::string::npos);
  // 3 distinct values, small enough for KMV to be exact.
  EXPECT_NE(out.find("distinct 3"), std::string::npos);
  // F2 = 9 + 4 + 1 = 14, exact for 3 values in 512 buckets w.h.p.; parse it.
  const auto pos = out.find("f2       ");
  ASSERT_NE(pos, std::string::npos);
  EXPECT_DOUBLE_EQ(std::stod(out.substr(pos + 9)), 14.0);
}

TEST_F(CliTest, StatsRejectsEmptyFile) {
  WriteValuesFile(Path("v.txt"), {});
  EXPECT_NE(Run({"stats", "--in=" + Path("v.txt")}), 0);
}

TEST_F(CliTest, TopKFindsHeavyValue) {
  std::vector<uint64_t> values;
  for (int i = 0; i < 500; ++i) values.push_back(7);
  for (uint64_t v = 0; v < 200; ++v) values.push_back(v);
  WriteValuesFile(Path("v.txt"), values);
  std::string out;
  ASSERT_EQ(Run({"topk", "--in=" + Path("v.txt"), "--k=1",
                 "--buckets=1024"},
                &out),
            0);
  EXPECT_EQ(out.rfind("7 ", 0), 0u) << out;  // key 7 is the top hitter
}

TEST_F(CliTest, RangeAndQuantileQueries) {
  std::vector<uint64_t> values;
  for (uint64_t v = 0; v < 100; ++v) values.push_back(v);
  WriteValuesFile(Path("v.txt"), values);
  std::string out;
  ASSERT_EQ(Run({"range", "--in=" + Path("v.txt"), "--log-universe=7",
                 "--lo=10", "--hi=19", "--buckets=2048"},
                &out),
            0);
  EXPECT_NEAR(std::stod(out), 10.0, 1.5);

  ASSERT_EQ(Run({"range", "--in=" + Path("v.txt"), "--log-universe=7",
                 "--quantile=0.5", "--buckets=2048"},
                &out),
            0);
  EXPECT_NEAR(std::stod(out), 50.0, 10.0);
}

// Extracts the value printed after `key` on its own line of `stream`
// output (e.g. Field(out, "estimate") -> "1234.5").
std::string Field(const std::string& out, const std::string& key) {
  size_t pos = out.rfind(key, 0) == 0 ? 0 : out.find("\n" + key);
  EXPECT_NE(pos, std::string::npos) << "no field '" << key << "' in:\n"
                                    << out;
  if (pos == std::string::npos) return "";
  pos = out.find_first_not_of(" ", pos + key.size() + (out[pos] == '\n'));
  const size_t end = out.find('\n', pos);
  return out.substr(pos, end - pos);
}

TEST_F(CliTest, StreamFixedRateReportsHonestEstimate) {
  std::string out;
  ASSERT_EQ(Run({"stream", "--domain=300", "--tuples=20000", "--skew=1",
                 "--shed-p=0.5", "--buckets=2048"},
                &out),
            0);
  EXPECT_EQ(Field(out, "outcome"), "ended");
  EXPECT_EQ(Field(out, "tuples"), "20000");
  const double realized_p = std::stod(Field(out, "realized_p"));
  EXPECT_NEAR(realized_p, 0.5, 0.05);
  const double exact = std::stod(Field(out, "exact"));
  const double estimate = std::stod(Field(out, "estimate"));
  EXPECT_LT(std::abs(estimate - exact) / exact, 0.3);
  // The Eq 26 interval is a proper interval around the estimate.
  std::istringstream ci(Field(out, "ci"));
  double lo = 0, hi = 0;
  ASSERT_TRUE(ci >> lo >> hi);
  EXPECT_LT(lo, hi);
  EXPECT_LE(lo, estimate);
  EXPECT_GE(hi, estimate);
}

TEST_F(CliTest, StreamAdaptiveShedsDownToTheBudget) {
  std::string out;
  ASSERT_EQ(Run({"stream", "--domain=300", "--tuples=60000", "--skew=1",
                 "--shed-budget=700", "--shed-window=5000", "--min-p=0.02",
                 "--buckets=2048"},
                &out),
            0);
  EXPECT_EQ(Field(out, "outcome"), "ended");
  // 5000 offered per window against a budget of 700: the controller must
  // shed hard — the full-rate start is not sustained.
  EXPECT_LT(std::stod(Field(out, "final_p")), 0.3);
  EXPECT_LT(std::stod(Field(out, "realized_p")), 0.5);
  EXPECT_GT(std::stoull(Field(out, "windows")), 5u);
}

TEST_F(CliTest, StreamCheckpointResumeMatchesUninterrupted) {
  const std::vector<std::string> base = {
      "stream",          "--domain=300",
      "--tuples=60000",  "--skew=1",
      "--shed-p=0.3",    "--shed-seed=41",
      "--shed-budget=700", "--shed-window=5000",
      "--min-p=0.02",    "--buckets=512",
      "--checkpoint-every=12000", "--checkpoint-out=" + Path("ck")};

  std::string full_out;
  ASSERT_EQ(Run(base, &full_out), 0);
  ASSERT_EQ(Field(full_out, "outcome"), "ended");

  // Kill mid-stream (after the checkpoint at 24000), then resume.
  auto killed = base;
  killed.push_back("--max-tuples=29000");
  std::string killed_out;
  ASSERT_EQ(Run(killed, &killed_out), 0);
  EXPECT_EQ(Field(killed_out, "outcome"), "stopped");
  EXPECT_GE(std::stoull(Field(killed_out, "checkpoints")), 2u);

  auto resumed = base;
  resumed.push_back("--resume=" + Path("ck"));
  std::string resumed_out;
  ASSERT_EQ(Run(resumed, &resumed_out), 0);

  // Bit-exact resume: every estimator-relevant field matches the
  // uninterrupted run to the last digit (both print with %.17g).
  EXPECT_EQ(Field(resumed_out, "outcome"), "ended");
  EXPECT_EQ(Field(resumed_out, "tuples"), Field(full_out, "tuples"));
  EXPECT_EQ(Field(resumed_out, "kept"), Field(full_out, "kept"));
  EXPECT_EQ(Field(resumed_out, "realized_p"),
            Field(full_out, "realized_p"));
  EXPECT_EQ(Field(resumed_out, "final_p"), Field(full_out, "final_p"));
  EXPECT_EQ(Field(resumed_out, "estimate"), Field(full_out, "estimate"));
}

TEST_F(CliTest, StreamCorruptCheckpointFailsCleanly) {
  {
    std::FILE* f = std::fopen(Path("bad.ck").c_str(), "wb");
    std::fputs("not a checkpoint", f);
    std::fclose(f);
  }
  EXPECT_NE(Run({"stream", "--tuples=1000", "--resume=" + Path("bad.ck")}),
            0);
  EXPECT_NE(
      Run({"stream", "--tuples=1000", "--resume=" + Path("missing.ck")}),
      0);
}

// Checkpoints of the RNG-state shed pipeline the engine replaced (the golden
// blobs without a shard section) cannot be replayed by the positional coin:
// resuming from one must fail with the CheckpointError message, not crash
// or silently restart.
TEST_F(CliTest, StreamLegacyCheckpointResumeFailsCleanly) {
  for (const char* name : {"v1_base.skcp", "v1_shed_controller.skcp"}) {
    SCOPED_TRACE(name);
    ::testing::internal::CaptureStderr();
    const int code =
        Run({"stream", "--tuples=20000",
             std::string("--resume=") + SKETCHSAMPLE_GOLDEN_DIR + "/" + name});
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(code, 0);
    EXPECT_NE(err.find("checkpoint has no shard section"), std::string::npos)
        << err;
  }
}

TEST_F(CliTest, StreamRejectsZeroShards) {
  ::testing::internal::CaptureStderr();
  const int code = Run({"stream", "--tuples=1000", "--shards=0"});
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(code, 0);
  EXPECT_NE(err.find("--shards must be >= 1"), std::string::npos) << err;
}

TEST_F(CliTest, StreamFaultRunsAreSeedDeterministic) {
  const std::vector<std::string> base = {
      "stream",        "--domain=300",       "--tuples=20000",
      "--skew=1",      "--buckets=512",      "--fault-profile=harsh",
      "--shed-p=0.5",  "--stall-retries=64"};
  auto with_seed = [&](const std::string& seed) {
    auto args = base;
    args.push_back("--fault-seed=" + seed);
    return args;
  };
  std::string a, b, c;
  ASSERT_EQ(Run(with_seed("123"), &a), 0);
  ASSERT_EQ(Run(with_seed("123"), &b), 0);
  ASSERT_EQ(Run(with_seed("124"), &c), 0);
  EXPECT_EQ(a, b);  // same seed: identical run, byte for byte
  EXPECT_NE(a, c);  // different seed: different fault sequence
  EXPECT_EQ(Field(a, "fault_seed"), "123");
  EXPECT_GT(std::stoull(Field(a, "faults")), 0u);

  EXPECT_NE(Run({"stream", "--tuples=100", "--fault-profile=bogus"}), 0);
}

TEST_F(CliTest, CorruptSketchFileFailsCleanly) {
  {
    std::FILE* f = std::fopen(Path("bad.sk").c_str(), "wb");
    std::fputs("not a sketch", f);
    std::fclose(f);
  }
  EXPECT_NE(Run({"combine", "--agg=selfjoin", "--a=" + Path("bad.sk")}), 0);
}

}  // namespace
}  // namespace cli
}  // namespace sketchsample

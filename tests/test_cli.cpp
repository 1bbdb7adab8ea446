// Tests for the CLI option tables, their parser and subcommand dispatch.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "cli/args.hpp"
#include "cli/commands.hpp"

namespace lens::cli {
namespace {

/// run_command on `lens-cli <tokens...>`.
int run(std::initializer_list<const char*> tokens) {
  std::vector<const char*> argv = {"lens-cli"};
  argv.insert(argv.end(), tokens.begin(), tokens.end());
  return run_command(static_cast<int>(argv.size()), argv.data());
}

/// One option of each kind.
const std::vector<Option> kTable = {
    {"verbose", Kind::kFlag, "", "false", "flag"},
    {"tu", Kind::kNumber, "MBPS", "3", "number"},
    {"iterations", Kind::kCount, "N", "60", "count"},
    {"seed", Kind::kCount, "N", "1", "bounded count", 0, 4294967295.0},
    {"hop-bw", Kind::kList, "MBPS,...", {}, "list"},
    {"brownout", Kind::kList, "start,duration,depth", {}, "three entries", 3, 3},
    {"mode", Kind::kChoice, "lens|traditional", "lens", "choice"},
    {"out", Kind::kOutFile, "FILE", {}, "output file"},
    {"checkpoint", Kind::kPath, "DIR", {}, "path"},
    {"checkpoint-keep", Kind::kCount, "N", "3", "positive count", 1},
};

Options parse(std::vector<std::string> tokens, const std::vector<Rule>& rules = {}) {
  return Options::parse(kTable, rules, tokens);
}

/// The message of the std::invalid_argument that parsing `tokens` throws.
std::string rejection(std::vector<std::string> tokens, const std::vector<Rule>& rules = {}) {
  try {
    parse(std::move(tokens), rules);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "(accepted)";
}

TEST(Options, ReadsEachKind) {
  const Options options = parse({"--iterations", "40", "--tu", "3.5", "--verbose", "--hop-bw",
                                 "5,50", "--mode", "traditional", "--out", "h.csv"});
  EXPECT_EQ(options.count("iterations"), 40u);
  EXPECT_DOUBLE_EQ(options.number("tu"), 3.5);
  EXPECT_TRUE(options.flag("verbose"));
  EXPECT_EQ(options.list("hop-bw"), (std::vector<double>{5.0, 50.0}));
  EXPECT_EQ(options.choice("mode"), 1u);
  EXPECT_EQ(options.text("mode"), "traditional");
  EXPECT_EQ(options.text("out"), "h.csv");
  EXPECT_TRUE(options.has("tu"));
}

TEST(Options, DefaultsAreReadButNotGiven) {
  const Options options = parse({});
  EXPECT_FALSE(options.has("tu"));
  EXPECT_DOUBLE_EQ(options.number("tu"), 3.0);
  EXPECT_EQ(options.count("iterations"), 60u);
  EXPECT_FALSE(options.flag("verbose"));
  EXPECT_EQ(options.text("mode"), "lens");
  EXPECT_FALSE(options.has("out"));
  // An option without a default has no value to read unless given, and a
  // read outside the table or of the wrong kind is the command's bug.
  EXPECT_THROW(options.text("out"), std::logic_error);
  EXPECT_THROW(options.number("nope"), std::logic_error);
  EXPECT_THROW(options.number("iterations"), std::logic_error);
}

TEST(Options, FlagSpellings) {
  EXPECT_TRUE(parse({"--verbose", "yes"}).flag("verbose"));
  EXPECT_TRUE(parse({"--verbose", "1"}).flag("verbose"));
  EXPECT_FALSE(parse({"--verbose", "0"}).flag("verbose"));
  EXPECT_FALSE(parse({"--verbose=false"}).flag("verbose"));
  EXPECT_EQ(rejection({"--verbose", "maybe"}), "--verbose expects true|false, got 'maybe'");
}

TEST(Options, MalformedInputThrows) {
  EXPECT_EQ(rejection({"stray-positional"}), "expected --option, got 'stray-positional'");
  EXPECT_EQ(rejection({"--"}), "expected --option, got '--'");
  EXPECT_EQ(rejection({"--=value"}), "expected --option, got '--=value'");
  EXPECT_EQ(rejection({"--iterashuns", "40"}), "unknown option --iterashuns");
}

TEST(Options, DuplicateOptionThrows) {
  EXPECT_EQ(rejection({"--tu", "3", "--tu", "5"}), "duplicate option --tu");
  EXPECT_EQ(rejection({"--tu=3", "--tu", "5"}), "duplicate option --tu");
  EXPECT_EQ(rejection({"--verbose", "--verbose"}), "duplicate option --verbose");
}

TEST(Options, EqualsSyntax) {
  const Options options = parse({"--tu=3.5", "--out=--dashes.csv"});
  EXPECT_DOUBLE_EQ(options.number("tu"), 3.5);
  // A value that itself starts with "--" survives via --key=value (the
  // two-token form would read it as the next option).
  EXPECT_EQ(options.text("out"), "--dashes.csv");
}

TEST(Options, KindsRejectMalformedValues) {
  EXPECT_EQ(rejection({"--tu", "fast"}), "--tu expects a number, got 'fast'");
  EXPECT_EQ(rejection({"--tu", "1.5x"}), "--tu expects a number, got '1.5x'");
  EXPECT_EQ(rejection({"--tu"}), "--tu expects a number, got no value");
  EXPECT_EQ(rejection({"--hop-bw", "1,,2"}),
            "--hop-bw expects comma-separated numbers, got '1,,2'");
  EXPECT_EQ(rejection({"--brownout", "1,2"}), "--brownout expects start,duration,depth, got '1,2'");
  EXPECT_EQ(rejection({"--mode", "bogus"}), "--mode expects lens|traditional, got 'bogus'");
  EXPECT_EQ(rejection({"--mode", "len"}), "--mode expects lens|traditional, got 'len'");
  // A path given no value fails by name instead of naming a file "true".
  EXPECT_EQ(rejection({"--out"}), "--out expects a path, got no value");
  EXPECT_EQ(rejection({"--out", "--tu", "3"}), "--out expects a path, got no value");
  EXPECT_EQ(rejection({"--out="}), "--out expects a path, got ''");
  // An output file's directory must exist; a checkpoint directory is made.
  EXPECT_EQ(rejection({"--out", "no-such-dir/h.csv"}),
            "--out expects a file in an existing directory, got 'no-such-dir/h.csv'");
  const std::string tmp = ::testing::TempDir();
  EXPECT_EQ(parse({"--out", tmp + "/h.csv"}).text("out"), tmp + "/h.csv");
  EXPECT_NO_THROW(parse({"--checkpoint", "no-such-dir/ck"}));
}

TEST(Options, CountsAreWholeAndBounded) {
  EXPECT_EQ(parse({"--iterations", "1e6"}).count("iterations"), 1000000u);
  EXPECT_EQ(parse({"--iterations", "0"}).count("iterations"), 0u);
  EXPECT_EQ(parse({"--seed", "1e3"}).count("seed"), 1000u);
  EXPECT_EQ(parse({"--seed", "4294967295"}).count("seed"), 4294967295u);
  for (const char* bad : {"2.5", "nan", "-inf", "-1", "abc"}) {
    EXPECT_EQ(rejection({"--iterations", bad}),
              std::string("--iterations must be a whole count >= 0, got '") + bad + "'");
  }
  EXPECT_EQ(rejection({"--checkpoint-keep", "0"}),
            "--checkpoint-keep must be a positive whole count, got '0'");
  EXPECT_EQ(rejection({"--seed", "4294967296"}),
            "--seed must be at most 4294967295, got '4294967296'");
  EXPECT_EQ(rejection({"--iterations", "inf"}),
            "--iterations must be at most 9007199254740992, got 'inf'");
}

TEST(Options, RulesApplyOnlyWhenTheirOptionsAreGiven) {
  const std::vector<Rule> rules = {
      {{"checkpoint-keep"}, [](const Options& o) { return o.has("checkpoint"); },
       "--checkpoint-keep requires --checkpoint"}};
  EXPECT_NO_THROW(parse({}, rules));
  EXPECT_NO_THROW(parse({"--checkpoint", "ck", "--checkpoint-keep", "2"}, rules));
  EXPECT_EQ(rejection({"--checkpoint-keep", "2"}, rules),
            "--checkpoint-keep requires --checkpoint");
  // Every value is checked before any rule.
  EXPECT_EQ(rejection({"--checkpoint-keep", "-1"}, rules),
            "--checkpoint-keep must be a positive whole count, got '-1'");
}

TEST(Commands, HelpAndUnknown) {
  ::testing::internal::CaptureStdout();
  EXPECT_EQ(run({"help"}), 0);
  EXPECT_EQ(run({}), 0);
  const std::string help = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(help.find("--region-brownout region,start,duration,depth"), std::string::npos);
  EXPECT_EQ(run({"frobnicate"}), 2);
  // help takes no options.
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(run({"help", "--bogus", "3"}), 1);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "lens-cli help: unknown option --bogus\n");
}

TEST(Commands, RejectedRunsPrintOneErrorLineWithOnePrefix) {
  const std::vector<std::pair<std::vector<const char*>, std::string>> cases = {
      {{"lens-cli", "search", "stray"}, "expected --option, got 'stray'"},
      {{"lens-cli", "search", "--tu", "fast"}, "--tu expects a number, got 'fast'"},
      {{"lens-cli", "search", "--iterations", "-1"},
       "--iterations must be a whole count >= 0, got '-1'"},
      {{"lens-cli", "search", "--tu", "3", "--tu", "5"}, "duplicate option --tu"},
      {{"lens-cli", "search", "--bogus", "1"}, "unknown option --bogus"},
  };
  for (const auto& [argv, message] : cases) {
    ::testing::internal::CaptureStdout();
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(run_command(static_cast<int>(argv.size()), argv.data()), 1) << message;
    EXPECT_EQ(::testing::internal::GetCapturedStderr(), "lens-cli search: " + message + "\n");
    EXPECT_EQ(::testing::internal::GetCapturedStdout(), "");
  }
}

/// A malformed value of `kind` (empty: give the option no value).
const char* malformed(Kind kind) {
  switch (kind) {
    case Kind::kFlag: return "maybe";
    case Kind::kNumber: return "abc";
    case Kind::kCount: return "2.5";
    case Kind::kList: return "1,,2";
    case Kind::kChoice: return "bogus";
    case Kind::kPath: return "";
    case Kind::kOutFile: return "no-such-dir/out.csv";
  }
  return "";
}

// Every option of every table, given one malformed value of its kind, fails
// by name before any work: exit 1, one error line naming it, no stdout and
// no file written.
TEST(Commands, EveryTableOptionRejectsAMalformedValue) {
  namespace fs = std::filesystem;
  const fs::path home = fs::current_path();
  const fs::path dir = fs::path(::testing::TempDir()) / "lens-cli-sweep";
  fs::remove_all(dir);
  fs::create_directories(dir);
  fs::current_path(dir);
  std::size_t pairs = 0;
  std::set<std::string> names;
  for (const Command& command : commands()) {
    for (const Option& option : command.options) {
      ++pairs;
      names.insert(option.name);
      const std::string flag = "--" + option.name;
      std::vector<const char*> argv = {"lens-cli", command.name.c_str(), flag.c_str()};
      if (*malformed(option.kind) != '\0') argv.push_back(malformed(option.kind));
      ::testing::internal::CaptureStdout();
      ::testing::internal::CaptureStderr();
      const int rc = run_command(static_cast<int>(argv.size()), argv.data());
      const std::string err = ::testing::internal::GetCapturedStderr();
      const std::string out = ::testing::internal::GetCapturedStdout();
      const std::string at = command.name + " " + flag;
      EXPECT_EQ(rc, 1) << at;
      EXPECT_EQ(err.rfind("lens-cli " + command.name + ": " + flag + " ", 0), 0u)
          << at << ": " << err;
      EXPECT_EQ(out, "") << at;
      EXPECT_TRUE(fs::is_empty(dir)) << at << " wrote a file";
    }
  }
  fs::current_path(home);
  fs::remove_all(dir);
  // No option was added, removed or renamed: 7 commands, 49 names.
  EXPECT_EQ(pairs, 117u);
  EXPECT_EQ(names.size(), 49u);
}

TEST(Commands, EvaluateRuns) {
  EXPECT_EQ(run({"evaluate", "--arch", "alexnet", "--tu", "16.1"}), 0);
}

TEST(Commands, ThreadsFlagIsAcceptedEverywhere) {
  EXPECT_EQ(run({"evaluate", "--arch", "alexnet", "--threads", "2"}), 0);
}

TEST(Commands, ThresholdsRuns) {
  EXPECT_EQ(run({"thresholds", "--metric", "energy"}), 0);
}

TEST(Commands, SearchRunsSmallAndWritesCsv) {
  const std::string out = std::string(::testing::TempDir()) + "/cli_history.csv";
  EXPECT_EQ(run({"search", "--iterations", "4", "--initial", "4", "--out", out.c_str()}), 0);
  FILE* f = std::fopen(out.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  std::remove(out.c_str());
}

TEST(Commands, SimulateRuns) {
  EXPECT_EQ(run({"simulate", "--rate", "5", "--duration", "10", "--policy", "all-edge",
                 "--deadline", "100"}),
            0);
}

TEST(Commands, FaultsRuns) {
  EXPECT_EQ(run({"faults", "--rate", "5", "--duration", "15", "--seed", "7", "--timeout", "300",
                 "--retries", "1"}),
            0);
  // No retries is a count, unlike no devices.
  EXPECT_EQ(run({"faults", "--rate", "5", "--duration", "5", "--retries", "0"}), 0);
}

}  // namespace
}  // namespace lens::cli

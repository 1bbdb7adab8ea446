// Tests for the CLI argument parser and subcommand dispatch.

#include <gtest/gtest.h>

#include "cli/args.hpp"
#include "cli/commands.hpp"

namespace lens::cli {
namespace {

Args parse(std::initializer_list<const char*> tokens) {
  std::vector<const char*> argv = {"lens-cli"};
  argv.insert(argv.end(), tokens.begin(), tokens.end());
  return Args::parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Args, CommandAndOptions) {
  const Args args = parse({"search", "--iterations", "40", "--tu", "3.5", "--verbose"});
  EXPECT_EQ(args.command(), "search");
  EXPECT_EQ(args.get_int("iterations", 0), 40);
  EXPECT_DOUBLE_EQ(args.get_double("tu", 0.0), 3.5);
  EXPECT_TRUE(args.get_bool("verbose"));
  EXPECT_FALSE(args.has("missing"));
  EXPECT_EQ(args.get("missing", "fallback"), "fallback");
}

TEST(Args, NoCommandIsEmpty) {
  const Args args = parse({"--flag"});
  EXPECT_EQ(args.command(), "");
  EXPECT_TRUE(args.get_bool("flag"));
}

TEST(Args, TrailingFlagWithoutValue) {
  const Args args = parse({"evaluate", "--summary"});
  EXPECT_TRUE(args.get_bool("summary"));
}

TEST(Args, MalformedInputThrows) {
  EXPECT_THROW(parse({"search", "stray-positional"}), std::invalid_argument);
  EXPECT_THROW(parse({"search", "--"}), std::invalid_argument);
}

TEST(Args, TypedAccessorsValidate) {
  const Args args = parse({"x", "--n", "abc", "--f", "1.5x", "--b", "maybe"});
  EXPECT_THROW(args.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW(args.get_double("f", 0.0), std::invalid_argument);
  EXPECT_THROW(args.get_bool("b"), std::invalid_argument);
}

TEST(Args, BooleanSpellings) {
  const Args args = parse({"x", "--a", "yes", "--b", "0", "--c", "false"});
  EXPECT_TRUE(args.get_bool("a"));
  EXPECT_FALSE(args.get_bool("b"));
  EXPECT_FALSE(args.get_bool("c"));
}

TEST(Args, ExpectKnownCatchesTypos) {
  const Args args = parse({"search", "--iterashuns", "40"});
  EXPECT_THROW(args.expect_known({"iterations", "tu"}), std::invalid_argument);
  EXPECT_NO_THROW(args.expect_known({"iterashuns"}));
}

TEST(Args, DuplicateOptionThrows) {
  EXPECT_THROW(parse({"search", "--tu", "3", "--tu", "5"}), std::invalid_argument);
  EXPECT_THROW(parse({"search", "--tu=3", "--tu", "5"}), std::invalid_argument);
  EXPECT_THROW(parse({"x", "--flag", "--flag"}), std::invalid_argument);
}

TEST(Args, EqualsSyntax) {
  const Args args = parse({"search", "--tu=3.5", "--out=--dashes.csv", "--note="});
  EXPECT_DOUBLE_EQ(args.get_double("tu", 0.0), 3.5);
  // A value that itself starts with "--" survives via --key=value (the old
  // two-token form would have swallowed it as a boolean flag).
  EXPECT_EQ(args.get("out"), "--dashes.csv");
  EXPECT_EQ(args.get("note", "unset"), "");
  EXPECT_THROW(parse({"x", "--=value"}), std::invalid_argument);
}

TEST(Args, ErrorMessagesNameTheCommand) {
  const Args args = parse({"search", "--iterations", "abc", "--tu", "fast"});
  try {
    args.get_int("iterations", 0);
    FAIL() << "expected a throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("search"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("--iterations"), std::string::npos) << e.what();
  }
  try {
    args.get_double("tu", 0.0);
    FAIL() << "expected a throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("search"), std::string::npos) << e.what();
  }
}

TEST(Commands, HelpAndUnknown) {
  EXPECT_EQ(run_command(parse({"help"})), 0);
  EXPECT_EQ(run_command(parse({})), 0);
  EXPECT_EQ(run_command(parse({"frobnicate"})), 2);
}

TEST(Commands, BadOptionValueIsUserError) {
  EXPECT_EQ(run_command(parse({"evaluate", "--arch", "resnet"})), 1);
  EXPECT_EQ(run_command(parse({"evaluate", "--tech", "5g"})), 1);
  EXPECT_EQ(run_command(parse({"search", "--mode", "bogus"})), 1);
  EXPECT_EQ(run_command(parse({"thresholds", "--metric", "joy"})), 1);
  EXPECT_EQ(run_command(parse({"simulate", "--policy", "hope"})), 1);
  // Unknown option name is caught by expect_known.
  EXPECT_EQ(run_command(parse({"evaluate", "--archh", "alexnet"})), 1);
  // Counts are whole and finite: checked before any cast to an integer.
  for (const char* bad : {"2.5", "nan", "inf", "-3", "1e30"}) {
    EXPECT_EQ(run_command(parse({"fleet", "--devices", bad, "--steps", "4"})), 1) << bad;
    EXPECT_EQ(run_command(parse({"fleet", "--devices", "1000", "--steps", bad})), 1) << bad;
    EXPECT_EQ(run_command(parse({"cloud", "--devices", bad, "--steps", "4"})), 1) << bad;
    EXPECT_EQ(run_command(parse({"cloud", "--devices", "1000", "--steps", bad})), 1) << bad;
  }
  // NaN knobs fail instead of writing NaN rows or being dropped.
  EXPECT_EQ(run_command(parse({"fleet", "--devices", "1000", "--steps", "4", "--step-s",
                               "nan"})),
            1);
  EXPECT_EQ(run_command(parse({"fleet", "--devices", "1000", "--steps", "4", "--qps",
                               "nan"})),
            1);
  EXPECT_EQ(run_command(parse({"fleet", "--arch", "vgg16", "--cloud-machines", "4",
                               "--brownout", "600,1200,nan"})),
            1);
  for (const char* episode : {"1,300,800,nan", "1.7,300,800,0.5", "nan,300,800,0.5"}) {
    EXPECT_EQ(run_command(parse({"fleet", "--arch", "vgg16", "--tiers", "3", "--hop-bw",
                                 "4,40", "--devices", "1000", "--steps", "4", "--regions",
                                 "4", "--region-brownout", episode})),
              1)
        << episode;
  }
  // NaN and infinite serving knobs fail by name: no "nan req/s" report, no
  // run that silently drops its deadline, no arrival loop without end.
  EXPECT_EQ(run_command(parse({"simulate", "--rate", "nan", "--duration", "5"})), 1);
  EXPECT_EQ(run_command(parse({"simulate", "--deadline", "nan"})), 1);
  for (const char* knob : {"--rate", "--timeout", "--jitter"}) {
    EXPECT_EQ(run_command(parse({"faults", "--duration", "5", knob, "nan"})), 1) << knob;
  }
  EXPECT_EQ(run_command(parse({"faults", "--duration", "inf", "--rate", "1"})), 1);
  EXPECT_EQ(run_command(parse({"faults", "--duration", "5", "--retries", "-1"})), 1);
  // Negative search budgets fail instead of wrapping to a huge size_t.
  EXPECT_EQ(run_command(parse({"search", "--iterations", "-1", "--initial", "4"})), 1);
  EXPECT_EQ(run_command(parse({"search", "--initial", "-1", "--iterations", "4"})), 1);
  for (const char* knob : {"--checkpoint-period", "--checkpoint-keep"}) {
    EXPECT_EQ(run_command(parse({"search", "--checkpoint", "ck", knob, "-1", "--iterations",
                                 "4", "--initial", "4"})),
              1)
        << knob;
  }
  // NaN throughput or RTT fails instead of pricing NaN rows.
  EXPECT_EQ(run_command(parse({"fleet", "--devices", "1000", "--steps", "4", "--tu", "nan"})),
            1);
  EXPECT_EQ(run_command(parse({"fleet", "--devices", "1000", "--steps", "4", "--rtt", "nan"})),
            1);
  EXPECT_EQ(run_command(parse({"evaluate", "--tu", "nan"})), 1);
  // Infinite throughput or RTT fails by name instead of pricing NaN energy.
  EXPECT_EQ(run_command(parse({"evaluate", "--tu", "inf"})), 1);
  EXPECT_EQ(run_command(parse({"simulate", "--duration", "5", "--tu", "inf"})), 1);
  EXPECT_EQ(run_command(parse({"fleet", "--devices", "1000", "--steps", "4", "--tu", "inf"})),
            1);
  EXPECT_EQ(run_command(parse({"simulate", "--duration", "5", "--rtt", "inf"})), 1);
  EXPECT_EQ(run_command(parse({"evaluate", "--tiers", "3", "--hop-bw", "5,inf"})), 1);
}

TEST(Commands, EvaluateRuns) {
  EXPECT_EQ(run_command(parse({"evaluate", "--arch", "alexnet", "--tu", "16.1"})), 0);
}

TEST(Commands, ThreadsFlagIsAcceptedEverywhereAndValidated) {
  EXPECT_EQ(run_command(parse({"evaluate", "--arch", "alexnet", "--threads", "2"})), 0);
  EXPECT_EQ(run_command(parse({"evaluate", "--threads", "0"})), 1);
  EXPECT_EQ(run_command(parse({"evaluate", "--threads", "nope"})), 1);
}

TEST(Commands, ThresholdsRuns) {
  EXPECT_EQ(run_command(parse({"thresholds", "--metric", "energy"})), 0);
}

TEST(Commands, SearchRunsSmallAndWritesCsv) {
  const std::string out = std::string(::testing::TempDir()) + "/cli_history.csv";
  EXPECT_EQ(run_command(parse({"search", "--iterations", "4", "--initial", "4", "--out",
                               out.c_str()})),
            0);
  FILE* f = std::fopen(out.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  std::remove(out.c_str());
}

TEST(Commands, SimulateRuns) {
  EXPECT_EQ(run_command(parse({"simulate", "--rate", "5", "--duration", "10", "--policy",
                               "all-edge", "--deadline", "100"})),
            0);
}

TEST(Commands, FaultsRunsAndRejectsUnknownOptions) {
  EXPECT_EQ(run_command(parse({"faults", "--rate", "5", "--duration", "15", "--seed", "7",
                               "--timeout", "300", "--retries", "1"})),
            0);
  EXPECT_EQ(run_command(parse({"faults", "--policy", "dynamic"})), 1);  // not a knob here
  // No retries is a count, unlike no devices.
  EXPECT_EQ(run_command(parse({"faults", "--rate", "5", "--duration", "5", "--retries", "0"})),
            0);
}

}  // namespace
}  // namespace lens::cli

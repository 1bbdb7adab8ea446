// Golden-run corpus (tests/golden/cli.txt): each line runs one lens-cli
// command in-process through cli::run_command and pins the io::fnv1a of its
// stdout and of every file it writes. A refactor that claims "no output
// moves" must pass this unchanged; a change that moves an output on purpose
// re-records the pins with tools/regen_golden.py and explains each line.
//
// Line format: `argv | stdout=<hex16> | {tmp}/<file>=<hex16> ...`. Each run
// gets a fresh, empty scratch directory that replaces `{tmp}` in its argv;
// stdout is hashed with that directory spelled back as `{tmp}`, so the pins
// do not depend on where the test runs. Every file the run leaves in its
// directory must be pinned, and every pinned file must be written.
//
// A must-fail line, `argv | exit=1 | error=<stderr substring>`, pins a
// rejected input instead: the run must exit with that code, print one
// stderr line `lens-cli <command>: <message>` that contains the substring,
// print nothing on stdout, and write no file: inputs are checked before the
// first line of output, so a rejected run leaves no partial report behind.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cli/commands.hpp"
#include "io/io.hpp"

namespace lens {
namespace {

namespace fs = std::filesystem;

constexpr const char* kTmp = "{tmp}";

struct GoldenRun {
  std::size_t line = 0;
  std::vector<std::string> argv;  ///< subcommand first
  std::string stdout_hash;
  std::vector<std::pair<std::string, std::string>> files;  ///< {tmp}/name -> hash
  int exit_code = 0;  ///< must-fail lines: the expected nonzero exit
  std::string error;  ///< must-fail lines: a substring of stderr
};

std::string hex16(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx", static_cast<unsigned long long>(value));
  return buffer;
}

std::string trim(const std::string& s) {
  const std::size_t begin = s.find_first_not_of(' ');
  if (begin == std::string::npos) return "";
  return s.substr(begin, s.find_last_not_of(' ') - begin + 1);
}

std::string replace_all(std::string s, const std::string& from, const std::string& to) {
  for (std::size_t at = s.find(from); at != std::string::npos;
       at = s.find(from, at + to.size())) {
    s.replace(at, from.size(), to);
  }
  return s;
}

std::vector<GoldenRun> load_corpus(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open golden corpus " + path);
  std::vector<GoldenRun> runs;
  std::string text;
  for (std::size_t line = 1; std::getline(in, text); ++line) {
    if (trim(text).empty() || trim(text)[0] == '#') continue;
    GoldenRun run;
    run.line = line;
    std::vector<std::string> fields;
    for (std::size_t begin = 0;;) {
      const std::size_t bar = text.find('|', begin);
      fields.push_back(trim(text.substr(begin, bar - begin)));
      if (bar == std::string::npos) break;
      begin = bar + 1;
    }
    std::istringstream words(fields[0]);
    run.argv.assign(std::istream_iterator<std::string>(words), {});
    for (std::size_t f = 1; f < fields.size(); ++f) {
      const std::size_t eq = fields[f].find('=');
      if (eq == std::string::npos) {
        throw std::runtime_error("golden corpus line " + std::to_string(line) +
                                 ": expected name=<value>, got '" + fields[f] + "'");
      }
      std::string name = fields[f].substr(0, eq);
      std::string value = fields[f].substr(eq + 1);
      if (name == "stdout") {
        run.stdout_hash = std::move(value);
      } else if (name == "exit") {
        run.exit_code = std::stoi(value);
      } else if (name == "error") {
        run.error = std::move(value);
      } else {
        run.files.emplace_back(std::move(name), std::move(value));
      }
    }
    const bool pinned = !run.stdout_hash.empty() && run.exit_code == 0 && run.error.empty();
    const bool must_fail = run.stdout_hash.empty() && run.files.empty() &&
                           run.exit_code != 0 && !run.error.empty();
    if (run.argv.empty() || !(pinned || must_fail)) {
      throw std::runtime_error("golden corpus line " + std::to_string(line) +
                               ": needs an argv and either a stdout hash or an "
                               "exit code and an error");
    }
    runs.push_back(std::move(run));
  }
  return runs;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST(Golden, CliRunsMatchTheirPins) {
  const std::vector<GoldenRun> runs = load_corpus(LENS_GOLDEN_CORPUS);
  const auto must_fail =
      std::count_if(runs.begin(), runs.end(), [](const GoldenRun& r) { return r.exit_code != 0; });
  ASSERT_GE(runs.size() - static_cast<std::size_t>(must_fail), 42u) << "the corpus lost runs";
  ASSERT_GE(must_fail, 76) << "the corpus lost must-fail runs";

  std::string root_template = ::testing::TempDir() + "lens-golden-XXXXXX";
  ASSERT_NE(mkdtemp(root_template.data()), nullptr);
  const fs::path root(root_template);

  for (const GoldenRun& run : runs) {
    const fs::path dir = root / std::to_string(run.line);
    fs::create_directory(dir);
    std::vector<std::string> tokens{"lens-cli"};
    for (const std::string& word : run.argv) {
      tokens.push_back(replace_all(word, kTmp, dir.string()));
    }
    std::vector<const char*> argv;
    for (const std::string& token : tokens) argv.push_back(token.c_str());

    ::testing::internal::CaptureStdout();
    ::testing::internal::CaptureStderr();
    const int rc = cli::run_command(static_cast<int>(argv.size()), argv.data());
    const std::string out =
        replace_all(::testing::internal::GetCapturedStdout(), dir.string(), kTmp);
    const std::string err = ::testing::internal::GetCapturedStderr();
    std::size_t written = 0;
    for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
      if (entry.is_regular_file()) ++written;
    }
    if (run.exit_code != 0) {
      EXPECT_EQ(rc, run.exit_code) << "golden corpus line " << run.line;
      EXPECT_NE(err.find(run.error), std::string::npos)
          << "golden corpus line " << run.line << " stderr:\n" << err;
      const std::string prefix = "lens-cli " + run.argv[0] + ": ";
      EXPECT_TRUE(err.rfind(prefix, 0) == 0 && err.find('\n') == err.size() - 1)
          << "golden corpus line " << run.line << " must print one line '" << prefix
          << "<message>', got:\n" << err;
      EXPECT_EQ(written, 0u) << "golden corpus line " << run.line << " wrote a file";
      EXPECT_EQ(out, "") << "golden corpus line " << run.line << " printed before failing";
      continue;
    }

    // Compare the whole measured line with the pinned one, so a failure
    // prints exactly the text a re-recording would write.
    std::string pinned = "stdout=" + run.stdout_hash;
    std::string measured = "stdout=" + hex16(io::fnv1a(out));
    for (const auto& [name, hash] : run.files) {
      const fs::path file = replace_all(name, kTmp, dir.string());
      pinned += " | " + name + "=" + hash;
      measured += " | " + name + "=" +
                  (fs::exists(file) ? hex16(io::fnv1a(read_file(file))) : "missing");
    }
    EXPECT_EQ(rc, 0) << "golden corpus line " << run.line;
    EXPECT_EQ(written, run.files.size())
        << "golden corpus line " << run.line << " wrote files its line does not pin";
    EXPECT_EQ(measured, pinned) << "golden corpus line " << run.line << " stdout:\n" << out;
  }
  fs::remove_all(root);
}

}  // namespace
}  // namespace lens

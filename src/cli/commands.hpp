#pragma once
// Subcommand implementations behind the lens-cli tool, with their option
// tables. Kept in a library so they are unit-testable; the tools/ main is a
// thin dispatcher.

#include "cli/args.hpp"

namespace lens::cli {

/// A subcommand: every option it accepts, the dependency rules between
/// them, and the function that runs it on the checked values.
struct Command {
  std::string name;
  std::string summary;
  std::vector<Option> options;
  std::vector<Rule> rules;
  int (*run)(const Options&);
};

/// Every subcommand, in help order (help last).
const std::vector<Command>& commands();

/// Run a command line (argv[0] is the program; no subcommand means help).
/// Prints results to stdout and returns the exit code: 0 ok, 1 a rejected
/// input, reported as one stderr line `lens-cli <command>: <message>`,
/// 2 an unknown command, 130 an interrupted search.
int run_command(int argc, const char* const* argv);

}  // namespace lens::cli

#pragma once
// Subcommand implementations behind the lens-cli tool. Kept in a library so
// they are unit-testable; the tools/ main is a thin dispatcher.

#include "cli/args.hpp"

namespace lens::cli {

/// Dispatch a parsed command line to its subcommand (evaluate, search,
/// thresholds, simulate, faults, fleet, cloud, help). Returns a process exit
/// code; prints human-readable results to stdout and errors to stderr.
int run_command(const Args& args);

}  // namespace lens::cli

// lens-cli: command-line front end to the LENS library.
// See `lens-cli help` for usage.

#include "cli/commands.hpp"

int main(int argc, char** argv) { return lens::cli::run_command(argc, argv); }

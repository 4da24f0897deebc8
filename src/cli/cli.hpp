#pragma once

#include <optional>
#include <ostream>
#include <string>
#include <vector>

namespace prpart::cli {

/// Entry point of the `prpart` command-line tool, separated from main() so
/// the tests can drive it with captured streams. `prpart help` prints the
/// commands and their flags.
///
/// Returns a process exit code (0 success, 1 user error, 2 infeasible;
/// `analyze` exits 4 when any error-severity diagnostic fires).
int run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err);

/// The flags (without "--") `prpart <command>` accepts: the declared request
/// fields it takes (server/protocol.hpp) and its CLI-only ones. nullopt for
/// an unknown command.
std::optional<std::vector<std::string>> command_flags(
    const std::string& command);

}  // namespace prpart::cli

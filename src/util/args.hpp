#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace prpart {

/// Minimal command-line parser for the prpart tool: positionals plus
/// `--key value` options and `--switch` flags. Unknown options throw
/// ParseError so typos fail loudly. A trailing `--key` with no value is
/// reported only once the caller knows it is a real option: by
/// check_known() (after unknown options) or when its value is read.
class Args {
 public:
  /// `flags` lists options that take no value; everything else starting
  /// with "--" expects one.
  Args(const std::vector<std::string>& argv,
       const std::vector<std::string>& flags);

  const std::vector<std::string>& positionals() const { return positionals_; }

  /// Whether `--key` was given (with or without a value).
  bool has(const std::string& key) const;
  /// Value of `--key`; nullopt when absent. Throws ParseError when the
  /// option was given without a value.
  std::optional<std::string> value(const std::string& key) const;
  /// Value of `--key` or `fallback`.
  std::string value_or(const std::string& key,
                       const std::string& fallback) const;
  /// Numeric value of `--key` or `fallback`.
  std::uint64_t u64_or(const std::string& key, std::uint64_t fallback) const;

  /// Throws ParseError unless every given option appears in `known`
  /// ("unknown option"), then unless every known one has its value ("expects
  /// a value"); guards against silently ignored options.
  void check_known(const std::vector<std::string>& known) const;

 private:
  std::vector<std::string> positionals_;
  // key -> value; nullopt for a trailing option given without one.
  std::vector<std::pair<std::string, std::optional<std::string>>> options_;
  std::vector<std::string> switches_;
};

}  // namespace prpart

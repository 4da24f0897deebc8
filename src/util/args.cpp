#include "util/args.hpp"

#include <algorithm>

#include "util/status.hpp"
#include "util/strings.hpp"

namespace prpart {

Args::Args(const std::vector<std::string>& argv,
           const std::vector<std::string>& flags) {
  for (std::size_t i = 0; i < argv.size(); ++i) {
    const std::string& a = argv[i];
    if (!starts_with(a, "--")) {
      positionals_.push_back(a);
      continue;
    }
    const std::string key = a.substr(2);
    if (key.empty()) throw ParseError("stray '--' on the command line");
    if (std::find(flags.begin(), flags.end(), key) != flags.end()) {
      switches_.push_back(key);
      continue;
    }
    // A trailing option has no value. It is not an error yet: the caller
    // may reject it as unknown first, or never ask for its value.
    if (i + 1 >= argv.size())
      options_.emplace_back(key, std::nullopt);
    else
      options_.emplace_back(key, argv[++i]);
  }
}

bool Args::has(const std::string& key) const {
  if (std::find(switches_.begin(), switches_.end(), key) != switches_.end())
    return true;
  for (const auto& [k, v] : options_)
    if (k == key) return true;
  return false;
}

std::optional<std::string> Args::value(const std::string& key) const {
  for (const auto& [k, v] : options_) {
    if (k != key) continue;
    if (!v) throw ParseError("option --" + key + " expects a value");
    return v;
  }
  return std::nullopt;
}

std::string Args::value_or(const std::string& key,
                           const std::string& fallback) const {
  return value(key).value_or(fallback);
}

std::uint64_t Args::u64_or(const std::string& key,
                           std::uint64_t fallback) const {
  const auto v = value(key);
  return v ? parse_u64(*v) : fallback;
}

void Args::check_known(const std::vector<std::string>& known) const {
  auto is_known = [&](const std::string& key) {
    return std::find(known.begin(), known.end(), key) != known.end();
  };
  for (const auto& [k, v] : options_)
    if (!is_known(k)) throw ParseError("unknown option --" + k);
  for (const std::string& s : switches_)
    if (!is_known(s)) throw ParseError("unknown option --" + s);
  for (const auto& [k, v] : options_)
    if (!v) throw ParseError("option --" + k + " expects a value");
}

}  // namespace prpart

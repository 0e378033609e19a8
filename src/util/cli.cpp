#include "util/cli.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "util/parse.hpp"

namespace bcl {

namespace {

std::size_t parse_count(const std::string& name, const std::string& text) {
  if (!text.empty() && text[0] == '-') {
    throw std::invalid_argument("--" + name + " must be >= 0, got " + text);
  }
  return static_cast<std::size_t>(parse_strict_u64(text, "--" + name));
}

}  // namespace

CliArgs::CliArgs(int argc, const char* const* argv,
                 const std::vector<std::string>& allowed) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("CliArgs: expected --flag, got '" + arg + "'");
    }
    arg = arg.substr(2);
    std::string name;
    std::string value;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else {
      name = arg;
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      } else {
        value = "true";  // bare flag means boolean true
      }
    }
    if (std::find(allowed.begin(), allowed.end(), name) == allowed.end()) {
      throw std::invalid_argument("CliArgs: unknown flag --" + name);
    }
    values_[name] = value;
  }
}

bool CliArgs::has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string CliArgs::get_string(const std::string& name,
                                const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

long long CliArgs::get_int(const std::string& name, long long fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : std::stoll(it->second);
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : std::stod(it->second);
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::size_t CliArgs::get_count(const std::string& name,
                               std::size_t fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : parse_count(name, it->second);
}

std::vector<std::size_t> CliArgs::get_counts(
    const std::string& name, const std::string& fallback) const {
  std::vector<std::size_t> out;
  std::stringstream stream(get_string(name, fallback));
  std::string token;
  while (std::getline(stream, token, ',')) {
    if (!token.empty()) out.push_back(parse_count(name, token));
  }
  return out;
}

}  // namespace bcl

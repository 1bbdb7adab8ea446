#include "cli/args.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>

namespace lens::cli {

namespace {

/// All of `text` as a double, or nothing on empty text, trailing junk or a
/// value out of range.
std::optional<double> to_number(const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size() || errno == ERANGE) return std::nullopt;
  return value;
}

/// The `separator`-separated pieces of `text` ("" is one empty piece).
std::vector<std::string> split(const std::string& text, char separator) {
  std::vector<std::string> pieces;
  for (std::size_t start = 0;;) {
    const std::size_t end = text.find(separator, start);
    pieces.push_back(text.substr(start, end - start));
    if (end == std::string::npos) return pieces;
    start = end + 1;
  }
}

}  // namespace

Options::Value Options::read(const Option& option, const std::optional<std::string>& text,
                             bool given) {
  const std::string name = "--" + option.name;
  const std::string got = text ? ", got '" + *text + "'" : ", got no value";
  Value value{option.kind, given, text.value_or("")};
  const std::optional<double> number = to_number(value.text);
  switch (option.kind) {
    case Kind::kFlag:
      if (!text || *text == "true" || *text == "1" || *text == "yes") {
        value.number = 1.0;
      } else if (*text != "false" && *text != "0" && *text != "no") {
        throw std::invalid_argument(name + " expects true|false" + got);
      }
      break;
    case Kind::kNumber:
      if (!number) throw std::invalid_argument(name + " expects a number" + got);
      value.number = *number;
      break;
    case Kind::kCount:
      // Checked before any cast: converting NaN or an out-of-range double
      // to an integer is undefined.
      if (!number || !(*number >= option.lo) || *number != std::floor(*number)) {
        throw std::invalid_argument(name + (option.lo > 0.0 ? " must be a positive whole count"
                                                            : " must be a whole count >= 0") +
                                    got);
      }
      if (*number > option.hi) {
        throw std::invalid_argument(name + " must be at most " +
                                    std::to_string(static_cast<std::uint64_t>(option.hi)) + got);
      }
      value.number = *number;
      break;
    case Kind::kList:
      for (const std::string& piece : split(value.text, ',')) {
        const std::optional<double> entry = to_number(piece);
        if (!entry) throw std::invalid_argument(name + " expects comma-separated numbers" + got);
        value.list.push_back(*entry);
      }
      if (value.list.size() < option.lo || value.list.size() > option.hi) {
        throw std::invalid_argument(name + " expects " + option.value + got);
      }
      break;
    case Kind::kChoice: {
      const std::vector<std::string> alternatives = split(option.value, '|');
      const auto it = std::find(alternatives.begin(), alternatives.end(), value.text);
      if (it == alternatives.end()) {
        throw std::invalid_argument(name + " expects " + option.value + got);
      }
      value.number = static_cast<double>(it - alternatives.begin());
      break;
    }
    case Kind::kPath:
    case Kind::kOutFile: {
      if (value.text.empty()) throw std::invalid_argument(name + " expects a path" + got);
      // An output file is written after the run: a missing directory fails
      // now, before any work.
      const std::filesystem::path dir = std::filesystem::path(value.text).parent_path();
      std::error_code error;
      if (option.kind == Kind::kOutFile && !dir.empty() &&
          !std::filesystem::is_directory(dir, error)) {
        throw std::invalid_argument(name + " expects a file in an existing directory" + got);
      }
      break;
    }
  }
  return value;
}

Options Options::parse(const std::vector<Option>& table, const std::vector<Rule>& rules,
                       const std::vector<std::string>& tokens) {
  Options options;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    const std::size_t eq = token.find('=');
    if (token.rfind("--", 0) != 0 || token.size() == 2 || eq == 2) {
      throw std::invalid_argument("expected --option, got '" + token + "'");
    }
    const std::string name = token.substr(2, eq == std::string::npos ? eq : eq - 2);
    const auto option = std::find_if(table.begin(), table.end(),
                                     [&](const Option& o) { return o.name == name; });
    if (option == table.end()) throw std::invalid_argument("unknown option --" + name);
    if (options.values_.count(name) > 0) throw std::invalid_argument("duplicate option --" + name);
    std::optional<std::string> text;
    if (eq != std::string::npos) {
      text = token.substr(eq + 1);
    } else if (i + 1 < tokens.size() && tokens[i + 1].rfind("--", 0) != 0) {
      text = tokens[++i];
    }
    options.values_.emplace(name, read(*option, text, true));
  }
  for (const Option& option : table) {  // emplace keeps a given value
    if (option.fallback) options.values_.emplace(option.name, read(option, option.fallback, false));
  }
  for (const Rule& rule : rules) {
    const bool applies = std::any_of(rule.when.begin(), rule.when.end(),
                                     [&](const std::string& name) { return options.has(name); });
    if (applies && !rule.holds(options)) throw std::invalid_argument(rule.message);
  }
  return options;
}

const Options::Value& Options::at(const std::string& name,
                                  std::initializer_list<Kind> kinds) const {
  const auto it = values_.find(name);
  if (it == values_.end() ||
      std::find(kinds.begin(), kinds.end(), it->second.kind) == kinds.end()) {
    throw std::logic_error("--" + name + " read without a value or as the wrong kind");
  }
  return it->second;
}

}  // namespace lens::cli

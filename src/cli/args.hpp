#pragma once
// Declarative options for lens-cli: each subcommand declares every option
// once in a table, and `Options::parse` checks a command line against it
// before any work. Domain bounds that a config validator owns stay there
// (DESIGN.md §14). Syntax: --key value, --key=value (for a value starting
// with "--"), or a bare --flag; each option at most once.

#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace lens::cli {

/// What an option's value must look like.
enum class Kind {
  kFlag,    ///< bare, or true|false|1|0|yes|no
  kNumber,  ///< any double, nan and inf included (configs bound them)
  kCount,   ///< a whole number in [lo, hi], given as a number ("1e6" reads)
  kList,    ///< comma-separated numbers, between lo and hi of them
  kChoice,  ///< one of the '|'-separated alternatives in `value`
  kPath,    ///< a nonempty file or directory name
  kOutFile, ///< a kPath to write, whose directory exists before the run
};

/// One option of one subcommand.
struct Option {
  std::string name;   ///< without the leading "--"
  Kind kind;
  /// The value's placeholder in help; a kChoice's alternatives; a kList's
  /// entries, named in the message when it has too few or too many.
  std::string value;
  std::optional<std::string> fallback;  ///< the default, read as if given; none: only when given
  std::string help;
  /// Bounds of a kCount's value (lo is 0 or 1) or of a kList's entry count.
  /// 2^53: every whole number up to it is exact.
  double lo = 0.0;
  double hi = 9007199254740992.0;
};

class Options;

/// A dependency between options: when any option in `when` is given,
/// `holds` must be true, else the command line fails with `message`.
struct Rule {
  std::vector<std::string> when;
  bool (*holds)(const Options&);
  std::string message;
};

/// The checked, typed values of one command line.
class Options {
 public:
  /// Reads `tokens` (the words after the subcommand) against `table`, then
  /// checks `rules`. Throws std::invalid_argument naming the first unknown,
  /// repeated or malformed option, or the first broken rule.
  static Options parse(const std::vector<Option>& table, const std::vector<Rule>& rules,
                       const std::vector<std::string>& tokens);

  /// Given on the command line, not defaulted.
  bool has(const std::string& name) const {
    const auto it = values_.find(name);
    return it != values_.end() && it->second.given;
  }

  /// Typed reads of an option that was given or has a default. Reading any
  /// other name, or with the wrong kind, is a bug: std::logic_error.
  bool flag(const std::string& name) const { return at(name, {Kind::kFlag}).number != 0.0; }
  double number(const std::string& name) const { return at(name, {Kind::kNumber}).number; }
  std::size_t count(const std::string& name) const {
    return static_cast<std::size_t>(at(name, {Kind::kCount}).number);
  }
  const std::vector<double>& list(const std::string& name) const {
    return at(name, {Kind::kList}).list;
  }
  /// A kChoice's index among its alternatives.
  std::size_t choice(const std::string& name) const {
    return static_cast<std::size_t>(at(name, {Kind::kChoice}).number);
  }
  /// A kPath or kOutFile, or a kChoice's spelling.
  const std::string& text(const std::string& name) const {
    return at(name, {Kind::kPath, Kind::kOutFile, Kind::kChoice}).text;
  }

 private:
  /// One option's value: its spelling and, by kind, its number or list.
  struct Value {
    Kind kind;
    bool given = false;  ///< on the command line, not defaulted
    std::string text;
    double number = 0.0;  ///< a flag's 0 or 1, a count, a choice's index
    std::vector<double> list{};
  };
  /// `option` given as `text` (none: the option had no value).
  static Value read(const Option& option, const std::optional<std::string>& text, bool given);
  const Value& at(const std::string& name, std::initializer_list<Kind> kinds) const;

  std::map<std::string, Value> values_;
};

}  // namespace lens::cli

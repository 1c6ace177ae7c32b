#pragma once
///
/// \file cli.hpp
/// \brief Minimal command-line parser for examples and bench drivers.
///
/// Supports --key value, --key=value, and boolean --flag forms. Unknown
/// arguments are an error (fail fast beats silently ignored typos in an
/// experiment sweep). Every option self-documents for --help.

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace tram::util {

class Cli {
 public:
  /// \param program one-line description printed by --help.
  explicit Cli(std::string program) : program_(std::move(program)) {}

  /// Register options before parse(). Returned reference is stable.
  void add_flag(std::string name, bool* out, std::string help);
  void add_int(std::string name, std::int64_t* out, std::string help);
  void add_double(std::string name, double* out, std::string help);
  void add_string(std::string name, std::string* out, std::string help);
  /// Mesh extents: "AxB" or "AxBxC" (case-insensitive 'x', each extent
  /// >= 1). Unused trailing entries stay 0 — the all-zero default means
  /// "auto-factor" (see core::TramConfig::route_dims / --route-dims).
  void add_dims(std::string name, std::array<int, 3>* out, std::string help);

  /// Parse argv. --help / -h prints the options to stdout and exits the
  /// process with status 0. Returns false after printing an error for a
  /// bad argument (callers exit with status 2); true when parsing
  /// succeeded.
  bool parse(int argc, char** argv);

  std::string help() const;

 private:
  enum class Kind { Flag, Int, Double, Str, Dims };
  struct Option {
    std::string name;  // without leading dashes
    Kind kind;
    void* out;
    std::string help;
    std::string default_repr;
  };

  const Option* find(std::string_view name) const;
  bool apply(const Option& opt, std::string_view value);

  std::string program_;
  std::vector<Option> options_;
};

}  // namespace tram::util

#include "util/cli.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace tram::util {

void Cli::add_flag(std::string name, bool* out, std::string help) {
  options_.push_back({std::move(name), Kind::Flag, out, std::move(help),
                      *out ? "true" : "false"});
}

void Cli::add_int(std::string name, std::int64_t* out, std::string help) {
  options_.push_back({std::move(name), Kind::Int, out, std::move(help),
                      std::to_string(*out)});
}

void Cli::add_double(std::string name, double* out, std::string help) {
  options_.push_back({std::move(name), Kind::Double, out, std::move(help),
                      std::to_string(*out)});
}

void Cli::add_string(std::string name, std::string* out, std::string help) {
  options_.push_back(
      {std::move(name), Kind::Str, out, std::move(help), *out});
}

namespace {

/// "AxB[xC]" for help/default display; all-zero renders as "auto".
std::string dims_repr(const std::array<int, 3>& dims) {
  if (dims[0] == 0) return "auto";
  std::string s = std::to_string(dims[0]);
  for (int k = 1; k < 3 && dims[static_cast<std::size_t>(k)] != 0; ++k) {
    s += 'x';
    s += std::to_string(dims[static_cast<std::size_t>(k)]);
  }
  return s;
}

bool parse_dims(std::string_view value, std::array<int, 3>& out) {
  std::array<int, 3> dims{0, 0, 0};
  int n = 0;
  const char* p = value.data();
  const char* end = value.data() + value.size();
  while (p < end) {
    if (n == 3) return false;
    int extent = 0;
    auto [next, ec] = std::from_chars(p, end, extent);
    if (ec != std::errc() || next == p || extent < 1) return false;
    dims[static_cast<std::size_t>(n++)] = extent;
    p = next;
    if (p == end) break;
    if (*p != 'x' && *p != 'X') return false;
    ++p;
    if (p == end) return false;  // trailing 'x'
  }
  if (n < 2) return false;  // a mesh needs at least two extents
  out = dims;
  return true;
}

}  // namespace

void Cli::add_dims(std::string name, std::array<int, 3>* out,
                   std::string help) {
  options_.push_back(
      {std::move(name), Kind::Dims, out, std::move(help), dims_repr(*out)});
}

const Cli::Option* Cli::find(std::string_view name) const {
  for (const auto& opt : options_) {
    if (opt.name == name) return &opt;
  }
  return nullptr;
}

bool Cli::apply(const Option& opt, std::string_view value) {
  switch (opt.kind) {
    case Kind::Flag: {
      auto* out = static_cast<bool*>(opt.out);
      if (value.empty() || value == "true" || value == "1") {
        *out = true;
      } else if (value == "false" || value == "0") {
        *out = false;
      } else {
        return false;
      }
      return true;
    }
    case Kind::Int: {
      auto* out = static_cast<std::int64_t*>(opt.out);
      auto [ptr, ec] =
          std::from_chars(value.data(), value.data() + value.size(), *out);
      return ec == std::errc() && ptr == value.data() + value.size();
    }
    case Kind::Double: {
      auto* out = static_cast<double*>(opt.out);
      try {
        std::size_t pos = 0;
        *out = std::stod(std::string(value), &pos);
        return pos == value.size();
      } catch (...) {
        return false;
      }
    }
    case Kind::Str: {
      *static_cast<std::string*>(opt.out) = std::string(value);
      return true;
    }
    case Kind::Dims: {
      return parse_dims(value, *static_cast<std::array<int, 3>*>(opt.out));
    }
  }
  return false;
}

bool Cli::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(help().c_str(), stdout);
      std::exit(0);
    }
    if (arg.size() < 3 || arg.substr(0, 2) != "--") {
      std::fprintf(stderr, "unknown argument '%s' (see --help)\n",
                   argv[i]);
      return false;
    }
    arg.remove_prefix(2);
    std::string_view name = arg;
    std::string_view value;
    bool has_inline = false;
    if (auto eq = arg.find('='); eq != std::string_view::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
      has_inline = true;
    }
    const Option* opt = find(name);
    if (opt == nullptr) {
      std::fprintf(stderr, "unknown option '--%.*s' (see --help)\n",
                   static_cast<int>(name.size()), name.data());
      return false;
    }
    if (!has_inline && opt->kind != Kind::Flag) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "option '--%s' needs a value\n",
                     opt->name.c_str());
        return false;
      }
      value = argv[++i];
    }
    if (!apply(*opt, value)) {
      std::fprintf(stderr, "bad value '%.*s' for option '--%s'\n",
                   static_cast<int>(value.size()), value.data(),
                   opt->name.c_str());
      return false;
    }
  }
  return true;
}

std::string Cli::help() const {
  std::ostringstream os;
  os << program_ << "\n\noptions:\n";
  for (const auto& opt : options_) {
    os << "  --" << opt.name;
    if (opt.kind != Kind::Flag) os << " <value>";
    os << "\n      " << opt.help << " (default: " << opt.default_repr
       << ")\n";
  }
  return os.str();
}

}  // namespace tram::util

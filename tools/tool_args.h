// Tiny shared argument parser for the tools/ CLIs, so every binary gets
// the same conventions: `--help`/`-h` prints a uniform usage + flag table
// to stdout and exits 0; an unknown flag, malformed value, or missing
// positional prints usage to stderr and exits 2; values are accepted both
// as `--flag VALUE` and `--flag=VALUE`.
//
// Header-only on purpose — tools link only bgpolicy, and this stays a
// build-time convenience, not a library API.  Numeric flags parse like
// `.scn` numbers (core::parse_number), so a flag rejects what a spec
// file rejects.
//
//   tools::ToolArgs args("store_gc", "LRU garbage collection for a store");
//   args.positional("STORE_DIR", "artifact store directory", 1, 1);
//   args.option_u64("--max-bytes", &max_bytes, "N", "target store size");
//   args.flag("--verbose", &verbose, "print every eviction");
//   if (std::optional<int> code = args.parse(argc, argv)) return *code;
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/scenario_spec.h"

namespace bgpolicy::tools {

class ToolArgs {
 public:
  ToolArgs(std::string program, std::string summary)
      : program_(std::move(program)), summary_(std::move(summary)) {}

  /// Boolean switch (no value).
  ToolArgs& flag(std::string name, bool* out, std::string help) {
    specs_.push_back({std::move(name), "", std::move(help), /*takes_value=*/
                      false,
                      [out](const std::string&) {
                        *out = true;
                        return true;
                      }});
    return *this;
  }

  ToolArgs& option(std::string name, std::string* out, std::string value_name,
                   std::string help) {
    specs_.push_back({std::move(name), std::move(value_name), std::move(help),
                      true, [out](const std::string& value) {
                        *out = value;
                        return true;
                      }});
    return *this;
  }

  ToolArgs& option(std::string name, std::optional<std::string>* out,
                   std::string value_name, std::string help) {
    specs_.push_back({std::move(name), std::move(value_name), std::move(help),
                      true, [out](const std::string& value) {
                        *out = value;
                        return true;
                      }});
    return *this;
  }

  ToolArgs& option_u64(std::string name, std::uint64_t* out,
                       std::string value_name, std::string help) {
    specs_.push_back({std::move(name), std::move(value_name), std::move(help),
                      true, [out](const std::string& value) {
                        return parse_u64(value, out);
                      }});
    return *this;
  }

  ToolArgs& option_u64(std::string name, std::optional<std::uint64_t>* out,
                       std::string value_name, std::string help) {
    specs_.push_back({std::move(name), std::move(value_name), std::move(help),
                      true, [out](const std::string& value) {
                        std::uint64_t parsed = 0;
                        if (!parse_u64(value, &parsed)) return false;
                        *out = parsed;
                        return true;
                      }});
    return *this;
  }

  ToolArgs& option_double(std::string name, double* out,
                          std::string value_name, std::string help) {
    specs_.push_back({std::move(name), std::move(value_name), std::move(help),
                      true, [out](const std::string& value) {
                        // The same numbers a `.scn` file accepts.
                        const std::optional<double> parsed =
                            core::parse_number(value);
                        if (parsed) *out = *parsed;
                        return parsed.has_value();
                      }});
    return *this;
  }

  /// Declares the positional arguments: shown in usage as `LABEL`, with
  /// [min, max] accepted count (max SIZE_MAX = unbounded, rendered "...").
  ToolArgs& positional(std::string label, std::string help, std::size_t min,
                       std::size_t max = SIZE_MAX) {
    positional_label_ = std::move(label);
    positional_help_ = std::move(help);
    positional_min_ = min;
    positional_max_ = max;
    return *this;
  }

  /// Parses argv.  Returns nullopt when the tool should proceed; an exit
  /// code when it should stop (0 after --help, 2 on a usage error).
  [[nodiscard]] std::optional<int> parse(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        print_help(stdout);
        return 0;
      }
      if (arg.size() >= 2 && arg[0] == '-' && arg[1] == '-') {
        const std::size_t eq = arg.find('=');
        const std::string_view name =
            eq == std::string_view::npos ? arg : arg.substr(0, eq);
        Spec* spec = find(name);
        if (spec == nullptr) {
          return error("unknown flag '" + std::string(name) + "'");
        }
        std::string value;
        if (spec->takes_value) {
          if (eq != std::string_view::npos) {
            value = std::string(arg.substr(eq + 1));
          } else if (i + 1 < argc) {
            value = argv[++i];
          } else {
            return error("flag '" + spec->name + "' expects a value");
          }
        } else if (eq != std::string_view::npos) {
          return error("flag '" + spec->name + "' takes no value");
        }
        if (!spec->apply(value)) {
          return error("invalid value '" + value + "' for '" + spec->name +
                       "'");
        }
      } else {
        positionals.emplace_back(arg);
      }
    }
    if (positionals.size() < positional_min_) {
      return error(positional_min_ == 1
                       ? "missing required " + positional_label_
                       : "expected at least " +
                             std::to_string(positional_min_) + " " +
                             positional_label_ + " argument(s)");
    }
    if (positionals.size() > positional_max_) {
      return error("too many positional arguments");
    }
    return std::nullopt;
  }

  void print_usage(std::FILE* out) const {
    std::fprintf(out, "usage: %s%s%s\n", program_.c_str(),
                 specs_.empty() ? "" : " [options]",
                 positional_usage().c_str());
  }

  void print_help(std::FILE* out) const {
    print_usage(out);
    std::fprintf(out, "\n%s\n", summary_.c_str());
    if (!positional_help_.empty()) {
      std::fprintf(out, "\n  %-26s%s\n", positional_label_.c_str(),
                   positional_help_.c_str());
    }
    if (!specs_.empty()) {
      std::fprintf(out, "\noptions:\n");
      for (const Spec& spec : specs_) {
        std::string left = spec.name;
        if (spec.takes_value) left += " " + spec.value_name;
        std::fprintf(out, "  %-26s%s\n", left.c_str(), spec.help.c_str());
      }
    }
    std::fprintf(out, "  %-26s%s\n", "--help, -h", "show this message");
  }

  /// Non-flag arguments in command-line order (valid after parse()).
  std::vector<std::string> positionals;

 private:
  struct Spec {
    std::string name;
    std::string value_name;
    std::string help;
    bool takes_value = false;
    std::function<bool(const std::string&)> apply;
  };

  static bool parse_u64(const std::string& text, std::uint64_t* out) {
    const char* begin = text.c_str();
    const char* end = begin + text.size();
    const auto [ptr, ec] = std::from_chars(begin, end, *out);
    return ec == std::errc() && ptr == end && !text.empty();
  }

  Spec* find(std::string_view name) {
    for (Spec& spec : specs_) {
      if (spec.name == name) return &spec;
    }
    return nullptr;
  }

  std::string positional_usage() const {
    if (positional_label_.empty()) return "";
    std::string out = " ";
    if (positional_min_ == 0) {
      out += "[" + positional_label_ + "]";
    } else {
      out += positional_label_;
    }
    if (positional_max_ > 1) out += " ...";
    return out;
  }

  [[nodiscard]] std::optional<int> error(const std::string& message) const {
    std::fprintf(stderr, "%s: %s\n", program_.c_str(), message.c_str());
    print_usage(stderr);
    return 2;
  }

  std::string program_;
  std::string summary_;
  std::vector<Spec> specs_;
  std::string positional_label_;
  std::string positional_help_;
  std::size_t positional_min_ = 0;
  std::size_t positional_max_ = SIZE_MAX;
};

}  // namespace bgpolicy::tools

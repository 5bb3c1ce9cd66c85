#pragma once
// Minimal command-line flag parsing for bench harnesses and examples.
// Supports --flag, --key=value and --key value forms.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ehw {

class Cli {
 public:
  Cli(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& flag) const;
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;

  /// Every --key given, with its value ("" for a bare flag).
  [[nodiscard]] const std::map<std::string, std::string>& flags()
      const noexcept {
    return kv_;
  }

  /// Positional (non --key) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// The program name (argv[0]).
  [[nodiscard]] const std::string& program() const noexcept { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> kv_;
  std::vector<std::string> positional_;
};

}  // namespace ehw

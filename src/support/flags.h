// Minimal command-line flag parser for the bench and example binaries.
// Syntax: --name=value, --name value, or a bare --name (= "true"). Every
// flag is accepted: a getter returns its default for a flag that was never
// given, so a misspelt flag is silently ignored.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace support {

class Flags {
 public:
  // Parses argv; exits with a message on an argument that is not a flag.
  Flags(int argc, char** argv);

  bool has(const std::string& name) const { return values_.count(name) > 0; }
  std::string get(const std::string& name, const std::string& def) const;
  std::int64_t get_int(const std::string& name, std::int64_t def) const;
  double get_double(const std::string& name, double def) const;
  bool get_bool(const std::string& name, bool def) const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace support

// Minimal command-line flag parser for the bench and example binaries.
// Syntax: --name=value, --name value, or a bare --name (= "true"). A getter
// returns its default for a flag that was never given. Each getter and has()
// records the name it reads, so once a main has read all its flags,
// reject_unread() turns any other flag, misspelt or deleted, into an error.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace support {

class Flags {
 public:
  // Parses argv; exits with a message on an argument that is not a flag.
  Flags(int argc, char** argv);

  bool has(const std::string& name) const { return find(name) != nullptr; }
  std::string get(const std::string& name, const std::string& def) const;
  std::int64_t get_int(const std::string& name, std::int64_t def) const;
  double get_double(const std::string& name, double def) const;
  bool get_bool(const std::string& name, bool def) const;

  // Exits 2, naming every given flag that no getter or has() has read.
  void reject_unread() const;

 private:
  struct Value {
    std::string text;
    mutable bool read = false;
  };
  // The value given for `name` (marked read), or nullptr.
  const std::string* find(const std::string& name) const;

  std::map<std::string, Value> values_;
};

}  // namespace support

#include "support/flags.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace support {

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--", 2) != 0) {
      std::fprintf(stderr, "flags: expected --name[=value], got '%s'\n", arg);
      std::exit(2);
    }
    std::string body = arg + 2;
    auto eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)].text = body.substr(eq + 1);
    } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      values_[body].text = argv[++i];
    } else {
      values_[body].text = "true";  // bare boolean flag
    }
  }
}

const std::string* Flags::find(const std::string& name) const {
  auto it = values_.find(name);
  if (it == values_.end()) return nullptr;
  it->second.read = true;
  return &it->second.text;
}

std::string Flags::get(const std::string& name, const std::string& def) const {
  const std::string* v = find(name);
  return v == nullptr ? def : *v;
}

std::int64_t Flags::get_int(const std::string& name, std::int64_t def) const {
  const std::string* v = find(name);
  return v == nullptr ? def : std::strtoll(v->c_str(), nullptr, 0);
}

double Flags::get_double(const std::string& name, double def) const {
  const std::string* v = find(name);
  return v == nullptr ? def : std::strtod(v->c_str(), nullptr);
}

bool Flags::get_bool(const std::string& name, bool def) const {
  const std::string* v = find(name);
  if (v == nullptr) return def;
  return *v == "true" || *v == "1" || *v == "yes";
}

void Flags::reject_unread() const {
  bool unread = false;
  for (const auto& [name, v] : values_) {
    if (v.read) continue;
    std::fprintf(stderr, "flags: unknown flag --%s\n", name.c_str());
    unread = true;
  }
  // _Exit: the profiler's cadence thread may be running already, and static
  // destructors must not run under it.
  if (unread) std::_Exit(2);
}

}  // namespace support

#include "common/config.h"

#include <cerrno>
#include <cstdlib>

#include "common/log.h"
#include "common/string_util.h"

namespace graphpim {

Config Config::FromArgs(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    std::string tok = argv[i];
    if (StartsWith(tok, "--")) tok = tok.substr(2);
    auto eq = tok.find('=');
    if (eq == std::string::npos) {
      GP_THROW("malformed argument '", argv[i], "' (expected key=value)");
    }
    cfg.Set(Trim(tok.substr(0, eq)), Trim(tok.substr(eq + 1)));
  }
  return cfg;
}

void Config::Set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

bool Config::Has(const std::string& key) const { return values_.count(key) > 0; }

std::string Config::GetString(const std::string& key, const std::string& def) const {
  auto it = values_.find(key);
  return it == values_.end() ? def : it->second;
}

// The numeric getters take a value only when the parse consumed all of it
// and at least one character, so an empty value is malformed, not 0.
std::int64_t Config::GetInt(const std::string& key, std::int64_t def) const {
  auto it = values_.find(key);
  if (it == values_.end()) return def;
  const char* text = it->second.c_str();
  char* end = nullptr;
  errno = 0;
  std::int64_t v = std::strtoll(text, &end, 0);
  if (end == text || *end != '\0' || errno == ERANGE) {
    GP_THROW("config key '", key, "': '", it->second, "' is not an integer");
  }
  return v;
}

// strtoull negates a leading '-' in unsigned arithmetic ("-1" reads as
// 2^64 - 1), so a value holding a '-' is rejected.
std::uint64_t Config::GetUint(const std::string& key, std::uint64_t def) const {
  auto it = values_.find(key);
  if (it == values_.end()) return def;
  const char* text = it->second.c_str();
  char* end = nullptr;
  errno = 0;
  std::uint64_t v = std::strtoull(text, &end, 0);
  if (end == text || *end != '\0' || errno == ERANGE ||
      it->second.find('-') != std::string::npos) {
    GP_THROW("config key '", key, "': '", it->second, "' is not an unsigned integer");
  }
  return v;
}

double Config::GetDouble(const std::string& key, double def) const {
  auto it = values_.find(key);
  if (it == values_.end()) return def;
  const char* text = it->second.c_str();
  char* end = nullptr;
  double v = std::strtod(text, &end);
  if (end == text || *end != '\0') {
    GP_THROW("config key '", key, "': '", it->second, "' is not a number");
  }
  return v;
}

bool Config::GetBool(const std::string& key, bool def) const {
  auto it = values_.find(key);
  if (it == values_.end()) return def;
  const std::string& v = it->second;
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  GP_THROW("config key '", key, "': '", v, "' is not a boolean");
}

void Config::RequireKeys(const std::vector<std::string>& accepted) const {
  for (const auto& [key, value] : values_) {
    bool known = false;
    for (const std::string& a : accepted) {
      if (key == a) {
        known = true;
        break;
      }
    }
    if (!known) {
      std::string list;
      for (const std::string& a : accepted) {
        if (!list.empty()) list += "|";
        list += a;
      }
      GP_THROW("unknown option '--", key, "' (accepted: ", list, ")");
    }
  }
}

std::vector<std::pair<std::string, std::string>> Config::Items() const {
  return {values_.begin(), values_.end()};
}

}  // namespace graphpim

// Key-value configuration store with typed accessors.
//
// Harness binaries accept "--key=value" command-line overrides; subsystem
// configuration structs are populated from a Config so every bench and test
// can tweak any knob without bespoke flag plumbing.
#ifndef GRAPHPIM_COMMON_CONFIG_H_
#define GRAPHPIM_COMMON_CONFIG_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace graphpim {

class Config {
 public:
  Config() = default;

  // Parses "--key=value" / "key=value" tokens. A token without '=' (such
  // as "--help") throws SimError naming it.
  static Config FromArgs(int argc, char** argv);

  // Sets or overrides a key.
  void Set(const std::string& key, const std::string& value);

  bool Has(const std::string& key) const;

  // Typed getters returning `def` when the key is absent. A malformed value
  // throws SimError naming the key and the value: for the numeric getters
  // that includes an empty value, trailing bytes and an integer out of
  // range, and for GetUint a negative one.
  std::string GetString(const std::string& key, const std::string& def) const;
  std::int64_t GetInt(const std::string& key, std::int64_t def) const;
  std::uint64_t GetUint(const std::string& key, std::uint64_t def) const;
  double GetDouble(const std::string& key, double def) const;
  bool GetBool(const std::string& key, bool def) const;

  // Validates that every present key is in `accepted`; throws SimError
  // naming the offending key and listing the accepted keys otherwise.
  // Drivers call this right after FromArgs so a typo'd flag produces an
  // actionable diagnostic instead of being silently ignored.
  void RequireKeys(const std::vector<std::string>& accepted) const;

  // All key/value pairs in key order (for reproducibility banners).
  std::vector<std::pair<std::string, std::string>> Items() const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace graphpim

#endif  // GRAPHPIM_COMMON_CONFIG_H_

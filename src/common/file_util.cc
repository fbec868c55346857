#include "common/file_util.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/log.h"

namespace graphpim {

void WriteWholeFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    GP_THROW("cannot open output file '", path, "': ", std::strerror(errno));
  }
  const bool wrote =
      std::fwrite(content.data(), 1, content.size(), f) == content.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    GP_THROW("cannot write output file '", path, "': ", std::strerror(errno));
  }
}

}  // namespace graphpim

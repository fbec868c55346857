// Checked whole-file output for the result, metrics and timeline writers.
#ifndef GRAPHPIM_COMMON_FILE_UTIL_H_
#define GRAPHPIM_COMMON_FILE_UTIL_H_

#include <string>

namespace graphpim {

// Writes `content` to `path`, replacing the file. Throws SimError naming
// the path when the file cannot be opened, written or closed; a full disk
// often shows only at fclose, when the buffered bytes reach the device.
void WriteWholeFile(const std::string& path, const std::string& content);

}  // namespace graphpim

#endif  // GRAPHPIM_COMMON_FILE_UTIL_H_

// Deterministic mutation fuzzing for the parser tests (no fuzzing engine
// needed): a SplitMix64 stream drives byte edits of a valid seed input, so
// every run replays the same mutants.
#ifndef GRAPHPIM_TESTS_MUTATE_H_
#define GRAPHPIM_TESTS_MUTATE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/random.h"

namespace graphpim {

// One mutant of `seed`: one to four stacked edits, each a bit flip, a
// one-byte insertion, a short deletion or a truncation. Half the inserted
// bytes come from `alphabet`, the input language's punctuation, so mutants
// reach deep into the grammar instead of dying at the first byte; the
// other half are arbitrary bytes.
inline std::string Mutate(const std::string& seed, SplitMix64& rng,
                          std::string_view alphabet) {
  std::string s = seed;
  const int edits = 1 + static_cast<int>(rng.Next() % 4);
  for (int e = 0; e < edits; ++e) {
    const std::uint64_t r = rng.Next();
    const std::size_t at = s.empty() ? 0 : (r >> 8) % s.size();
    switch (r % 4) {
      case 0:
        if (!s.empty()) s[at] = static_cast<char>(s[at] ^ (1 << ((r >> 4) % 8)));
        break;
      case 1: {
        const std::uint64_t b = rng.Next();
        s.insert(s.begin() + static_cast<std::ptrdiff_t>(at),
                 b % 2 ? alphabet[(b >> 1) % alphabet.size()]
                       : static_cast<char>(b >> 8));
        break;
      }
      case 2:
        s.erase(at, 1 + (r >> 40) % 8);
        break;
      default:
        s.resize(at);
    }
  }
  return s;
}

}  // namespace graphpim

#endif  // GRAPHPIM_TESTS_MUTATE_H_

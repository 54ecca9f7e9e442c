#include "mem/fetch_path.h"

#include "support/error.h"

namespace cicmon::mem {

ICache::ICache(const ICacheConfig& config) : config_(config) {
  support::check(config_.num_lines > 0 && (config_.num_lines & (config_.num_lines - 1)) == 0,
                 "ICache: num_lines must be a power of two");
  support::check(config_.words_per_line > 0 &&
                     (config_.words_per_line & (config_.words_per_line - 1)) == 0,
                 "ICache: words_per_line must be a power of two");
  line_bytes_ = config_.words_per_line * 4;
  lines_.resize(config_.num_lines);
  words_.resize(static_cast<std::size_t>(config_.num_lines) * config_.words_per_line, 0);
}

std::optional<std::uint32_t> ICache::flip_random_resident_bit(support::Rng& rng) {
  std::vector<std::uint32_t> valid_lines;
  for (std::uint32_t i = 0; i < lines_.size(); ++i) {
    if (lines_[i].valid) valid_lines.push_back(i);
  }
  if (valid_lines.empty()) return std::nullopt;
  const std::uint32_t line_index = valid_lines[rng.below(valid_lines.size())];
  const auto word_index = static_cast<std::uint32_t>(rng.below(config_.words_per_line));
  const auto bit = static_cast<unsigned>(rng.below(32));
  line_words(line_index)[word_index] ^= 1U << bit;
  const std::uint32_t line = lines_[line_index].tag * config_.num_lines + line_index;
  return line * line_bytes_ + word_index * 4;
}

void ICache::restore_state(const State& s) {
  support::check(s.lines.size() == lines_.size() && s.words.size() == words_.size(),
                 "ICache::restore_state: geometry mismatch");
  lines_ = s.lines;
  words_ = s.words;
  hits_ = s.hits;
  misses_ = s.misses;
}

FetchPath::FetchPath(Memory* memory, const ICacheConfig& icache_config)
    : memory_(memory),
      icache_enabled_(icache_config.enabled),
      icache_(icache_config),
      miss_penalty_(icache_config.miss_penalty) {
  support::check(memory_ != nullptr, "FetchPath: null memory");
}

}  // namespace cicmon::mem

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

std::optional<ICache::Flip> ICache::choose_flip(std::span<const std::uint32_t> valid_lines,
                                                unsigned words_per_line, support::Rng& rng) {
  if (valid_lines.empty()) return std::nullopt;
  Flip flip;
  flip.line = valid_lines[rng.below(valid_lines.size())];
  flip.word = static_cast<std::uint32_t>(rng.below(words_per_line));
  flip.bit = static_cast<unsigned>(rng.below(32));
  return flip;
}

std::vector<std::uint32_t> ICache::valid_lines() const {
  std::vector<std::uint32_t> valid;
  for (std::uint32_t i = 0; i < lines_.size(); ++i) {
    if (lines_[i].valid) valid.push_back(i);
  }
  return valid;
}

std::uint32_t ICache::apply_flip(const Flip& flip) {
  support::check(flip.line < lines_.size() && lines_[flip.line].valid &&
                     flip.word < config_.words_per_line && flip.bit < 32,
                 "ICache::apply_flip: no such resident bit");
  line_words(flip.line)[flip.word] ^= 1U << flip.bit;
  return word_address(config_, {flip.line, lines_[flip.line].tag, flip.word});
}

std::optional<std::uint32_t> ICache::flip_random_resident_bit(support::Rng& rng) {
  const std::optional<Flip> flip = choose_flip(valid_lines(), config_.words_per_line, rng);
  if (!flip.has_value()) return std::nullopt;
  return apply_flip(*flip);
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

// R16 fixture: one generator word keying a counter-addressed stream is
// legal; a draw named in a comment or a string is not a use
// (rng.bernoulli(p), std::bernoulli_distribution), and the exemption
// annotation suppresses a deliberate one.
std::uint64_t mask_seed(core::Rng& rng) { return rng.next_u64(); }
void mask_words(const core::KeyedStream& stream, std::uint32_t* words) {
  stream.read(0, 16, words);
}
const char* kLegacy = "std::mt19937_64";
bool legacy_keep(core::Rng& rng) {
  // R16-exempt: fixture proves the exemption path end to end
  return !rng.bernoulli(0.1);
}

// R15 fixture: a pairwise mask drawn from a seeded Mersenne Twister, the
// linear generator whose output predicts the rest of its stream.
std::uint32_t mask_word(std::uint64_t seed) {
  std::mt19937_64 engine(seed);
  return static_cast<std::uint32_t>(engine());
}

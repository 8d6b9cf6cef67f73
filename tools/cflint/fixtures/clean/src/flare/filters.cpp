// R15 fixture: noise from the keyed stream is legal; a generator named in
// a comment or a string is not a use (std::normal_distribution, core::Rng),
// and the exemption annotation suppresses a deliberate one.
void noise_words(const core::KeyedStream& stream, std::uint32_t* words) {
  stream.read(0, 16, words);
}
const char* kLegacy = "core::Rng";
void legacy_noise(float* v) {
  // R15-exempt: fixture proves the exemption path end to end
  core::Rng rng(7);
  v[0] += static_cast<float>(rng.normal());
}

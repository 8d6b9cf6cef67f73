// R16 fixture: a dropout mask drawn one element at a time from the caller's
// generator, a serial pass in element order on every training step.
void dropout_mask(core::Rng& rng, float p, float* mask, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) mask[i] = rng.bernoulli(p) ? 0.0f : 1.0f;
}

// R17 fixture: the exemption annotation suppresses a deliberate draw.
unsigned salt() {
  // R17-exempt: fixture proves the exemption path end to end
  std::random_device device;
  return device();
}

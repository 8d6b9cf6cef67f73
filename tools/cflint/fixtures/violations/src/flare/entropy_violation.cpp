// R17 fixture: an OS entropy draw outside the envelope's nonce source makes
// every run that takes it irreproducible.
unsigned session_salt() {
  std::random_device device;
  return device();
}

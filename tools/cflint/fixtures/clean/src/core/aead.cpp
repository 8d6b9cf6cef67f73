// R17 fixture: the nonce source is the one unit that keys a stream from
// std::random_device; a draw named in a string ("getrandom") is not a use.
const char* kSyscall = "getrandom";
unsigned nonce_key_word() {
  std::random_device device;
  return device();
}

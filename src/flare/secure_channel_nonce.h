// Explicit-nonce sealing behind flare::seal (internal).
//
// seal and seal_encoded draw every frame's nonce from core::fresh_nonce(),
// so two seals of the same frame differ. This header exists so tests can pin a
// frame's exact bytes. It is not a knob: nothing in the runtime chooses a
// nonce.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/aead.h"
#include "flare/secure_channel.h"

namespace cppflare::flare {

/// seal_encoded with `nonce` in place of a fresh one.
std::vector<std::uint8_t> seal_encoded_with_nonce(
    const std::string& sender, const ChannelKey& key, std::uint64_t sequence,
    std::size_t payload_size, const PayloadEncoder& encode, const std::string& job_id,
    const core::AeadNonce& nonce);

/// seal with `nonce` in place of a fresh one.
std::vector<std::uint8_t> seal_with_nonce(const std::string& sender, const ChannelKey& key,
                                          std::uint64_t sequence,
                                          const std::vector<std::uint8_t>& payload,
                                          const std::string& job_id,
                                          const core::AeadNonce& nonce);

}  // namespace cppflare::flare

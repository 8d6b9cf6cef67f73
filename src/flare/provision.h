// Provisioning: participant identities and credentials.
//
// NVFlare's provisioning step mints a startup kit per participant
// (certificates + tokens) before any training happens; Fig. 3 of the paper
// shows the resulting "Token & SSH Protocols" lines. This module reproduces
// the shape: a `Provisioner` derives, for every named participant, a
// UUID-formatted registration token and a 32-byte channel secret, both
// deterministic in the project seed. The server keeps the full registry;
// each client only receives its own credential.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/sha256.h"

namespace cppflare::flare {

struct Credential {
  std::string name;                  // e.g. "site-1"
  std::string token;                 // uuid-formatted registration token
  std::vector<std::uint8_t> secret;  // 32-byte channel secret
};

class Provisioner {
 public:
  Provisioner(std::string project_name, std::uint64_t seed);

  /// Derives a credential for `participant_name`; stable across calls.
  Credential provision(const std::string& participant_name) const;

  /// Provisions "site-1".."site-N" plus the "server" participant and
  /// returns the full registry keyed by name.
  std::map<std::string, Credential> provision_sites(std::int64_t num_sites) const;

  const std::string& project_name() const { return project_name_; }

 private:
  std::string project_name_;
  std::uint64_t seed_;
};

/// Formats 16 bytes as a canonical lowercase UUID string.
std::string format_uuid(const std::uint8_t* bytes16);

}  // namespace cppflare::flare

#include "flare/persistor.h"

#include <algorithm>
#include <fstream>

#include "core/bytes.h"
#include "core/durable.h"
#include "core/error.h"
#include "core/sha256.h"

namespace cppflare::flare {

namespace {
constexpr std::uint32_t kCheckpointMagic = 0x43504b33;  // "CPK3"

void write_metrics(core::ByteWriter& w, const RoundMetrics& m) {
  w.write_i64(m.round);
  w.write_i64(m.num_contributions);
  w.write_i64(m.total_samples);
  w.write_f64(m.train_loss);
  w.write_f64(m.valid_acc);
  w.write_f64(m.valid_loss);
  w.write_i64(m.late_contributions);
  w.write_i64(m.evicted_sites);
  w.write_bool(m.deadline_fired);
  w.write_i64(m.rejected_updates);
  w.write_i64(m.quarantined_sites);
  w.write_u32(static_cast<std::uint32_t>(m.rejections_by_reason.size()));
  for (const auto& [reason, count] : m.rejections_by_reason) {
    w.write_string(reason);
    w.write_i64(count);
  }
}

RoundMetrics read_metrics(core::ByteReader& r) {
  RoundMetrics m;
  m.round = r.read_i64();
  m.num_contributions = r.read_i64();
  m.total_samples = r.read_i64();
  m.train_loss = r.read_f64();
  m.valid_acc = r.read_f64();
  m.valid_loss = r.read_f64();
  m.late_contributions = r.read_i64();
  m.evicted_sites = r.read_i64();
  m.deadline_fired = r.read_bool();
  m.rejected_updates = r.read_i64();
  m.quarantined_sites = r.read_i64();
  const std::uint32_t reasons = r.read_u32();
  for (std::uint32_t i = 0; i < reasons; ++i) {
    const std::string reason = r.read_string();
    m.rejections_by_reason[reason] = r.read_i64();
  }
  return m;
}

void write_standing(core::ByteWriter& w, const SiteStanding& st) {
  w.write_i64(st.strikes);
  w.write_i64(st.clean_streak);
  w.write_bool(st.quarantined);
  w.write_i64(st.total_rejections);
  w.write_i64(st.times_quarantined);
}

SiteStanding read_standing(core::ByteReader& r) {
  SiteStanding st;
  st.strikes = r.read_i64();
  st.clean_streak = r.read_i64();
  st.quarantined = r.read_bool();
  st.total_rejections = r.read_i64();
  st.times_quarantined = r.read_i64();
  return st;
}
}  // namespace

void ModelPersistor::save(const Checkpoint& checkpoint) const {
  core::ByteWriter w;
  w.write_u32(kCheckpointMagic);
  w.write_string(checkpoint.job_id);
  w.write_i64(checkpoint.round);
  checkpoint.model.serialize(w);
  w.write_u32(static_cast<std::uint32_t>(checkpoint.history.size()));
  for (const RoundMetrics& m : checkpoint.history) write_metrics(w, m);
  w.write_u32(static_cast<std::uint32_t>(checkpoint.reputation.size()));
  for (const auto& [site, standing] : checkpoint.reputation) {
    w.write_string(site);
    write_standing(w, standing);
  }
  // Integrity footer: SHA-256 over everything above. tmp+rename already
  // rules out torn files from our own crashes; the footer catches the rest
  // (bit rot, truncation by another process, partial copies).
  const core::Digest digest =
      core::Sha256::hash(w.bytes().data(), w.size());
  w.write_raw(digest.data(), digest.size());

  // tmp + fsync + rename + parent-dir fsync: survives process death AND
  // power loss, and embeds the persist.* crash points (DESIGN.md §15).
  core::durable_write(path_, w.bytes().data(), w.size());
}

std::optional<Checkpoint> ModelPersistor::load() const {
  std::ifstream in(path_, std::ios::binary);
  if (!in) return std::nullopt;
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  core::ByteReader probe(bytes);
  if (probe.read_u32() != kCheckpointMagic) {
    throw SerializationError("ModelPersistor: bad checkpoint magic in '" + path_ +
                             "'");
  }
  constexpr std::size_t kFooter = 32;
  if (bytes.size() < kFooter + 4) {
    throw SerializationError("ModelPersistor: checkpoint '" + path_ +
                             "' is truncated (no integrity footer)");
  }
  const std::size_t body = bytes.size() - kFooter;
  const core::Digest computed = core::Sha256::hash(bytes.data(), body);
  core::Digest stored{};
  for (std::size_t i = 0; i < kFooter; ++i) stored[i] = bytes[body + i];
  if (!core::digests_equal(computed, stored)) {
    throw SerializationError(
        "ModelPersistor: integrity check failed for '" + path_ +
        "' — checkpoint is truncated or corrupted");
  }
  bytes.resize(body);
  core::ByteReader r(bytes);
  (void)r.read_u32();  // magic, validated above
  Checkpoint cp;
  cp.job_id = r.read_string();
  cp.round = r.read_i64();
  cp.model = nn::StateDict::deserialize(r);
  const std::uint32_t count = r.read_u32();
  // Every record takes bytes: never reserve past what the file holds.
  cp.history.reserve(std::min<std::size_t>(count, r.remaining()));
  for (std::uint32_t i = 0; i < count; ++i) cp.history.push_back(read_metrics(r));
  const std::uint32_t sites = r.read_u32();
  for (std::uint32_t i = 0; i < sites; ++i) {
    const std::string site = r.read_string();
    cp.reputation[site] = read_standing(r);
  }
  return cp;
}

}  // namespace cppflare::flare

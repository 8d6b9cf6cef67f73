#include "flare/journal.h"

#include <algorithm>
#include <utility>

#include "core/bytes.h"
#include "core/crashpoint.h"
#include "core/error.h"

namespace cppflare::flare {

const char* journal_event_name(JournalEventType type) {
  switch (type) {
    case JournalEventType::kJobHeader: return "job_header";
    case JournalEventType::kRoundOpen: return "round_open";
    case JournalEventType::kAccepted: return "accepted";
    case JournalEventType::kRejected: return "rejected";
    case JournalEventType::kQuarantineScored: return "quarantine_scored";
    case JournalEventType::kEviction: return "eviction";
    case JournalEventType::kRecoveryBegin: return "recovery_begin";
    case JournalEventType::kUnmaskShare: return "unmask_share";
    case JournalEventType::kRecoveryWave: return "recovery_wave";
    case JournalEventType::kCommit: return "commit";
  }
  return "unknown";
}

namespace {

void write_names(core::ByteWriter& w, const std::vector<std::string>& names) {
  w.write_u32(static_cast<std::uint32_t>(names.size()));
  for (const std::string& name : names) w.write_string(name);
}

/// A kAccepted / kUnmaskShare frame, encoded from a borrowed DXO (the
/// journal never copies the contribution it records).
std::vector<std::uint8_t> encode_payload_event(JournalEventType type,
                                               const std::string& site,
                                               const Dxo& payload) {
  core::ByteWriter w;
  w.reserve(1 + core::encoded_size(site) + payload.encoded_size());
  w.write_u8(static_cast<std::uint8_t>(type));
  w.write_string(site);
  payload.serialize(w);
  return w.take();
}

std::vector<std::string> read_names(core::ByteReader& r) {
  const std::uint32_t count = r.read_u32();
  std::vector<std::string> names;
  // Bounded by what the record can hold (4 length bytes per name).
  names.reserve(std::min<std::size_t>(count, r.remaining() / 4));
  for (std::uint32_t i = 0; i < count; ++i) names.push_back(r.read_string());
  return names;
}

}  // namespace

std::vector<std::uint8_t> JournalEvent::encode() const {
  if (type == JournalEventType::kAccepted ||
      type == JournalEventType::kUnmaskShare) {
    return encode_payload_event(type, site, *payload);
  }
  core::ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(type));
  switch (type) {
    case JournalEventType::kJobHeader:
      w.write_string(job_id);
      break;
    case JournalEventType::kRoundOpen:
      w.write_i64(round);
      write_names(w, names);
      break;
    case JournalEventType::kAccepted:
    case JournalEventType::kUnmaskShare:
      break;  // encoded above
    case JournalEventType::kRejected:
      w.write_string(site);
      w.write_u8(reason);
      w.write_string(detail);
      break;
    case JournalEventType::kQuarantineScored:
      w.write_string(site);
      w.write_u8(reason);
      w.write_string(detail);
      w.write_f64(norm);
      break;
    case JournalEventType::kEviction:
      w.write_string(site);
      break;
    case JournalEventType::kRecoveryBegin:
      w.write_i64(round);
      write_names(w, names);
      w.write_bool(deadline_fired);
      break;
    case JournalEventType::kRecoveryWave:
      w.write_i64(wave);
      write_names(w, names);
      break;
    case JournalEventType::kCommit:
      w.write_i64(round);
      break;
  }
  return w.take();
}

JournalEvent JournalEvent::decode(const std::vector<std::uint8_t>& bytes) {
  core::ByteReader r(bytes);
  JournalEvent ev;
  ev.type = static_cast<JournalEventType>(r.read_u8());
  switch (ev.type) {
    case JournalEventType::kJobHeader:
      ev.job_id = r.read_string();
      break;
    case JournalEventType::kRoundOpen:
      ev.round = r.read_i64();
      ev.names = read_names(r);
      break;
    case JournalEventType::kAccepted:
    case JournalEventType::kUnmaskShare:
      ev.site = r.read_string();
      ev.payload = Dxo::deserialize(r);
      break;
    case JournalEventType::kRejected:
      ev.site = r.read_string();
      ev.reason = r.read_u8();
      ev.detail = r.read_string();
      break;
    case JournalEventType::kQuarantineScored:
      ev.site = r.read_string();
      ev.reason = r.read_u8();
      ev.detail = r.read_string();
      ev.norm = r.read_f64();
      break;
    case JournalEventType::kEviction:
      ev.site = r.read_string();
      break;
    case JournalEventType::kRecoveryBegin:
      ev.round = r.read_i64();
      ev.names = read_names(r);
      ev.deadline_fired = r.read_bool();
      break;
    case JournalEventType::kRecoveryWave:
      ev.wave = r.read_i64();
      ev.names = read_names(r);
      break;
    case JournalEventType::kCommit:
      ev.round = r.read_i64();
      break;
    default:
      throw SerializationError("unknown journal event type " +
                               std::to_string(static_cast<int>(ev.type)));
  }
  return ev;
}

RoundJournal::RoundJournal(std::string path, core::WalSyncPolicy policy)
    : wal_(std::move(path), policy) {}

JournalReplay RoundJournal::open(const std::string& job_id) {
  job_id_ = job_id;
  const core::WalReplayResult raw = wal_.open_and_replay();
  JournalReplay replay;
  replay.torn_bytes = raw.truncated_bytes;
  if (raw.records.empty()) {
    JournalEvent header;
    header.type = JournalEventType::kJobHeader;
    header.job_id = job_id;
    wal_.append(header.encode());
    wal_.sync();
    header_end_ = wal_.size();
    return replay;
  }
  // Frame overhead is the u32 len + u32 crc pair (core/wal.h).
  header_end_ = 8 + raw.records.front().size();
  const JournalEvent header = JournalEvent::decode(raw.records.front());
  if (header.type != JournalEventType::kJobHeader) {
    throw core::WalCorruptionError("journal '" + wal_.path() +
                                   "' does not start with a job header");
  }
  if (header.job_id != job_id) {
    throw ConfigError("journal '" + wal_.path() + "' belongs to job '" +
                      header.job_id + "', not '" + job_id + "'");
  }
  for (std::size_t i = 1; i < raw.records.size(); ++i) {
    JournalEvent ev = JournalEvent::decode(raw.records[i]);
    switch (ev.type) {
      case JournalEventType::kRoundOpen:
        replay.open_round = ev.round;
        replay.events.clear();
        replay.events.push_back(std::move(ev));
        break;
      case JournalEventType::kCommit:
        replay.committed_round = ev.round;
        replay.open_round = -1;
        replay.events.clear();
        break;
      default:
        replay.events.push_back(std::move(ev));
        break;
    }
  }
  if (replay.open_round < 0) replay.events.clear();
  return replay;
}

void RoundJournal::append(const JournalEvent& event) {
  wal_.append(event.encode());
}

void RoundJournal::round_open(std::int64_t round,
                              const std::vector<std::string>& cohort) {
  JournalEvent ev;
  ev.type = JournalEventType::kRoundOpen;
  ev.round = round;
  ev.names = cohort;
  append(ev);
  // No sync here: the previous round was already made durable by its own
  // commit barrier and the compaction fsync, and kEveryRound promises
  // power-loss durability only for *committed* rounds — this open frame is
  // covered by this round's commit() barrier (kEveryRecord still syncs the
  // append itself).
}

void RoundJournal::accepted(const std::string& site, const Dxo& update) {
  wal_.append(encode_payload_event(JournalEventType::kAccepted, site, update));
}

void RoundJournal::rejected(const std::string& site, std::uint8_t reason,
                            const std::string& message) {
  JournalEvent ev;
  ev.type = JournalEventType::kRejected;
  ev.site = site;
  ev.reason = reason;
  ev.detail = message;
  append(ev);
}

void RoundJournal::quarantine_scored(const std::string& site,
                                     std::uint8_t reason,
                                     const std::string& detail, double norm) {
  JournalEvent ev;
  ev.type = JournalEventType::kQuarantineScored;
  ev.site = site;
  ev.reason = reason;
  ev.detail = detail;
  ev.norm = norm;
  append(ev);
}

void RoundJournal::evicted(const std::string& site) {
  JournalEvent ev;
  ev.type = JournalEventType::kEviction;
  ev.site = site;
  append(ev);
}

void RoundJournal::recovery_begin(std::int64_t round,
                                  const std::vector<std::string>& dropped,
                                  bool deadline_fired) {
  JournalEvent ev;
  ev.type = JournalEventType::kRecoveryBegin;
  ev.round = round;
  ev.names = dropped;
  ev.deadline_fired = deadline_fired;
  append(ev);
}

void RoundJournal::unmask_share(const std::string& site, const Dxo& share) {
  wal_.append(encode_payload_event(JournalEventType::kUnmaskShare, site, share));
}

void RoundJournal::recovery_wave(std::int64_t wave,
                                 const std::vector<std::string>& demoted) {
  JournalEvent ev;
  ev.type = JournalEventType::kRecoveryWave;
  ev.wave = wave;
  ev.names = demoted;
  append(ev);
}

void RoundJournal::commit(std::int64_t round) {
  JournalEvent ev;
  ev.type = JournalEventType::kCommit;
  ev.round = round;
  append(ev);
  // No sync of the commit frame: by contract the round's CPK3 checkpoint is
  // already durable when commit() is called, so the checkpoint — not this
  // frame — is the round's source of truth. A crash that eats the un-synced
  // kCommit leaves an open round the restart reconciles against the newer
  // checkpoint and discards (the stale-journal branch), landing in the same
  // state a surviving kCommit would. The frame still matters for the
  // process-death window below: page cache survives SIGKILL, so a kill
  // between here and compaction replays into the clean committed branch.
  CF_CRASHPOINT("journal.commit.after");
  discard();
}

void RoundJournal::discard() {
  CF_CRASHPOINT("journal.compact.before");
  // In-place compaction: drop every frame after the job header. Cheap (no
  // temp-file rewrite — the fd, inode and header bytes stay put) and
  // crash-atomic on the frame boundary: a kill here leaves either the
  // committed/stale frames (replay skips past a trailing kCommit, or the
  // stale branch discards again) or the bare header.
  wal_.truncate(header_end_);
}

void RoundJournal::sync() { wal_.sync(); }

std::vector<JournalEvent> RoundJournal::read(const std::string& path) {
  const core::WalReplayResult raw = core::Wal::read(path);
  std::vector<JournalEvent> events;
  events.reserve(raw.records.size());
  for (const auto& record : raw.records) {
    events.push_back(JournalEvent::decode(record));
  }
  return events;
}

}  // namespace cppflare::flare

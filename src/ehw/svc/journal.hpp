#pragma once
// MissionJournal — the daemon's persistent append-only job log.
//
// One directory holds everything a daemon incarnation needs to survive a
// crash:
//   journal.jsonl   append-only NDJSON records, one per line:
//                     {"rec":"submitted","v":1,"job":N,"spec":{...}}
//                     {"rec":"started","job":N}
//                     {"rec":"finished","job":N,"status":...,"waves":N,
//                      "result":{...}}
//                   Spec payloads are the submit vocabulary
//                   (svc::spec_to_json), result payloads the result
//                   vocabulary (svc::outcome_to_json) — replay re-serves
//                   finished results byte-comparably.
//   job-<id>.ckpt   latest mission checkpoint of an in-flight job
//                   (sched checkpoint-store format), deleted on finish.
//   warm.json       the pool's FitnessMemo ("mpa-warm-v2"), written on
//                   graceful stop (sched::ArrayPool warm state).
//
// Appends are fsync'd per record: "submitted" is a write-ahead record (a
// crash right after the ack still resubmits on restart), "finished" is
// the commit point after which replay re-serves instead of re-running.
// Replay tolerates a torn tail — a kill -9 mid-append truncates at most
// the final line, which parses as corrupt and is counted, never fatal.

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "ehw/common/json.hpp"

namespace ehw::svc {

class MissionJournal {
 public:
  /// Opens `dir`/journal.jsonl for appending, creating the directory on
  /// demand. Throws std::runtime_error when the directory or file cannot
  /// be created.
  explicit MissionJournal(std::string dir);
  ~MissionJournal();

  MissionJournal(const MissionJournal&) = delete;
  MissionJournal& operator=(const MissionJournal&) = delete;

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

  /// Appends one record as a single NDJSON line and fsyncs it. Safe from
  /// any thread. Returns false (once) when the write failed — the daemon
  /// keeps serving, degraded to non-durable.
  bool append(const Json& record);

  /// Records appended by THIS incarnation.
  [[nodiscard]] std::uint64_t appended() const;

  /// Sidecar paths inside the journal directory.
  [[nodiscard]] std::string checkpoint_path(std::uint64_t job_id) const;
  [[nodiscard]] std::string warm_path() const;
  /// Same sidecar naming without opening the journal — how the forwarder
  /// reads a DEAD backend's checkpoint for failover (the backend's
  /// journal dir must be readable from the forwarder host; loopback or
  /// shared-filesystem deployments).
  [[nodiscard]] static std::string checkpoint_path_in(const std::string& dir,
                                                      std::uint64_t job_id);

  /// Everything read back from a journal directory.
  struct Replay {
    std::vector<Json> records;  // parseable records, file order
    /// Unparsable non-tail lines (bit rot, manual edits).
    std::size_t corrupt = 0;
    /// The FINAL line was unparsable — the signature of a crash
    /// mid-append; at most one record (not yet acked durable) is lost.
    bool truncated_tail = false;
  };
  /// Reads `dir`/journal.jsonl; a missing directory or file replays
  /// empty (a fresh journal), never errors.
  [[nodiscard]] static Replay replay(const std::string& dir);

 private:
  std::string dir_;
  int fd_ = -1;
  mutable std::mutex mutex_;
  std::uint64_t appended_ = 0;
};

}  // namespace ehw::svc

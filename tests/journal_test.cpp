// Tests for daemon durability: the append-only mission journal (replay,
// torn-tail and corrupt-record handling), crash recovery in the Server
// (re-serving finished missions exactly as they were served live,
// resuming unfinished ones from their checkpoint with bit-identical
// results, duplicate names across restarts), the commit-before-answer
// order of `result` and warm-state persistence across incarnations.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "ehw/common/persist.hpp"
#include "ehw/sched/checkpoint_store.hpp"
#include "ehw/sched/missions.hpp"
#include "ehw/svc/client.hpp"
#include "ehw/svc/journal.hpp"
#include "ehw/svc/server.hpp"
#include "ehw/svc/socket.hpp"

namespace ehw::svc {
namespace {

std::string fresh_dir(const std::string& leaf) {
  const std::string dir = testing::TempDir() + leaf;
  // Tests may run repeatedly in one tree: start from nothing.
  static_cast<void>(remove_file(dir + "/journal.jsonl"));
  static_cast<void>(remove_file(dir + "/warm.json"));
  for (std::uint64_t id = 1; id <= 16; ++id) {
    static_cast<void>(
        remove_file(dir + "/job-" + std::to_string(id) + ".ckpt"));
  }
  return dir;
}

sched::MissionSpec quick_spec(const std::string& name, Generation generations,
                              std::size_t lanes = 2) {
  sched::MissionSpec spec;
  spec.kind = sched::MissionKind::kDenoise;
  spec.name = name;
  spec.lanes = lanes;
  spec.generations = generations;
  spec.size = 16;
  spec.seed = 5;
  return spec;
}

ServerConfig durable_config(const std::string& journal_dir,
                            std::size_t arrays = 2) {
  ServerConfig config;
  config.pool.num_arrays = arrays;
  config.pool.line_width = 16;
  config.journal_dir = journal_dir;
  config.checkpoint_every = 4;
  return config;
}

/// The frame a watch of the finished `job` ends with.
Json watch_done_frame(std::uint16_t port, std::uint64_t job) {
  LineChannel channel(Socket::connect_to("127.0.0.1", port));
  std::string line;
  EXPECT_TRUE(channel.read_line(line));  // greeting
  EXPECT_TRUE(channel.write_line(R"({"op":"hello","protocol":1})"));
  EXPECT_TRUE(channel.read_line(line));
  EXPECT_TRUE(channel.write_line(R"({"op":"watch","job":)" +
                                 std::to_string(job) + "}"));
  while (channel.read_line(line)) {
    Json frame = Json::parse(line);
    if (frame.get_string("event", "") == "done") return frame;
  }
  ADD_FAILURE() << "watch ended without a done frame";
  return Json();
}

/// A reply without its `replayed` flag.
Json without_replayed(Json reply) {
  std::erase_if(reply.as_object(),
                [](const auto& member) { return member.first == "replayed"; });
  return reply;
}

// --- MissionJournal ---------------------------------------------------------

TEST(Journal, DirectoryCreatedOnDemand) {
  const std::string dir =
      testing::TempDir() + "ehw_journal_nested/deep/journal";
  static_cast<void>(remove_file(dir + "/journal.jsonl"));
  MissionJournal journal(dir);
  Json record = Json::object();
  record.set("rec", "submitted");
  record.set("job", static_cast<std::uint64_t>(1));
  EXPECT_TRUE(journal.append(record));
  EXPECT_EQ(journal.appended(), 1u);
  EXPECT_TRUE(file_exists(dir + "/journal.jsonl"));

  const MissionJournal::Replay replay = MissionJournal::replay(dir);
  ASSERT_EQ(replay.records.size(), 1u);
  EXPECT_EQ(replay.records[0].get_string("rec", "?"), "submitted");
  EXPECT_EQ(replay.corrupt, 0u);
  EXPECT_FALSE(replay.truncated_tail);
}

TEST(Journal, ReplayOfMissingDirIsEmpty) {
  const MissionJournal::Replay replay =
      MissionJournal::replay(testing::TempDir() + "ehw_journal_never_made");
  EXPECT_TRUE(replay.records.empty());
  EXPECT_EQ(replay.corrupt, 0u);
  EXPECT_FALSE(replay.truncated_tail);
}

TEST(Journal, TruncatedTailIsToleratedAndFlagged) {
  const std::string dir = fresh_dir("ehw_journal_torn");
  ASSERT_EQ(ensure_directory(dir), "");
  // Two whole records, then a record torn mid-write — the exact wound a
  // kill -9 during append leaves.
  ASSERT_EQ(atomic_write_file(dir + "/journal.jsonl",
                              "{\"rec\":\"submitted\",\"job\":1}\n"
                              "{\"rec\":\"started\",\"job\":1}\n"
                              "{\"rec\":\"finished\",\"job\":1,\"stat"),
            "");
  const MissionJournal::Replay replay = MissionJournal::replay(dir);
  EXPECT_EQ(replay.records.size(), 2u);
  EXPECT_EQ(replay.corrupt, 0u);
  EXPECT_TRUE(replay.truncated_tail);
}

TEST(Journal, CorruptInteriorRecordIsCountedNotFatal) {
  const std::string dir = fresh_dir("ehw_journal_corrupt");
  ASSERT_EQ(ensure_directory(dir), "");
  ASSERT_EQ(atomic_write_file(dir + "/journal.jsonl",
                              "{\"rec\":\"submitted\",\"job\":1}\n"
                              "###garbage###\n"
                              "{\"rec\":\"started\",\"job\":1}\n"),
            "");
  const MissionJournal::Replay replay = MissionJournal::replay(dir);
  EXPECT_EQ(replay.records.size(), 2u);
  EXPECT_EQ(replay.corrupt, 1u);
  EXPECT_FALSE(replay.truncated_tail);
}

TEST(Journal, AppendAccumulatesAcrossIncarnations) {
  const std::string dir = fresh_dir("ehw_journal_accum");
  Json record = Json::object();
  record.set("rec", "started");
  record.set("job", static_cast<std::uint64_t>(7));
  {
    MissionJournal first(dir);
    EXPECT_TRUE(first.append(record));
    EXPECT_TRUE(first.append(record));
  }
  {
    MissionJournal second(dir);
    EXPECT_TRUE(second.append(record));
    EXPECT_EQ(second.appended(), 1u);  // this incarnation only
  }
  EXPECT_EQ(MissionJournal::replay(dir).records.size(), 3u);
}

// --- Server recovery --------------------------------------------------------

TEST(Recovery, FinishedMissionsAreReServedAcrossRestart) {
  const std::string dir = fresh_dir("ehw_recovery_reserve");
  const sched::MissionSpec spec = quick_spec("persisted", 8);

  Fitness fitness = 0;
  std::string hash;
  std::uint64_t job_id = 0;
  Json live_result;
  Json live_status;
  Json live_row;
  Json live_done;
  {
    Server server(durable_config(dir));
    Client client(server.port());
    const Client::Submitted submitted = client.submit(spec);
    ASSERT_TRUE(submitted.ok);
    job_id = submitted.job;
    live_result = client.result(job_id);
    ASSERT_EQ(live_result.get_string("status", "?"), "done");
    fitness = static_cast<Fitness>(live_result.get_number("best_fitness", 0));
    hash = live_result.get_string("genotype_hash", "?");
    live_status = client.status(job_id);
    live_row = client.list().get("jobs")->as_array().at(0);
    live_done = watch_done_frame(server.port(), job_id);
    server.drain();
    server.stop();
  }

  // Restart on the same journal: the mission is answered from the log,
  // not recomputed.
  Server server(durable_config(dir));
  EXPECT_EQ(server.journal_stats().replayed_finished, 1u);
  EXPECT_EQ(server.journal_stats().resumed, 0u);
  Client client(server.port());
  const Json replayed = client.result(job_id);
  EXPECT_EQ(replayed.get_string("status", "?"), "done");
  EXPECT_TRUE(replayed.get_bool("replayed", false));
  EXPECT_EQ(static_cast<Fitness>(replayed.get_number("best_fitness", 0)),
            fitness);
  EXPECT_EQ(replayed.get_string("genotype_hash", "?"), hash);

  // One representation of a finished job: every reply the restarted
  // daemon gives equals the live daemon's, but for the replayed flag.
  EXPECT_EQ(without_replayed(replayed), live_result);
  const Json replayed_status = client.status(job_id);
  EXPECT_TRUE(replayed_status.get_bool("replayed", false));
  EXPECT_EQ(without_replayed(replayed_status), live_status);
  EXPECT_EQ(client.list().get("jobs")->as_array().at(0), live_row);
  EXPECT_EQ(watch_done_frame(server.port(), job_id), live_done);

  // The journal section of `stats` reports the recovery.
  const Json stats = client.stats();
  const Json* journal = stats.get("journal");
  ASSERT_NE(journal, nullptr);
  EXPECT_EQ(journal->get_string("dir", "?"), dir);
  EXPECT_EQ(journal->get_number("replayed_finished", -1), 1);
  EXPECT_FALSE(journal->get_bool("truncated_tail", true));
}

TEST(Recovery, ResultAnswersOnlyOnceTheFinishedRecordIsJournaled) {
  const std::string dir = fresh_dir("ehw_recovery_commit");
  Server server(durable_config(dir));
  Client client(server.port());
  for (int i = 0; i < 6; ++i) {
    const Client::Submitted submitted =
        client.submit(quick_spec("commit-" + std::to_string(i), 4));
    ASSERT_TRUE(submitted.ok) << submitted.error;
    ASSERT_EQ(client.result(submitted.job).get_string("status", "?"), "done");
    // The answer served is the committed one: a crash right now would
    // re-serve it from the log, never re-run the mission. The append has
    // returned (fsync'd: submitted, started and finished per mission)...
    EXPECT_EQ(server.journal_stats().appended,
              3 * static_cast<std::uint64_t>(i + 1));
    // ...and the record reads back.
    const MissionJournal::Replay replay = MissionJournal::replay(dir);
    EXPECT_TRUE(std::any_of(
        replay.records.begin(), replay.records.end(), [&](const Json& rec) {
          return rec.get_string("rec", "") == "finished" &&
                 rec.get_number("job", 0) ==
                     static_cast<double>(submitted.job);
        }))
        << "job " << submitted.job << " answered before its commit";
  }
  server.drain();
  server.stop();
}

TEST(Recovery, DuplicateNamesAcrossRestartResolveToLatest) {
  const std::string dir = fresh_dir("ehw_recovery_dupes");
  const sched::MissionSpec spec = quick_spec("twin", 8);

  std::uint64_t first_id = 0;
  {
    Server server(durable_config(dir));
    Client client(server.port());
    const Client::Submitted submitted = client.submit(spec);
    ASSERT_TRUE(submitted.ok);
    first_id = submitted.job;
    static_cast<void>(client.result(first_id));
    server.drain();
    server.stop();
  }

  Server server(durable_config(dir));
  Client client(server.port());
  // Same name, new incarnation: ids must not collide...
  const Client::Submitted again = client.submit(spec);
  ASSERT_TRUE(again.ok);
  EXPECT_GT(again.job, first_id);
  static_cast<void>(client.result(again.job));
  // ...and a by-name lookup resolves to the LATEST submission (live),
  // while the replayed one stays reachable by id.
  Json by_name = Json::object();
  by_name.set("op", "result");
  by_name.set("job", "twin");
  const Json latest = client.request(by_name);
  EXPECT_EQ(static_cast<std::uint64_t>(latest.get_number("job", 0)),
            again.job);
  EXPECT_FALSE(latest.get_bool("replayed", false));
  const Json old = client.result(first_id);
  EXPECT_TRUE(old.get_bool("replayed", false));
  EXPECT_EQ(old.get_string("status", "?"), "done");
}

TEST(Recovery, ForgedCrashResumesFromCheckpointBitIdentical) {
  // Forge the on-disk state a kill -9 leaves behind: a journal whose
  // mission was submitted (write-ahead) but never finished, plus the
  // checkpoint sidecar of a mid-flight preemption. The restarted daemon
  // must resume it and land on the bit-identical result of an
  // uninterrupted run.
  const std::string dir = fresh_dir("ehw_recovery_forged");
  const sched::MissionSpec spec = quick_spec("phoenix", 24);

  const sched::JobOutcome reference = sched::run_spec_standalone(spec);
  const Fitness ref_fitness = reference.intrinsic.es.best_fitness;
  const std::string ref_hash = hash_hex(reference.intrinsic.es.best.hash());

  {
    MissionJournal journal(dir);
    Json submitted = Json::object();
    submitted.set("rec", "submitted");
    submitted.set("v", static_cast<std::uint64_t>(1));
    submitted.set("job", static_cast<std::uint64_t>(1));
    submitted.set("spec", spec_to_json(spec));
    ASSERT_TRUE(journal.append(submitted));
    Json started = Json::object();
    started.set("rec", "started");
    started.set("job", static_cast<std::uint64_t>(1));
    ASSERT_TRUE(journal.append(started));

    // The sidecar: a genuine mid-run checkpoint of the same spec.
    sched::MissionCheckpointing preempt;
    preempt.preempt_after = 9;
    preempt.sink = [&](const platform::MissionCheckpoint& state) {
      ASSERT_EQ(sched::save_mission_checkpoint(journal.checkpoint_path(1),
                                               spec, state),
                "");
    };
    static_cast<void>(sched::run_spec_standalone(spec, nullptr, preempt));
    ASSERT_TRUE(file_exists(journal.checkpoint_path(1)));
  }

  Server server(durable_config(dir));
  EXPECT_EQ(server.journal_stats().resumed, 1u);
  EXPECT_EQ(server.journal_stats().resumed_from_checkpoint, 1u);
  Client client(server.port());
  const Json result = client.result(1);
  EXPECT_EQ(result.get_string("status", "?"), "done");
  EXPECT_FALSE(result.get_bool("replayed", false));  // actually re-run
  EXPECT_EQ(static_cast<Fitness>(result.get_number("best_fitness", 0)),
            ref_fitness);
  EXPECT_EQ(result.get_string("genotype_hash", "?"), ref_hash);
  server.drain();
  server.stop();
  // The finish path ran before `result` answered: sidecar cleaned up and
  // the commit record journaled, so the NEXT restart re-serves instead of
  // re-running.
  EXPECT_FALSE(file_exists(dir + "/job-1.ckpt"));

  Server again(durable_config(dir));
  EXPECT_EQ(again.journal_stats().replayed_finished, 1u);
  EXPECT_EQ(again.journal_stats().resumed, 0u);
  Client verify(again.port());
  const Json reserved = verify.result(1);
  EXPECT_TRUE(reserved.get_bool("replayed", false));
  EXPECT_EQ(static_cast<Fitness>(reserved.get_number("best_fitness", 0)),
            ref_fitness);
  EXPECT_EQ(reserved.get_string("genotype_hash", "?"), ref_hash);
}

TEST(Recovery, ResumedMissionTooWideForShrunkenPoolFailsCleanly) {
  const std::string dir = fresh_dir("ehw_recovery_wide");
  const sched::MissionSpec spec = quick_spec("wide", 8, /*lanes=*/4);
  {
    MissionJournal journal(dir);
    Json submitted = Json::object();
    submitted.set("rec", "submitted");
    submitted.set("v", static_cast<std::uint64_t>(1));
    submitted.set("job", static_cast<std::uint64_t>(1));
    submitted.set("spec", spec_to_json(spec));
    ASSERT_TRUE(journal.append(submitted));
  }
  // Pool of 2 cannot host a 4-lane mission: recovery must mark it failed
  // (journaled, so the verdict survives the NEXT restart too).
  Server server(durable_config(dir, /*arrays=*/2));
  EXPECT_EQ(server.journal_stats().resumed, 0u);
  EXPECT_EQ(server.journal_stats().replayed_finished, 1u);
  Client client(server.port());
  const Json result = client.result(1);
  EXPECT_EQ(result.get_string("status", "?"), "failed");
  EXPECT_NE(result.get_string("error", ""), "");
}

TEST(Recovery, WarmStatePersistsAcrossRestart) {
  const std::string dir = fresh_dir("ehw_recovery_warm");
  {
    Server server(durable_config(dir));
    Client client(server.port());
    const Client::Submitted submitted =
        client.submit(quick_spec("warming", 8));
    ASSERT_TRUE(submitted.ok);
    static_cast<void>(client.result(submitted.job));
    server.drain();
    server.stop();
    EXPECT_TRUE(file_exists(dir + "/warm.json"));
  }
  Server server(durable_config(dir));
  // The mission memoized fitness evaluations; the restarted pool starts
  // preloaded with them.
  EXPECT_GT(server.journal_stats().warm_memo_loaded, 0u);
}

}  // namespace
}  // namespace ehw::svc

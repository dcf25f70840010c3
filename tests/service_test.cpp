// Tests for the campaign service: frame codec robustness (checksummed v2
// framing, poison permanence), the submit / stream / job_done round trip
// (byte-identical to the one-shot runner), quota backpressure as a frame
// (never a disconnect), fair round-robin scheduling across clients,
// mid-stream disconnect survival, journal-backed restart resume, structured
// error frames for malformed submissions, cooperative cancel with
// journal-consistent teardown, replay-bundle jobs, liveness timeouts
// (dead-peer and slowloris), per-tick adversarial budgets, and seeded
// chaos-proxy storms that must converge byte-identically anyway.
//
// Every test binds an ephemeral loopback port (or a temp-dir unix socket),
// so the suite is parallel-safe and needs no fixed resources.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <functional>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ddl/analysis/bench_json.h"
#include "ddl/scenario/campaign.h"
#include "ddl/scenario/chaos.h"
#include "ddl/scenario/journal.h"
#include "ddl/scenario/registry.h"
#include "ddl/scenario/runner.h"
#include "ddl/scenario/spec.h"
#include "ddl/service/chaos_proxy.h"
#include "ddl/service/client.h"
#include "ddl/service/net_util.h"
#include "ddl/service/protocol.h"
#include "ddl/service/server.h"

namespace {

namespace fs = std::filesystem;

using ddl::scenario::LoadSpec;
using ddl::scenario::ScenarioRunner;
using ddl::scenario::ScenarioSpec;
using ddl::service::ChaosProxy;
using ddl::service::ChaosProxyConfig;
using ddl::service::ClientConfig;
using ddl::service::FrameReader;
using ddl::service::ResilientClientConfig;
using ddl::service::ResilientScenarioClient;
using ddl::service::ScenarioClient;
using ddl::service::ScenarioServer;
using ddl::service::ServiceConfig;

/// A fast proposed-line scenario (~15 ms): long enough to be a real
/// closed-loop run, short enough that suites of them stay snappy.
/// `periods` also doubles as the pacing knob -- the scheduling tests
/// stretch it to hold workers busy deterministically.
ScenarioSpec quick_spec(const std::string& variant, std::uint64_t seed,
                        std::uint64_t periods = 900) {
  ScenarioSpec spec;
  spec.name = "svc/proposed/typical/" + variant;
  spec.family = "svc";
  spec.seed = seed;
  spec.load = LoadSpec::constant(0.4);
  spec.periods = periods;
  spec.measure_from = (periods * 2) / 3;
  spec.allow_limit_cycling = true;
  spec.tolerance_v = 0.05;
  return spec;
}

/// A supervised variant so the stream carries health frames too.
ScenarioSpec supervised_spec() {
  ScenarioSpec spec = quick_spec("supervised", 7);
  spec.tolerance_v = 0.06;
  spec.load = LoadSpec::constant(0.5);
  spec.supervision.enabled = true;
  spec.faults = {ddl::scenario::FaultSpec::delay_cell(31, 10.0, 400)};
  return spec;
}

std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("service_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

void spit(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

/// Byte offsets of a journal's record boundaries: 0, then the end of each
/// commit record (its result line, the one carrying a verdict).
std::vector<std::size_t> record_ends(const std::string& journal) {
  std::vector<std::size_t> ends{0};
  for (std::size_t start = 0, end = 0;
       (end = journal.find('\n', start)) != std::string::npos;
       start = end + 1) {
    const auto fields = ddl::analysis::parse_flat_json_line(
        journal.substr(start, end - start));
    if (fields && fields->count("verdict") != 0) {
      ends.push_back(end + 1);
    }
  }
  return ends;
}

/// Crash points of a journal: every record boundary and, inside each
/// record, its result line torn half way or -- when the record has health
/// lines -- one complete health line without its commit (the orphan
/// case), and the same with the next line torn half way.
std::vector<std::size_t> crash_cuts(const std::string& journal) {
  const std::vector<std::size_t> ends = record_ends(journal);
  std::vector<std::size_t> cuts = ends;
  for (std::size_t r = 0; r + 1 < ends.size(); ++r) {
    const std::size_t first_end = journal.find('\n', ends[r]) + 1;
    if (first_end == ends[r + 1]) {
      cuts.push_back(ends[r] + (ends[r + 1] - ends[r]) / 2);
      continue;
    }
    const std::size_t next_end = journal.find('\n', first_end) + 1;
    cuts.push_back(first_end);
    cuts.push_back(first_end + (next_end - first_end) / 2);
  }
  return cuts;
}

/// Every file of a directory, name -> bytes.
std::map<std::string, std::string> snapshot(const fs::path& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    files[entry.path().filename().string()] =
        ddl::scenario::read_file(entry.path().string());
  }
  return files;
}

ServiceConfig base_config() {
  ServiceConfig config;
  config.tcp_port = 0;  // Ephemeral.
  config.workers = 2;
  config.heartbeat_ms = 60'000;  // Out of the way unless a test wants it.
  return config;
}

ClientConfig client_for(const ScenarioServer& server, std::string name) {
  ClientConfig config;
  config.tcp_port = server.tcp_port();
  config.name = std::move(name);
  config.recv_timeout_ms = 30'000;  // A hung test fails, never wedges CI.
  return config;
}

/// Polls `done` every few milliseconds until it holds or the budget runs
/// out (the timeout tests watch server stats converge, not sleep blindly).
bool eventually(const std::function<bool()>& done,
                std::uint64_t budget_ms = 30'000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(budget_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (done()) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return done();
}

/// A bare loopback TCP connection: the adversarial tests drive the wire
/// by hand (half frames, silence) below anything ScenarioClient would do.
int raw_connect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Completes the hello handshake on a raw socket and discards the reply.
bool raw_hello(int fd, const std::string& name) {
  ddl::analysis::JsonObject hello = ddl::service::make_frame("hello");
  hello.set("protocol_version",
            static_cast<std::uint64_t>(ddl::service::kProtocolVersion));
  hello.set("client", name);
  const std::string wire =
      ddl::service::encode_frame(hello.to_json_line());
  if (!ddl::service::net::send_all(fd, wire.data(), wire.size())) {
    return false;
  }
  FrameReader reader;
  char chunk[512];
  for (;;) {
    const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
    if (got <= 0) {
      return false;
    }
    reader.feed(chunk, static_cast<std::size_t>(got));
    if (reader.next().has_value()) {
      return true;
    }
  }
}

/// Reads until the peer closes; returns everything received.
std::string drain_to_eof(int fd) {
  std::string bytes;
  char chunk[512];
  ssize_t got = 0;
  while ((got = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    bytes.append(chunk, static_cast<std::size_t>(got));
  }
  return bytes;
}

// ---- Frame codec ----------------------------------------------------------

TEST(FrameCodecTest, RoundTripsAcrossArbitraryFragmentation) {
  const std::vector<std::string> payloads = {
      R"({"frame":"hello","protocol_version":1})",
      "",  // Zero-length payload is a legal frame.
      R"({"frame":"result","row":"{\"name\":\"a/b\",\"pass\":true}"})",
  };
  std::string wire;
  for (const std::string& payload : payloads) {
    wire += ddl::service::encode_frame(payload);
  }
  // Feed one byte at a time: every length prefix and payload is split.
  FrameReader reader;
  std::vector<std::string> decoded;
  for (const char byte : wire) {
    reader.feed(&byte, 1);
    while (auto payload = reader.next()) {
      decoded.push_back(*payload);
    }
  }
  EXPECT_EQ(decoded, payloads);
  EXPECT_FALSE(reader.failed());
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(FrameCodecTest, OversizedLengthPrefixPoisonsTheReader) {
  FrameReader reader;
  // ~2 GiB length word plus an arbitrary checksum word: a full v2 header.
  const unsigned char bogus[8] = {0x7f, 0x00, 0x00, 0x00,
                                  0xde, 0xad, 0xbe, 0xef};
  reader.feed(reinterpret_cast<const char*>(bogus), sizeof(bogus));
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_TRUE(reader.failed());
  EXPECT_NE(reader.error().find("exceeds"), std::string::npos);
  // Poisoned for good: further bytes never resynchronize.
  reader.feed(reinterpret_cast<const char*>(bogus), sizeof(bogus));
  EXPECT_FALSE(reader.next().has_value());
}

TEST(FrameCodecTest, ChecksumMismatchPoisonsTheReader) {
  std::string wire = ddl::service::encode_frame(R"({"frame":"ping"})");
  wire.back() ^= 0x20;  // One flipped payload bit -- the fuzzer's move.
  FrameReader reader;
  reader.feed(wire.data(), wire.size());
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_TRUE(reader.failed());
  EXPECT_NE(reader.error().find("checksum"), std::string::npos);
  EXPECT_EQ(reader.frames_decoded(), 0u);
}

TEST(FrameCodecTest, PoisonAfterValidFramesIsPermanent) {
  const std::string good = ddl::service::encode_frame(R"({"frame":"a"})");
  FrameReader reader;
  reader.feed(good.data(), good.size());
  ASSERT_TRUE(reader.next().has_value());
  EXPECT_EQ(reader.frames_decoded(), 1u);

  // An oversize length interleaved into a healthy stream...
  const unsigned char bogus[8] = {0x7f, 0, 0, 0, 0, 0, 0, 0};
  reader.feed(reinterpret_cast<const char*>(bogus), sizeof(bogus));
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_TRUE(reader.failed());

  // ...stays fatal even when perfectly valid frames follow: framing is
  // lost, so resynchronizing would risk decoding attacker-chosen bytes.
  reader.feed(good.data(), good.size());
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_TRUE(reader.failed());
  EXPECT_EQ(reader.frames_decoded(), 1u);
}

TEST(FrameCodecTest, TruncatedFrameYieldsNothingUntilTheBytesArrive) {
  const std::string wire = ddl::service::encode_frame(R"({"frame":"ping"})");
  FrameReader reader;
  reader.feed(wire.data(), wire.size() - 5);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_FALSE(reader.failed());  // Incomplete, not corrupt.
  EXPECT_GT(reader.buffered(), 0u);
  EXPECT_EQ(reader.frames_decoded(), 0u);
  reader.feed(wire.data() + wire.size() - 5, 5);
  const auto payload = reader.next();
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, R"({"frame":"ping"})");
  EXPECT_EQ(reader.frames_decoded(), 1u);
}

// ---- net_util -------------------------------------------------------------

TEST(NetUtilTest, RetryEintrRetriesInterruptedCallsOnly) {
  int calls = 0;
  const long result = ddl::service::net::retry_eintr([&]() -> long {
    if (++calls < 3) {
      errno = EINTR;
      return -1;
    }
    return 42;
  });
  EXPECT_EQ(result, 42);
  EXPECT_EQ(calls, 3);

  // Any other errno passes through untouched on the first call.
  calls = 0;
  errno = 0;
  const long failed = ddl::service::net::retry_eintr([&]() -> long {
    ++calls;
    errno = EPIPE;
    return -1;
  });
  EXPECT_EQ(failed, -1);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(errno, EPIPE);
}

TEST(FrameCodecTest, RowStringsSurviveTheEscapeRoundTrip) {
  // The acceptance-critical property: a JSONL row carried as a frame's
  // string field comes back byte-identical.
  const std::string row =
      R"({"schema_version":2,"name":"a/b","verdict":"pass","vout":0.9375})";
  ddl::analysis::JsonObject frame = ddl::service::make_frame("result");
  frame.set("row", row);
  const auto fields =
      ddl::service::parse_frame_payload(frame.to_json_line());
  ASSERT_TRUE(fields.has_value());
  EXPECT_EQ(fields->at("row"), row);
}

// ---- Submit / stream round trip -------------------------------------------

TEST(ServiceTest, StreamedRowsAreByteIdenticalToTheRunner) {
  const std::vector<ScenarioSpec> specs = {
      quick_spec("a", 11), supervised_spec(), quick_spec("b", 12)};

  ServiceConfig config = base_config();
  config.state_dir = fresh_dir("roundtrip");
  ScenarioServer server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  ScenarioClient client(client_for(server, "alice"));
  ASSERT_TRUE(client.connect(&error)) << error;
  const auto submission = client.submit_specs("nightly", specs);
  ASSERT_TRUE(submission.accepted)
      << submission.error_code << ": " << submission.error_detail;
  EXPECT_FALSE(submission.resumed);
  EXPECT_EQ(submission.scenarios, specs.size());

  const auto outcome = client.wait(submission.job_id);
  ASSERT_TRUE(outcome.done)
      << outcome.error_code << ": " << outcome.error_detail;
  EXPECT_EQ(outcome.executed, specs.size());
  EXPECT_EQ(outcome.resumed, 0u);

  ScenarioRunner runner(2);
  const auto results = runner.run(specs);
  EXPECT_EQ(outcome.jsonl(), ScenarioRunner::jsonl(results));
  EXPECT_EQ(outcome.health_jsonl(), ScenarioRunner::health_jsonl(results));
  EXPECT_FALSE(outcome.health_jsonl().empty());

  client.bye();
  server.stop();
}

TEST(ServiceTest, UnixDomainSocketSpeaksTheSameProtocol) {
  const std::string dir = fresh_dir("unix");
  ServiceConfig config = base_config();
  config.enable_tcp = false;
  config.unix_path = dir + "/ddl.sock";
  ScenarioServer server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  EXPECT_EQ(server.tcp_port(), 0);

  ClientConfig client_config;
  client_config.unix_path = config.unix_path;
  client_config.name = "unix-client";
  client_config.recv_timeout_ms = 30'000;
  ScenarioClient client(client_config);
  ASSERT_TRUE(client.connect(&error)) << error;
  EXPECT_TRUE(client.ping());

  const std::vector<ScenarioSpec> specs = {quick_spec("u", 21)};
  const auto submission = client.submit_specs("unix-job", specs);
  ASSERT_TRUE(submission.accepted);
  const auto outcome = client.wait(submission.job_id);
  ASSERT_TRUE(outcome.done);
  EXPECT_EQ(outcome.jsonl(),
            ScenarioRunner::jsonl(ScenarioRunner(1).run(specs)));
  server.stop();
  EXPECT_FALSE(fs::exists(config.unix_path));  // Unlinked on shutdown.
}

TEST(ServiceTest, ResubmittingTheSameJobReplaysInsteadOfRerunning) {
  const std::vector<ScenarioSpec> specs = {quick_spec("r1", 31),
                                           quick_spec("r2", 32)};
  ServiceConfig config = base_config();
  config.state_dir = fresh_dir("replay");
  ScenarioServer server(config);
  ASSERT_TRUE(server.start());

  ScenarioClient first(client_for(server, "carol"));
  ASSERT_TRUE(first.connect());
  const auto sub1 = first.submit_specs("batch", specs);
  ASSERT_TRUE(sub1.accepted);
  const auto out1 = first.wait(sub1.job_id);
  ASSERT_TRUE(out1.done);
  first.bye();

  ScenarioClient second(client_for(server, "carol"));
  ASSERT_TRUE(second.connect());
  const auto sub2 = second.submit_specs("batch", specs);
  ASSERT_TRUE(sub2.accepted);
  EXPECT_TRUE(sub2.resumed);
  EXPECT_EQ(sub2.job_id, sub1.job_id);
  const auto out2 = second.wait(sub2.job_id);
  ASSERT_TRUE(out2.done);
  EXPECT_EQ(out2.jsonl(), out1.jsonl());

  // Nothing ran twice: the second submit was pure replay.
  EXPECT_EQ(server.stats().scenarios_executed, specs.size());
  server.stop();
}

// ---- Quotas and backpressure ----------------------------------------------

TEST(ServiceTest, QuotaExceededIsABackpressureFrameNotADisconnect) {
  ServiceConfig config = base_config();
  config.workers = 1;
  config.max_pending_jobs_per_client = 1;
  ScenarioServer server(config);
  ASSERT_TRUE(server.start());

  ScenarioClient client(client_for(server, "dave"));
  ASSERT_TRUE(client.connect());

  // Job A holds the quota: one long scenario on the only worker.
  const std::vector<ScenarioSpec> slow = {quick_spec("slow", 41, 20'000)};
  const auto sub_a = client.submit_specs("job-a", slow);
  ASSERT_TRUE(sub_a.accepted);

  // Job B trips the quota: explicit, retryable backpressure.
  const std::vector<ScenarioSpec> fast = {quick_spec("fast", 42)};
  const auto sub_b = client.submit_specs("job-b", fast);
  EXPECT_FALSE(sub_b.accepted);
  EXPECT_TRUE(sub_b.backpressure);
  EXPECT_GT(sub_b.retry_ms, 0u);
  EXPECT_EQ(server.stats().backpressure_frames, 1u);

  // The session survives the rejection...
  EXPECT_TRUE(client.ping());
  ASSERT_TRUE(client.wait(sub_a.job_id).done);

  // ...and the retry goes through once the quota frees up.
  const auto retry = client.submit_specs("job-b", fast);
  ASSERT_TRUE(retry.accepted);
  EXPECT_TRUE(client.wait(retry.job_id).done);
  server.stop();
}

TEST(ServiceTest, CoalescedBatchDispatchKeepsTheStreamByteIdentical) {
  // One worker and a deep quota hand the scheduler a queue of pending
  // MC-yield scenarios from the same job, which it must coalesce into
  // multi-entry dispatch units (stats().batched_units counts them); the
  // streamed rows must still match the one-shot runner byte for byte,
  // with the runtime-faulted rider taking the scalar path inside the
  // same job.
  auto specs = ddl::scenario::ScenarioRegistry::builtin().expand("yield");
  specs.push_back(supervised_spec());

  ServiceConfig config = base_config();
  config.workers = 1;
  config.max_inflight_per_client = 8;
  ScenarioServer server(config);
  ASSERT_TRUE(server.start());

  ScenarioClient client(client_for(server, "batcher"));
  ASSERT_TRUE(client.connect());
  const auto submit = client.submit_specs("yield", specs);
  ASSERT_TRUE(submit.accepted);
  const auto outcome = client.wait(submit.job_id);
  ASSERT_TRUE(outcome.done);

  const auto reference = ScenarioRunner(1).run(specs);
  EXPECT_EQ(outcome.jsonl(), ScenarioRunner::jsonl(reference));
  EXPECT_EQ(outcome.health_jsonl(), ScenarioRunner::health_jsonl(reference));
  EXPECT_EQ(server.stats().scenarios_executed, specs.size());
  EXPECT_GT(server.stats().batched_units, 0u);
  server.stop();
}

TEST(ServiceTest, SchedulingIsFairRoundRobinAcrossClients) {
  ServiceConfig config = base_config();
  config.workers = 1;
  config.max_inflight_per_client = 1;
  config.record_dispatch_log = true;
  ScenarioServer server(config);
  ASSERT_TRUE(server.start());

  // A plug occupies the single worker (~400 ms) while the three measured
  // clients queue their jobs, so the dispatch order past the plug is a
  // pure function of the round-robin scheduler -- no submit-timing races.
  ScenarioClient plug(client_for(server, "plug"));
  ASSERT_TRUE(plug.connect());
  const auto plug_sub =
      plug.submit_specs("plug", {quick_spec("plug", 51, 20'000)});
  ASSERT_TRUE(plug_sub.accepted);

  std::vector<std::unique_ptr<ScenarioClient>> clients;
  std::vector<ScenarioClient::Submission> subs;
  for (const std::string name : {"c1", "c2", "c3"}) {
    auto client = std::make_unique<ScenarioClient>(client_for(server, name));
    ASSERT_TRUE(client->connect());
    std::vector<ScenarioSpec> specs;
    for (int i = 0; i < 3; ++i) {
      specs.push_back(
          quick_spec(name + "-" + std::to_string(i), 60 + i));
    }
    subs.push_back(client->submit_specs("fair", specs));
    ASSERT_TRUE(subs.back().accepted);
    clients.push_back(std::move(client));
  }
  ASSERT_TRUE(plug.wait(plug_sub.job_id).done);
  for (std::size_t i = 0; i < clients.size(); ++i) {
    ASSERT_TRUE(clients[i]->wait(subs[i].job_id).done);
  }

  const auto log = server.dispatch_log();
  ASSERT_EQ(log.size(), 10u);  // 1 plug + 3 clients x 3 scenarios.
  EXPECT_EQ(log[0], "plug");
  // Past the plug, every rotation serves all three clients exactly once.
  for (std::size_t i = 1; i + 2 < log.size(); i += 3) {
    const std::set<std::string> window(log.begin() + i, log.begin() + i + 3);
    EXPECT_EQ(window, (std::set<std::string>{"c1", "c2", "c3"}))
        << "rotation starting at dispatch " << i;
  }
  server.stop();
}

// ---- Disconnects and restarts ---------------------------------------------

TEST(ServiceTest, MidStreamDisconnectLeavesTheJobRunningAsAnOrphan) {
  const std::vector<ScenarioSpec> specs = {
      quick_spec("d1", 71, 4'000), quick_spec("d2", 72, 4'000),
      quick_spec("d3", 73, 4'000)};
  ServiceConfig config = base_config();
  config.state_dir = fresh_dir("disconnect");
  ScenarioServer server(config);
  ASSERT_TRUE(server.start());

  {
    ScenarioClient client(client_for(server, "erin"));
    ASSERT_TRUE(client.connect());
    const auto submission = client.submit_specs("orphaned", specs);
    ASSERT_TRUE(submission.accepted);
    client.close();  // Vanish mid-stream, no bye.
  }

  // The job keeps executing with no session attached and completes.
  ASSERT_TRUE(server.wait_all_jobs_done(60'000));
  EXPECT_EQ(server.stats().scenarios_executed, specs.size());

  // A reconnecting client replays the full stream byte-exactly.
  ScenarioClient client(client_for(server, "erin"));
  ASSERT_TRUE(client.connect());
  const auto submission = client.submit_specs("orphaned", specs);
  ASSERT_TRUE(submission.accepted);
  EXPECT_TRUE(submission.resumed);
  const auto outcome = client.wait(submission.job_id);
  ASSERT_TRUE(outcome.done);
  EXPECT_EQ(outcome.jsonl(),
            ScenarioRunner::jsonl(ScenarioRunner(1).run(specs)));
  EXPECT_EQ(server.stats().scenarios_executed, specs.size());
  server.stop();
}

TEST(ServiceTest, RestartResumesTheJournalWithoutRerunningAnything) {
  const std::string state_dir = fresh_dir("restart");
  std::vector<ScenarioSpec> specs;
  for (int i = 0; i < 4; ++i) {
    specs.push_back(quick_spec("res-" + std::to_string(i), 80 + i, 6'000));
  }

  std::size_t executed_before = 0;
  {
    ServiceConfig config = base_config();
    config.state_dir = state_dir;
    config.workers = 1;
    // One scenario in flight at a time: a deeper quota would coalesce the
    // job's closed-loop specs into one lane stream that a stop finishes
    // whole.
    config.max_inflight_per_client = 1;
    ScenarioServer server(config);
    ASSERT_TRUE(server.start());
    ScenarioClient client(client_for(server, "frank"));
    ASSERT_TRUE(client.connect());
    ASSERT_TRUE(client.submit_specs("long-haul", specs).accepted);
    // Let at least one scenario commit, then stop gracefully mid-job:
    // in-flight work finishes and journals, the rest stays pending.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (server.stats().scenarios_executed < 1 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    server.stop();
    executed_before = server.stats().scenarios_executed;
    ASSERT_GE(executed_before, 1u);
    ASSERT_LT(executed_before, specs.size());  // Stopped mid-job.
  }

  ServiceConfig config = base_config();
  config.state_dir = state_dir;
  ScenarioServer server(config);
  ASSERT_TRUE(server.start());
  EXPECT_EQ(server.stats().jobs_recovered, 1u);
  EXPECT_EQ(server.stats().scenarios_resumed, executed_before);
  // The orphan finishes without any client attached...
  ASSERT_TRUE(server.wait_all_jobs_done(60'000));
  // ...running only what the first server never committed.
  EXPECT_EQ(server.stats().scenarios_executed,
            specs.size() - executed_before);

  // And the reassembled stream is byte-identical to an uninterrupted run.
  ScenarioClient client(client_for(server, "frank"));
  ASSERT_TRUE(client.connect());
  const auto submission = client.submit_specs("long-haul", specs);
  ASSERT_TRUE(submission.accepted);
  EXPECT_TRUE(submission.resumed);
  const auto outcome = client.wait(submission.job_id);
  ASSERT_TRUE(outcome.done);
  EXPECT_EQ(outcome.executed + outcome.resumed, specs.size());
  EXPECT_EQ(outcome.jsonl(),
            ScenarioRunner::jsonl(ScenarioRunner(1).run(specs)));
  server.stop();
}

/// Runs `specs` as one job of a fresh server on `state_dir` to completion
/// and returns the job id (its directory is `state_dir/jobs/<id>`).
std::string run_job_to_completion(const std::string& state_dir,
                                  const std::vector<ScenarioSpec>& specs) {
  ServiceConfig config = base_config();
  config.state_dir = state_dir;
  ScenarioServer server(config);
  EXPECT_TRUE(server.start());
  ScenarioClient client(client_for(server, "cutter"));
  EXPECT_TRUE(client.connect());
  const auto submission = client.submit_specs("cuts", specs);
  EXPECT_TRUE(submission.accepted) << submission.error_detail;
  EXPECT_TRUE(client.wait(submission.job_id).done);
  server.stop();
  return submission.job_id;
}

TEST(ServiceTest, EveryJournalCutRestartsToTheRunnerStreams) {
  // The campaign crash-point property, for the daemon: a job directory
  // whose journal was cut at a record boundary, after some of a record's
  // health lines, or torn mid-line recovers through two restarts, and
  // each resubmission streams what ScenarioRunner(1) emits.
  auto specs = ddl::scenario::ScenarioRegistry::builtin().expand("recovery");
  specs.push_back(quick_spec("lane-a", 41));
  specs.push_back(quick_spec("lane-b", 42));
  const auto reference = ScenarioRunner(1).run(specs);
  const std::string golden = ScenarioRunner::jsonl(reference);
  const std::string golden_health = ScenarioRunner::health_jsonl(reference);

  const std::string full_state = fresh_dir("cut_full");
  const std::string job_id = run_job_to_completion(full_state, specs);
  const fs::path full_dir = fs::path(full_state) / "jobs" / job_id;
  const std::string journal =
      ddl::scenario::read_file((full_dir / "journal.jsonl").string());

  const std::vector<std::size_t> cuts = crash_cuts(journal);
  for (const std::size_t cut : cuts) {
    const std::string state = fresh_dir("cut");
    const fs::path dir = fs::path(state) / "jobs" / job_id;
    fs::create_directories(dir);
    for (const auto& entry : fs::directory_iterator(full_dir)) {
      fs::copy_file(entry.path(), dir / entry.path().filename());
    }
    spit((dir / "journal.jsonl").string(), journal.substr(0, cut));
    for (int restart = 1; restart <= 2; ++restart) {
      const std::string where = "cut at byte " + std::to_string(cut) +
                                ", restart " + std::to_string(restart);
      ServiceConfig config = base_config();
      config.state_dir = state;
      ScenarioServer server(config);
      ASSERT_TRUE(server.start()) << where;
      EXPECT_EQ(server.stats().jobs_recovered, 1u) << where;
      ASSERT_TRUE(server.wait_all_jobs_done(60'000)) << where;
      ScenarioClient client(client_for(server, "cutter"));
      ASSERT_TRUE(client.connect()) << where;
      const auto submission = client.submit_specs("cuts", specs);
      ASSERT_TRUE(submission.accepted) << where;
      EXPECT_TRUE(submission.resumed) << where;
      const auto outcome = client.wait(submission.job_id);
      ASSERT_TRUE(outcome.done) << where;
      EXPECT_EQ(outcome.jsonl(), golden) << where;
      EXPECT_EQ(outcome.health_jsonl(), golden_health) << where;
      server.stop();
    }
  }
}

TEST(ServiceTest, FormatTwoJournalsAreRefusedAndLeftOnDisk) {
  // A format-2 job directory: result lines in journal.jsonl, health lines
  // in health_journal.jsonl, a manifest without a journal format.
  const std::vector<ScenarioSpec> specs = {quick_spec("v2-a", 11),
                                           supervised_spec()};
  const std::string state = fresh_dir("format2");
  const fs::path dir =
      fs::path(state) / "jobs" / run_job_to_completion(state, specs);
  std::string results;
  std::string health;
  {
    std::istringstream in(
        ddl::scenario::read_file((dir / "journal.jsonl").string()));
    for (std::string line; std::getline(in, line);) {
      (line.find("\"verdict\"") != std::string::npos ? results : health) +=
          line + "\n";
    }
  }
  ASSERT_FALSE(health.empty());
  spit((dir / "journal.jsonl").string(), results);
  spit((dir / "health_journal.jsonl").string(), health);
  spit((dir / "manifest.json").string(),
       "{\n  \"schema_version\": 2,\n  \"campaign\": "
       "\"scenario_campaign\",\n  \"scenarios\": 2,\n  \"spec_hash\": \"" +
           ddl::scenario::fingerprint_of(specs) +
           "\",\n  \"completed\": 2\n}\n");
  const auto before = snapshot(dir);

  // A campaign resume refuses it and names the format.
  ddl::scenario::CampaignConfig campaign;
  campaign.journal_dir = dir.string();
  campaign.resume = true;
  try {
    ddl::scenario::Campaign(campaign).run(specs);
    ADD_FAILURE() << "a format-2 journal must not resume";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("format-2"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(snapshot(dir), before);

  // Daemon recovery skips the directory and leaves it as it was.
  ServiceConfig config = base_config();
  config.state_dir = state;
  ScenarioServer server(config);
  ASSERT_TRUE(server.start());
  EXPECT_EQ(server.stats().jobs_recovered, 0u);

  // Resubmitting that job is refused with a final error frame (one submit,
  // no retry) instead of re-creating the job over the kept directory.
  ResilientClientConfig resilient;
  resilient.base = client_for(server, "cutter");
  ResilientScenarioClient client(resilient);
  const auto outcome = client.run_specs("cuts", specs);
  EXPECT_FALSE(outcome.done);
  EXPECT_EQ(outcome.error_code, "job_unrecoverable") << outcome.error_detail;
  EXPECT_EQ(client.reconnects(), 0u);
  EXPECT_EQ(client.resubmits(), 0u);
  EXPECT_EQ(server.stats().jobs_accepted, 0u);
  EXPECT_EQ(server.stats().error_frames, 1u);
  EXPECT_EQ(snapshot(dir), before);
  server.stop();
  EXPECT_EQ(snapshot(dir), before);
}

TEST(ServiceTest, AJobDirectoryCutShortBeforeItsManifestIsStartedOver) {
  // create_job writes specs.jsonl, job.json and then the journal manifest,
  // and only then sends `accepted`.  A daemon killed (or an io_error) in
  // between leaves a directory recovery skips.  The client was never told
  // `accepted`, so its resubmit is accepted and runs, not refused.
  const std::vector<ScenarioSpec> specs = {quick_spec("cut-a", 21),
                                           supervised_spec()};
  const auto reference = ScenarioRunner(1).run(specs);
  const std::string full_state = fresh_dir("partial_full");
  const std::string job_id = run_job_to_completion(full_state, specs);
  const fs::path full_dir = fs::path(full_state) / "jobs" / job_id;
  const std::vector<std::vector<std::string>> leftovers = {
      {}, {"specs.jsonl"}, {"specs.jsonl", "job.json"}};
  for (const std::vector<std::string>& files : leftovers) {
    const std::string where = std::to_string(files.size()) + " files left";
    const std::string state = fresh_dir("partial");
    const fs::path dir = fs::path(state) / "jobs" / job_id;
    fs::create_directories(dir);
    for (const std::string& file : files) {
      fs::copy_file(full_dir / file, dir / file);
    }
    ServiceConfig config = base_config();
    config.state_dir = state;
    ScenarioServer server(config);
    ASSERT_TRUE(server.start()) << where;
    EXPECT_EQ(server.stats().jobs_recovered, 0u) << where;
    ResilientClientConfig resilient;
    resilient.base = client_for(server, "cutter");
    ResilientScenarioClient client(resilient);
    const auto outcome = client.run_specs("cuts", specs);
    ASSERT_TRUE(outcome.done) << where << ": " << outcome.error_code << " "
                              << outcome.error_detail;
    EXPECT_EQ(outcome.jsonl(), ScenarioRunner::jsonl(reference)) << where;
    EXPECT_EQ(outcome.health_jsonl(), ScenarioRunner::health_jsonl(reference))
        << where;
    EXPECT_EQ(server.stats().jobs_accepted, 1u) << where;
    server.stop();
  }
}

// ---- Error paths ----------------------------------------------------------

TEST(ServiceTest, MalformedSubmissionsGetStructuredErrorFrames) {
  ScenarioServer server(base_config());
  ASSERT_TRUE(server.start());
  ScenarioClient client(client_for(server, "mallory"));
  ASSERT_TRUE(client.connect());

  // Wrong-typed field inside a flattened spec.
  ddl::analysis::JsonObject bad_spec = ddl::service::make_frame("submit");
  bad_spec.set("job", "bad");
  bad_spec.set("spec_count", std::uint64_t{1});
  bad_spec.set("spec.0.name", "svc/x");
  bad_spec.set("spec.0.periods", "four-thousand");
  auto submission = client.submit_frame(bad_spec, "bad");
  EXPECT_FALSE(submission.accepted);
  EXPECT_EQ(submission.error_code, "invalid_spec");
  EXPECT_NE(submission.error_detail.find("spec.0.periods"),
            std::string::npos);

  // Unknown suite.
  submission = client.submit_suite("bad2", "no-such-suite");
  EXPECT_EQ(submission.error_code, "unknown_suite");

  // submit with neither suite nor specs.
  ddl::analysis::JsonObject empty = ddl::service::make_frame("submit");
  empty.set("job", "bad3");
  submission = client.submit_frame(empty, "bad3");
  EXPECT_EQ(submission.error_code, "invalid_submit");

  // A payload that is not JSON at all.
  ASSERT_TRUE(client.send_payload("certainly not json"));
  auto frame = client.next_frame();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->at("frame"), "error");
  EXPECT_EQ(frame->at("code"), "bad_frame");

  // An unknown frame type.
  ASSERT_TRUE(client.send_payload(
      ddl::service::make_frame("launch_missiles").to_json_line()));
  frame = client.next_frame();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->at("code"), "unknown_frame");

  // None of it cost the connection.
  EXPECT_TRUE(client.ping());
  EXPECT_GE(server.stats().error_frames, 4u);
  server.stop();
}

TEST(ServiceTest, ProtocolVersionMismatchIsRejectedExplicitly) {
  ScenarioServer server(base_config());
  ASSERT_TRUE(server.start());

  ClientConfig config = client_for(server, "old-client");
  ScenarioClient client(config);
  // Drive the handshake by hand with a wrong version.
  std::string error;
  ASSERT_TRUE(client.connect(&error)) << error;  // Good handshake first.
  ddl::analysis::JsonObject stale = ddl::service::make_frame("hello");
  stale.set("protocol_version", 999);
  stale.set("client", "old-client");
  ASSERT_TRUE(client.send_payload(stale.to_json_line()));
  const auto reply = client.next_frame();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->at("frame"), "error");
  EXPECT_EQ(reply->at("code"), "protocol_mismatch");
  server.stop();
}

TEST(ServiceTest, HeartbeatsFlowOnAnIdleConnection) {
  ServiceConfig config = base_config();
  config.heartbeat_ms = 50;
  ScenarioServer server(config);
  ASSERT_TRUE(server.start());
  ScenarioClient client(client_for(server, "idle"));
  ASSERT_TRUE(client.connect());
  const auto frame = client.next_frame();  // Blocks until the beat.
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->at("frame"), "heartbeat");
  server.stop();
}

// ---- Cancel ---------------------------------------------------------------

TEST(ServiceTest, CancelTearsDownCooperativelyAndSurvivesRestart) {
  const std::string state_dir = fresh_dir("cancel");
  std::vector<ScenarioSpec> specs;
  for (int i = 0; i < 4; ++i) {
    specs.push_back(quick_spec("cx" + std::to_string(i), 90 + i, 20'000));
  }

  {
    ServiceConfig config = base_config();
    config.state_dir = state_dir;
    config.workers = 1;
    // One scenario in flight at a time: a deeper quota would coalesce the
    // job's closed-loop specs into one lane stream that runs to the end
    // once claimed.
    config.max_inflight_per_client = 1;
    ScenarioServer server(config);
    ASSERT_TRUE(server.start());
    ScenarioClient client(client_for(server, "grace"));
    ASSERT_TRUE(client.connect());
    const auto submission = client.submit_specs("doomed", specs);
    ASSERT_TRUE(submission.accepted);

    // Cancel once real work is in flight: the claimed scenario must
    // finish and journal (cooperative), the queued ones must never run.
    ASSERT_TRUE(eventually(
        [&] { return server.stats().scenarios_executed >= 1; }));
    ASSERT_TRUE(client.cancel("doomed"));
    const auto outcome = client.wait(submission.job_id);
    EXPECT_TRUE(outcome.cancelled)
        << outcome.error_code << ": " << outcome.error_detail;
    EXPECT_FALSE(outcome.done);
    EXPECT_EQ(server.stats().jobs_cancelled, 1u);
    const std::size_t executed = server.stats().scenarios_executed;
    EXPECT_GE(executed, 1u);
    EXPECT_LT(executed, specs.size());

    // Cancelling again is idempotent: the terminal frame, not an error.
    ASSERT_TRUE(client.cancel("doomed"));
    const auto again = client.next_frame();
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->at("frame"), "cancelled");
    client.bye();
    server.stop();
  }

  // Restart: the cancelled job is recovered for replay but scheduled
  // never -- a restart reschedules nothing that was cancelled.
  ServiceConfig config = base_config();
  config.state_dir = state_dir;
  config.workers = 1;
  ScenarioServer server(config);
  ASSERT_TRUE(server.start());
  EXPECT_EQ(server.stats().jobs_recovered, 1u);
  ASSERT_TRUE(server.wait_all_jobs_done(5'000));  // Nothing is active.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(server.stats().scenarios_executed, 0u);

  // Resubmission attaches, replays the committed rows, and reports the
  // job's terminal state as cancelled rather than silently rerunning it.
  ScenarioClient client(client_for(server, "grace"));
  ASSERT_TRUE(client.connect());
  const auto resubmission = client.submit_specs("doomed", specs);
  ASSERT_TRUE(resubmission.accepted);
  EXPECT_TRUE(resubmission.resumed);
  const auto replayed = client.wait(resubmission.job_id);
  EXPECT_TRUE(replayed.cancelled);
  EXPECT_FALSE(replayed.done);
  EXPECT_EQ(server.stats().scenarios_executed, 0u);
  server.stop();
}

TEST(ServiceTest, CancellingAnUnknownOrFinishedJobIsAStructuredError) {
  ScenarioServer server(base_config());
  ASSERT_TRUE(server.start());
  ScenarioClient client(client_for(server, "judy"));
  ASSERT_TRUE(client.connect());

  ASSERT_TRUE(client.cancel("never-submitted"));
  auto frame = client.next_frame();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->at("frame"), "error");
  EXPECT_EQ(frame->at("code"), "unknown_job");

  const auto submission =
      client.submit_specs("quick", {quick_spec("cq", 99)});
  ASSERT_TRUE(submission.accepted);
  ASSERT_TRUE(client.wait(submission.job_id).done);
  ASSERT_TRUE(client.cancel("quick"));
  frame = client.next_frame();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->at("frame"), "error");
  EXPECT_EQ(frame->at("code"), "already_done");

  EXPECT_TRUE(client.ping());  // Neither error cost the connection.
  server.stop();
}

// ---- Sandbox crash containment --------------------------------------------

TEST(ServiceTest, WorkerCrashBecomesAStructuredRowAndTheDaemonSurvives) {
  ScenarioSpec crash = quick_spec("crash", 77);
  crash.debug_crash = "segv";
  const std::vector<ScenarioSpec> specs = {quick_spec("pre", 71), crash,
                                           quick_spec("post", 72)};

  ScenarioServer server(base_config());
  ASSERT_TRUE(server.start());
  ScenarioClient client(client_for(server, "ivan"));
  ASSERT_TRUE(client.connect());
  const auto submission = client.submit_specs("crashy", specs);
  ASSERT_TRUE(submission.accepted)
      << submission.error_code << ": " << submission.error_detail;

  // The job completes: the crashing scenario is a structured error row,
  // not a dead daemon or a lost job.
  const auto outcome = client.wait(submission.job_id);
  ASSERT_TRUE(outcome.done)
      << outcome.error_code << ": " << outcome.error_detail;
  EXPECT_EQ(outcome.executed, specs.size());
  EXPECT_NE(outcome.jsonl().find("\"error_kind\": \"crash\""),
            std::string::npos);
  EXPECT_NE(outcome.jsonl().find("sandbox worker killed by SIGSEGV"),
            std::string::npos);

  const auto stats = server.stats();
  EXPECT_EQ(stats.sandbox_crashes, 1u);
  EXPECT_GE(stats.workers_respawned, 1u);

  // The daemon still serves: a follow-up job runs clean on the respawned
  // worker.
  const auto after = client.submit_specs("after", {quick_spec("clean", 73)});
  ASSERT_TRUE(after.accepted);
  EXPECT_TRUE(client.wait(after.job_id).done);
  client.bye();
  server.stop();
}

TEST(ServiceTest, CancelKillsTheInFlightSandboxWorker) {
  // One deliberately slow scenario (~tens of seconds cooperatively): a
  // cancel must kill the sandbox worker's process group and tear the job
  // down in far less than that, with no row executed or journaled.
  const std::vector<ScenarioSpec> specs = {quick_spec("slow", 81, 2'000'000)};
  ServiceConfig config = base_config();
  config.workers = 1;
  config.record_dispatch_log = true;
  ScenarioServer server(config);
  ASSERT_TRUE(server.start());
  ScenarioClient client(client_for(server, "kate"));
  ASSERT_TRUE(client.connect());
  const auto submission = client.submit_specs("slow", specs);
  ASSERT_TRUE(submission.accepted);

  // Wait until the scenario is claimed by the worker (dispatch-logged),
  // then cancel while it is genuinely in flight.
  ASSERT_TRUE(eventually([&] { return !server.dispatch_log().empty(); }));
  ASSERT_TRUE(client.cancel("slow"));
  const auto outcome = client.wait(submission.job_id);
  EXPECT_TRUE(outcome.cancelled)
      << outcome.error_code << ": " << outcome.error_detail;
  EXPECT_FALSE(outcome.done);
  // Killed, not cooperatively finished: nothing completed.
  EXPECT_EQ(server.stats().scenarios_executed, 0u);
  EXPECT_EQ(server.stats().jobs_cancelled, 1u);

  // The worker respawns for the next job.
  const auto after = client.submit_specs("after", {quick_spec("next", 82)});
  ASSERT_TRUE(after.accepted);
  EXPECT_TRUE(client.wait(after.job_id).done);
  client.bye();
  server.stop();
}

// ---- Replay bundles -------------------------------------------------------

TEST(ServiceTest, ReplayBundleJobsReportReproduction) {
  ScenarioServer server(base_config());
  ASSERT_TRUE(server.start());
  ScenarioClient client(client_for(server, "heidi"));
  ASSERT_TRUE(client.connect());

  ddl::scenario::ReplayBundle bundle;
  bundle.spec = quick_spec("replayed", 97);
  bundle.expected_failure_reason = "";  // Expecting a pass...
  auto submission = client.submit_replay("repro-pass", bundle);
  ASSERT_TRUE(submission.accepted)
      << submission.error_code << ": " << submission.error_detail;
  EXPECT_EQ(submission.scenarios, 1u);
  auto outcome = client.wait(submission.job_id);
  ASSERT_TRUE(outcome.done);
  EXPECT_TRUE(outcome.replay);
  EXPECT_TRUE(outcome.reproduced);  // ...and the pass reproduced.

  // The same spec expecting a failure it does not produce: the job runs
  // to done, but the bundle's verdict did not reproduce.
  bundle.expected_failure_reason = "no_lock";
  submission = client.submit_replay("repro-miss", bundle);
  ASSERT_TRUE(submission.accepted);
  outcome = client.wait(submission.job_id);
  ASSERT_TRUE(outcome.done);
  EXPECT_TRUE(outcome.replay);
  EXPECT_FALSE(outcome.reproduced);
  EXPECT_EQ(server.stats().replay_jobs, 2u);
  server.stop();
}

// ---- Liveness timeouts and adversarial budgets ----------------------------

TEST(ServiceTest, DeadPeerTimeoutReapsSilentSessions) {
  ServiceConfig config = base_config();
  config.dead_peer_timeout_ms = 100;
  ScenarioServer server(config);
  ASSERT_TRUE(server.start());

  const int fd = raw_connect(server.tcp_port());
  ASSERT_GE(fd, 0);
  // Never says hello, never pings: reaped with a structured goodbye.
  ASSERT_TRUE(eventually(
      [&] { return server.stats().sessions_timed_out >= 1; }));
  const std::string bytes = drain_to_eof(fd);
  EXPECT_NE(bytes.find("dead_peer"), std::string::npos);
  ::close(fd);
  server.stop();
}

TEST(ServiceTest, ClientHeartbeatsKeepALongWaitAlive) {
  ServiceConfig config = base_config();
  config.workers = 1;
  config.dead_peer_timeout_ms = 300;
  ScenarioServer server(config);
  ASSERT_TRUE(server.start());

  ClientConfig client_config = client_for(server, "ivan");
  client_config.heartbeat_ms = 50;
  ScenarioClient client(client_config);
  ASSERT_TRUE(client.connect());
  // ~800 ms of worker time on the one worker: far past the dead-peer
  // window, so only the client's pings keep the blocked wait() alive.
  const std::vector<ScenarioSpec> specs = {quick_spec("hb1", 55, 20'000),
                                           quick_spec("hb2", 56, 20'000)};
  const auto submission = client.submit_specs("patient", specs);
  ASSERT_TRUE(submission.accepted);
  const auto outcome = client.wait(submission.job_id);
  ASSERT_TRUE(outcome.done)
      << outcome.error_code << ": " << outcome.error_detail;
  EXPECT_EQ(server.stats().sessions_timed_out, 0u);
  server.stop();
}

TEST(ServiceTest, PartialFrameTimeoutDefeatsSlowloris) {
  ServiceConfig config = base_config();
  config.partial_frame_timeout_ms = 100;
  ScenarioServer server(config);
  ASSERT_TRUE(server.start());

  const int fd = raw_connect(server.tcp_port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(raw_hello(fd, "slow"));
  // Three bytes of a header, then silence: the classic slowloris hold.
  const char partial[3] = {0, 0, 0};
  ASSERT_TRUE(ddl::service::net::send_all(fd, partial, sizeof(partial)));
  ASSERT_TRUE(eventually(
      [&] { return server.stats().sessions_timed_out >= 1; }));
  const std::string bytes = drain_to_eof(fd);
  EXPECT_NE(bytes.find("partial_frame_timeout"), std::string::npos);
  ::close(fd);
  server.stop();
}

TEST(ServiceTest, AbortedMidSubmitCreatesNoJob) {
  ServiceConfig config = base_config();
  config.state_dir = fresh_dir("abort");
  ScenarioServer server(config);
  ASSERT_TRUE(server.start());

  const int fd = raw_connect(server.tcp_port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(raw_hello(fd, "killed"));
  // Half a submit frame, then an abortive close (RST) -- the wire-level
  // shape of a client killed -9 mid-write.
  ddl::analysis::JsonObject submit = ddl::service::make_frame("submit");
  submit.set("job", "never-lands");
  submit.set("spec_count", std::uint64_t{1});
  submit.set("spec.0.name", "svc/cut/short");
  const std::string wire =
      ddl::service::encode_frame(submit.to_json_line());
  ASSERT_TRUE(
      ddl::service::net::send_all(fd, wire.data(), wire.size() / 2));
  struct linger hard_close = {1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard_close, sizeof(hard_close));
  ::close(fd);

  // The half frame dies with the session: no job, no crash, full service
  // for the next client.
  ASSERT_TRUE(
      eventually([&] { return server.stats().sessions_closed >= 1; }));
  EXPECT_EQ(server.stats().jobs_accepted, 0u);
  ScenarioClient client(client_for(server, "after"));
  ASSERT_TRUE(client.connect());
  const auto submission =
      client.submit_specs("fine", {quick_spec("ok", 58)});
  ASSERT_TRUE(submission.accepted);
  EXPECT_TRUE(client.wait(submission.job_id).done);
  EXPECT_EQ(server.stats().jobs_accepted, 1u);
  server.stop();
}

TEST(ServiceTest, FrameFloodIsServedUnderPerTickBudgets) {
  ServiceConfig config = base_config();
  config.max_frames_per_tick = 2;  // Tiny budget: force deferred drains.
  ScenarioServer server(config);
  ASSERT_TRUE(server.start());
  ScenarioClient client(client_for(server, "flood"));
  ASSERT_TRUE(client.connect());

  // Blast a burst far over the per-tick budget; fairness slicing may
  // defer frames across ticks but must never drop or reorder them.
  constexpr int kPings = 32;
  for (int i = 0; i < kPings; ++i) {
    ddl::analysis::JsonObject ping = ddl::service::make_frame("ping");
    ping.set("nonce", "n" + std::to_string(i));
    ASSERT_TRUE(client.send_payload(ping.to_json_line()));
  }
  int pongs = 0;
  while (pongs < kPings) {
    const auto frame = client.next_frame();
    ASSERT_TRUE(frame.has_value()) << "after " << pongs << " pongs";
    if (frame->at("frame") == "pong") {
      pongs++;
    }
  }
  EXPECT_EQ(pongs, kPings);
  server.stop();
}

// ---- Chaos storms ---------------------------------------------------------

// The acceptance contract of the whole harness: seeded storms through the
// chaos proxy -- resets, truncation, fuzzing, trickle, stalls -- and the
// resilient client still converges to a campaign JSONL byte-identical to
// a direct one-shot runner invocation.  (CI runs 20+ seeds against the
// real daemon through ddl_chaos_proxy; this in-process version keeps a
// handful in every ctest run.)
TEST(ChaosStormTest, SeededStormsConvergeByteIdenticalToTheRunner) {
  const std::vector<ScenarioSpec> specs = {
      quick_spec("storm-a", 91), supervised_spec(), quick_spec("storm-b", 92)};
  const auto golden_results = ScenarioRunner(2).run(specs);
  const std::string golden = ScenarioRunner::jsonl(golden_results);

  std::size_t faults_total = 0;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ServiceConfig config = base_config();
    config.state_dir = fresh_dir("storm" + std::to_string(seed));
    config.partial_frame_timeout_ms = 1'000;  // Bound fuzz-extended reads.
    ScenarioServer server(config);
    ASSERT_TRUE(server.start());

    ChaosProxyConfig proxy_config;
    proxy_config.upstream_port = server.tcp_port();
    proxy_config.seed = seed;
    // Hot enough that most storms meet several faults, cool enough that
    // an attempt still has even odds: a full submit + stream round trip
    // crosses ~15 chunk-sized fault decision points, so the per-chunk
    // fault probability compounds fast.
    proxy_config.p_reset_permille = 10;
    proxy_config.p_truncate_permille = 10;
    proxy_config.p_fuzz_permille = 15;
    proxy_config.p_duplicate_permille = 10;
    proxy_config.p_trickle_permille = 5;
    proxy_config.p_stall_permille = 10;
    proxy_config.stall_ms = 40;
    proxy_config.chunk_bytes = 1024;  // More fault decision points.
    ChaosProxy proxy(proxy_config);
    std::string error;
    ASSERT_TRUE(proxy.start(&error)) << error;

    ResilientClientConfig resilient;
    resilient.base.tcp_port = proxy.listen_port();
    resilient.base.name = "stormrider";
    resilient.base.recv_timeout_ms = 2'000;  // Storms wedge; budgets free.
    resilient.base.heartbeat_ms = 200;
    resilient.max_attempts = 64;
    resilient.initial_backoff_ms = 5;
    resilient.max_backoff_ms = 50;
    ResilientScenarioClient client(resilient);

    const auto outcome = client.run_specs("storm-job", specs);
    ASSERT_TRUE(outcome.done)
        << outcome.error_code << ": " << outcome.error_detail
        << " (reconnects=" << client.reconnects() << ")";
    EXPECT_EQ(outcome.jsonl(), golden);
    EXPECT_EQ(outcome.health_jsonl(),
              ScenarioRunner::health_jsonl(golden_results));

    faults_total += proxy.stats().faults();
    proxy.stop();
    server.stop();
  }
  // Five seeded storms at these rates inject faults with near certainty;
  // zero would mean the proxy stopped attacking, not that we got lucky.
  EXPECT_GT(faults_total, 0u);
}

TEST(ChaosStormTest, CleanProxyIsAnInvisiblePassthrough) {
  const std::vector<ScenarioSpec> specs = {quick_spec("clean", 96)};
  ScenarioServer server(base_config());
  ASSERT_TRUE(server.start());

  ChaosProxyConfig proxy_config;
  proxy_config.upstream_port = server.tcp_port();
  proxy_config.p_reset_permille = 0;
  proxy_config.p_truncate_permille = 0;
  proxy_config.p_fuzz_permille = 0;
  proxy_config.p_duplicate_permille = 0;
  proxy_config.p_trickle_permille = 0;
  proxy_config.p_stall_permille = 0;
  proxy_config.p_split_permille = 0;
  ChaosProxy proxy(proxy_config);
  ASSERT_TRUE(proxy.start());

  ResilientClientConfig resilient;
  resilient.base.tcp_port = proxy.listen_port();
  resilient.base.name = "calm";
  resilient.base.recv_timeout_ms = 30'000;
  ResilientScenarioClient client(resilient);
  const auto outcome = client.run_specs("calm-job", specs);
  ASSERT_TRUE(outcome.done)
      << outcome.error_code << ": " << outcome.error_detail;
  EXPECT_EQ(outcome.jsonl(),
            ScenarioRunner::jsonl(ScenarioRunner(1).run(specs)));
  EXPECT_EQ(client.reconnects(), 0u);
  EXPECT_EQ(proxy.stats().faults(), 0u);
  EXPECT_GT(proxy.stats().forwarded_bytes, 0u);
  proxy.stop();
  server.stop();
}

}  // namespace

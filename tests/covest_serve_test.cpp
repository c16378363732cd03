// Integration tests for covest_serve, the long-lived NDJSON coverage
// server: wire parity with covest_batch (including under concurrent
// clients), the event-driven reply path (no lost wake-ups, pipelined
// bursts, connection churn), the warm model cache (byte-identical
// repeats that skip elaborate/verify), the /metrics surface, governance
// statuses over the wire, malformed/oversize input robustness,
// connection-cap admission and the SIGTERM drain contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cli_harness.h"
#include "engine/json.h"

namespace covest {
namespace {

#if defined(COVEST_SERVE_PATH) && defined(COVEST_BATCH_TOOL_PATH) && \
    defined(COVEST_SOURCE_DIR)

using testutil::RunOutcome;
using testutil::ServerProcess;
using testutil::TcpClient;
using testutil::model_path;
using testutil::run_shell;
using testutil::split_lines;

/// A JSON request line for one of the checked-in example models
/// (absolute path — the server resolves relative paths against *its*
/// cwd, which is not the test's).
std::string request_line(const char* name) {
  return "{\"model_path\": \"" + model_path(name) + "\"}";
}

/// What covest_batch (serial, default options) prints for `lines` on
/// stdin — the byte-level contract every server reply is held to.
std::vector<std::string> batch_lines(const std::vector<std::string>& lines) {
  const std::string path = ::testing::TempDir() + "covest_serve_requests.txt";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  for (const std::string& l : lines) out << l << "\n";
  out.close();
  const RunOutcome r = run_shell(std::string(COVEST_BATCH_TOOL_PATH) + " < " +
                                 path + " 2>/dev/null");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  return split_lines(r.output);
}

const engine::json::Value* find(const engine::json::Value& v,
                                const std::string& key) {
  if (v.type != engine::json::Value::Type::kObject) return nullptr;
  for (const auto& kv : v.object) {
    if (kv.first == key) return &kv.second;
  }
  return nullptr;
}

/// Numeric member at `path` (ADD_FAILURE + -1 when absent).
double num_at(const engine::json::Value& root,
              const std::vector<std::string>& path) {
  const engine::json::Value* v = &root;
  for (const std::string& key : path) {
    v = find(*v, key);
    if (v == nullptr) {
      ADD_FAILURE() << "missing JSON member '" << key << "'";
      return -1.0;
    }
  }
  return v->number;
}

// --------------------------------------------------------------------------
// Wire parity
// --------------------------------------------------------------------------

TEST(CovestServeTest, FourConcurrentClientsMatchSerialBatchByteForByte) {
  const std::vector<std::string> requests = {
      request_line("counter.cov"), request_line("arbiter.cov"),
      request_line("handshake.cov"), request_line("shift.cov"),
      request_line("traffic.cov")};
  const std::vector<std::string> expected = batch_lines(requests);
  ASSERT_EQ(expected.size(), requests.size());

  ServerProcess server;
  ASSERT_TRUE(server.start(COVEST_SERVE_PATH, {"--port", "0", "--jobs", "4"}));

  constexpr int kClients = 4;
  std::vector<std::vector<std::string>> replies(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      TcpClient client;
      if (!client.connect_to(server.port())) return;
      for (const std::string& r : requests) client.send_line(r);
      client.shutdown_write();
      for (std::size_t i = 0; i < requests.size(); ++i) {
        replies[c].push_back(client.recv_line());
      }
    });
  }
  for (std::thread& t : clients) t.join();

  // Every client sees the full serial-batch stream, in its own submit
  // order, byte for byte — concurrency and the shared cache must not
  // leak into the payload.
  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(replies[c].size(), expected.size()) << "client " << c;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(replies[c][i], expected[i]) << "client " << c << " line " << i;
    }
  }

  server.signal(SIGTERM);
  EXPECT_EQ(server.wait(), 0);
}

// --------------------------------------------------------------------------
// Event-driven reply path
// --------------------------------------------------------------------------
//
// A reply leaves when its job finishes: the connection's reader polls the
// dispatcher's readiness eventfd, with no timeout. A lost wake-up
// therefore hangs a reply rather than delaying it, and every recv below
// carries a 5-s bound that turns such a hang into a failure.

TEST(CovestServeTest, SequentialRoundTripsNeverLoseAWakeUp) {
  const std::string request = request_line("counter.cov");
  const std::vector<std::string> expected = batch_lines({request});
  ASSERT_EQ(expected.size(), 1u);

  ServerProcess server;
  ASSERT_TRUE(server.start(COVEST_SERVE_PATH, {"--port", "0", "--jobs", "2"}));
  TcpClient client;
  ASSERT_TRUE(client.connect_to(server.port()));
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(client.send_line(request));
    ASSERT_EQ(client.recv_line(5'000), expected[0]) << "round trip " << i;
    if (i % 100 == 0) {
      // An input-error line has no job, so nothing signals the readiness
      // fd: the reader must flush it right after reading it.
      ASSERT_TRUE(client.send_line("{\"op\": \"nope\"}"));
      const std::string error = client.recv_line(5'000);
      EXPECT_NE(error.find("unknown op 'nope'"), std::string::npos) << error;
    }
  }

  server.signal(SIGTERM);
  EXPECT_EQ(server.wait(), 1);  // The unknown-op lines are errors.
}

TEST(CovestServeTest, PipelinedBurstRepliesInOrderAndMatchesBatch) {
  // Three windows' worth (window = 2 x jobs) in one send: the reader
  // blocks on the oldest job whenever the window is full, and the rest
  // stream out as their jobs finish.
  const char* models[] = {"counter.cov", "arbiter.cov", "handshake.cov",
                          "shift.cov", "traffic.cov"};
  constexpr int kWindow = 2 * 2;  // 2 x --jobs.
  std::vector<std::string> requests;
  for (int i = 0; i < 3 * kWindow; ++i) {
    requests.push_back(request_line(models[i % 5]));
  }
  const std::vector<std::string> expected = batch_lines(requests);
  ASSERT_EQ(expected.size(), requests.size());

  ServerProcess server;
  ASSERT_TRUE(server.start(COVEST_SERVE_PATH, {"--port", "0", "--jobs", "2"}));
  TcpClient client;
  ASSERT_TRUE(client.connect_to(server.port()));
  std::string burst;
  for (const std::string& r : requests) burst += r + "\n";
  ASSERT_TRUE(client.send_raw(burst));
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(client.recv_line(5'000), expected[i]) << "line " << i;
  }

  server.signal(SIGTERM);
  EXPECT_EQ(server.wait(), 0);
}

TEST(CovestServeTest, ConnectionChurnNeverCorruptsAPersistentClient) {
  // Each churned connection leaves a job running after its socket (and
  // its dispatcher) is gone. The job's readiness write must land in that
  // dispatcher's still-open eventfd, never in a descriptor number the
  // kernel has since handed to another socket: stray bytes in the
  // persistent client's stream would break its byte-exact replies.
  const std::string request = request_line("counter.cov");
  const std::string churn_request = request_line("arbiter.cov");
  const std::vector<std::string> expected = batch_lines({request});
  ASSERT_EQ(expected.size(), 1u);

  ServerProcess server;
  ASSERT_TRUE(server.start(COVEST_SERVE_PATH, {"--port", "0", "--jobs", "2"}));

  std::atomic<bool> churning{true};
  std::atomic<int> round_trips{0};
  std::thread persistent([&] {
    TcpClient client;
    if (!client.connect_to(server.port())) {
      ADD_FAILURE() << "persistent client could not connect";
      return;
    }
    while (churning.load() || round_trips.load() < 50) {
      if (!client.send_line(request)) {
        ADD_FAILURE() << "send failed after " << round_trips.load();
        return;
      }
      const std::string reply = client.recv_line(5'000);
      if (reply != expected[0]) {
        ADD_FAILURE() << "round trip " << round_trips.load() << ": " << reply;
        return;
      }
      ++round_trips;
    }
  });
  for (int i = 0; i < 100; ++i) {
    TcpClient rude;
    ASSERT_TRUE(rude.connect_to(server.port()));
    ASSERT_TRUE(rude.send_line(churn_request));
    rude.close();  // Before the reply.
  }
  churning.store(false);
  persistent.join();
  EXPECT_GE(round_trips.load(), 50);

  // Still serviceable afterwards, on a fresh connection too.
  TcpClient after;
  ASSERT_TRUE(after.connect_to(server.port()));
  ASSERT_TRUE(after.send_line(request));
  EXPECT_EQ(after.recv_line(5'000), expected[0]);

  server.signal(SIGTERM);
  EXPECT_EQ(server.wait(), 0);
}

TEST(CovestServeTest, ConnectBurstsNeverWaitForASynRetransmit) {
  // The accept loop starts a thread per connection, so back-to-back
  // connects can outrun it. With a short accept queue the kernel drops
  // the overflowing SYN and connect() returns a second later; a
  // SOMAXCONN backlog absorbs the burst.
  ServerProcess server;
  ASSERT_TRUE(server.start(COVEST_SERVE_PATH, {"--port", "0", "--jobs", "1"}));
  double worst_ms = 0.0;
  for (int round = 0; round < 5; ++round) {
    std::vector<std::unique_ptr<TcpClient>> clients;
    for (int i = 0; i < 100; ++i) {
      clients.push_back(std::make_unique<TcpClient>());
      const auto start = std::chrono::steady_clock::now();
      ASSERT_TRUE(clients.back()->connect_to(server.port()));
      worst_ms = std::max(
          worst_ms, std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count());
    }
  }
  EXPECT_LT(worst_ms, 500.0);
  server.signal(SIGTERM);
  EXPECT_EQ(server.wait(), 0);
}

// --------------------------------------------------------------------------
// Warm model cache
// --------------------------------------------------------------------------

TEST(CovestServeTest, WarmRepeatIsByteIdenticalToColdAcrossConnections) {
  ServerProcess server;
  ASSERT_TRUE(server.start(COVEST_SERVE_PATH, {"--port", "0", "--jobs", "2"}));

  TcpClient a;
  ASSERT_TRUE(a.connect_to(server.port()));
  ASSERT_TRUE(a.send_line(request_line("counter.cov")));
  const std::string cold = a.recv_line();
  ASSERT_TRUE(a.send_line(request_line("counter.cov")));
  const std::string warm = a.recv_line();
  ASSERT_FALSE(cold.empty());
  EXPECT_EQ(cold, warm);

  // The cache is shared across connections, not per-connection.
  TcpClient b;
  ASSERT_TRUE(b.connect_to(server.port()));
  ASSERT_TRUE(b.send_line(request_line("counter.cov")));
  EXPECT_EQ(b.recv_line(), cold);

  server.signal(SIGTERM);
  EXPECT_EQ(server.wait(), 0);
}

TEST(CovestServeTest, WarmRepeatSkipsElaborateAndVerifyPhases) {
  // --stats exposes PhaseStats over the wire: a cold suite elaborates
  // and verifies once (passes == 1), a warm repeat leases the parked
  // session and replays the verified-suite record (passes == 0) — the
  // acceptance assertion that repeats skip parse/elaborate/verify.
  ServerProcess server;
  ASSERT_TRUE(server.start(COVEST_SERVE_PATH,
                           {"--port", "0", "--jobs", "1", "--stats"}));

  TcpClient client;
  ASSERT_TRUE(client.connect_to(server.port()));
  ASSERT_TRUE(client.send_line(request_line("counter.cov")));
  const engine::json::Value cold = engine::json::parse(client.recv_line());
  ASSERT_TRUE(client.send_line(request_line("counter.cov")));
  const engine::json::Value warm = engine::json::parse(client.recv_line());

  EXPECT_EQ(num_at(cold, {"stats", "elaborate", "passes"}), 1.0);
  EXPECT_EQ(num_at(cold, {"stats", "verify", "passes"}), 1.0);
  EXPECT_EQ(num_at(warm, {"stats", "elaborate", "passes"}), 0.0);
  EXPECT_EQ(num_at(warm, {"stats", "verify", "passes"}), 0.0);
  // The front end's share of elaborate: the cold model parse and CTL
  // pass, 0 on the warm hit.
  EXPECT_GT(num_at(cold, {"stats", "elaborate", "parse_ms"}), 0.0);
  EXPECT_EQ(num_at(warm, {"stats", "elaborate", "parse_ms"}), 0.0);
  // Estimation always runs — that's the per-request half of the split.
  EXPECT_EQ(num_at(cold, {"stats", "estimate", "passes"}), 1.0);
  EXPECT_EQ(num_at(warm, {"stats", "estimate", "passes"}), 1.0);

  server.signal(SIGTERM);
  EXPECT_EQ(server.wait(), 0);
}

// --------------------------------------------------------------------------
// Metrics
// --------------------------------------------------------------------------

TEST(CovestServeTest, MetricsLinesAreImmediateMonotonicAndConsistent) {
  ServerProcess server;
  ASSERT_TRUE(server.start(COVEST_SERVE_PATH, {"--port", "0", "--jobs", "2"}));

  TcpClient client;
  ASSERT_TRUE(client.connect_to(server.port()));

  ASSERT_TRUE(client.send_line("{\"op\": \"metrics\"}"));
  const engine::json::Value m0 = engine::json::parse(client.recv_line());
  EXPECT_EQ(num_at(m0, {"metrics", "suites", "total"}), 0.0);
  EXPECT_EQ(num_at(m0, {"metrics", "cache", "misses"}), 0.0);
  EXPECT_GE(num_at(m0, {"metrics", "connections", "active"}), 1.0);

  ASSERT_TRUE(client.send_line(request_line("counter.cov")));
  ASSERT_FALSE(client.recv_line().empty());
  ASSERT_TRUE(client.send_line("{\"op\": \"metrics\"}"));
  const std::string raw1 = client.recv_line();
  const engine::json::Value m1 = engine::json::parse(raw1);
  EXPECT_EQ(num_at(m1, {"metrics", "suites", "total"}), 1.0);
  EXPECT_EQ(num_at(m1, {"metrics", "suites", "ok"}), 1.0);
  EXPECT_EQ(num_at(m1, {"metrics", "cache", "misses"}), 1.0);
  EXPECT_EQ(num_at(m1, {"metrics", "cache", "hits"}), 0.0);
  EXPECT_EQ(num_at(m1, {"metrics", "cache", "entries"}), 1.0);
  EXPECT_EQ(num_at(m1, {"metrics", "queue_depth"}), 0.0);
  EXPECT_GT(num_at(m1, {"metrics", "suites", "per_sec"}), 0.0);
  EXPECT_GT(num_at(m1, {"metrics", "cache", "live_nodes"}), 0.0);

  // Format contract on the raw wire bytes: uptime_ms is a plain
  // integer — a default-precision ostringstream used to flip it into
  // scientific notation ("1.00735e+06") once the server had been up
  // ~16.7 minutes, breaking naive metric scrapers — and the rates are
  // fixed-point, never exponent-form.
  const auto field_text = [&raw1](const char* name) {
    const std::string tag = std::string("\"") + name + "\":";
    const std::size_t at = raw1.find(tag);
    EXPECT_NE(at, std::string::npos) << name << " missing in " << raw1;
    if (at == std::string::npos) return std::string();
    std::size_t end = at + tag.size();
    while (end < raw1.size() && raw1[end] != ',' && raw1[end] != '}') ++end;
    return raw1.substr(at + tag.size(), end - (at + tag.size()));
  };
  const std::string uptime_text = field_text("uptime_ms");
  EXPECT_EQ(uptime_text.find_first_not_of("0123456789"), std::string::npos)
      << "uptime_ms not a plain integer: " << uptime_text;
  const std::string per_sec_text = field_text("per_sec");
  EXPECT_EQ(per_sec_text.find_first_of("eE+"), std::string::npos)
      << "per_sec not fixed-point: " << per_sec_text;

  ASSERT_TRUE(client.send_line(request_line("counter.cov")));
  ASSERT_FALSE(client.recv_line().empty());
  ASSERT_TRUE(client.send_line("{\"op\": \"metrics\"}"));
  const engine::json::Value m2 = engine::json::parse(client.recv_line());
  EXPECT_EQ(num_at(m2, {"metrics", "suites", "total"}), 2.0);
  EXPECT_EQ(num_at(m2, {"metrics", "suites", "ok"}), 2.0);
  EXPECT_EQ(num_at(m2, {"metrics", "cache", "hits"}), 1.0);
  EXPECT_EQ(num_at(m2, {"metrics", "cache", "misses"}), 1.0);
  EXPECT_GE(num_at(m2, {"metrics", "uptime_ms"}),
            num_at(m1, {"metrics", "uptime_ms"}));

  server.signal(SIGTERM);
  EXPECT_EQ(server.wait(), 0);
}

// --------------------------------------------------------------------------
// Governance statuses over the wire
// --------------------------------------------------------------------------

TEST(CovestServeTest, InjectedDeadlineStatusTravelsTheWire) {
  ServerProcess server;
  ASSERT_TRUE(server.start(COVEST_SERVE_PATH, {"--port", "0", "--jobs", "1"},
                           "COVEST_SERVE_FAULT=deadline:1"));

  TcpClient client;
  ASSERT_TRUE(client.connect_to(server.port()));
  ASSERT_TRUE(client.send_line(request_line("counter.cov")));
  const std::string line = client.recv_line();
  EXPECT_NE(line.find("\"status\":\"deadline_exceeded\""), std::string::npos)
      << line;
  client.close();

  // A resource-limited suite makes the batch-compatible exit code 3.
  server.signal(SIGTERM);
  EXPECT_EQ(server.wait(), 3);
}

TEST(CovestServeTest, NodeBudgetDefaultAppliesAndARequestOverridesIt) {
  // Server flags are defaults, not clamps: --max-nodes 8 exhausts any
  // real model, but a request carrying its own max_live_nodes wins.
  ServerProcess server;
  ASSERT_TRUE(server.start(COVEST_SERVE_PATH,
                           {"--port", "0", "--jobs", "1", "--max-nodes", "8"}));

  TcpClient client;
  ASSERT_TRUE(client.connect_to(server.port()));
  ASSERT_TRUE(client.send_line(request_line("counter.cov")));
  const std::string limited = client.recv_line();
  EXPECT_NE(limited.find("\"status\":\"resource_exhausted\""),
            std::string::npos)
      << limited;

  ASSERT_TRUE(client.send_line("{\"model_path\": \"" +
                               model_path("counter.cov") +
                               "\", \"max_live_nodes\": 100000000}"));
  const std::string generous = client.recv_line();
  EXPECT_EQ(generous.find("\"status\":"), std::string::npos) << generous;
  EXPECT_NE(generous.find("\"all_passed\":true"), std::string::npos)
      << generous;

  server.signal(SIGTERM);
  EXPECT_EQ(server.wait(), 3);
}

// --------------------------------------------------------------------------
// Input robustness
// --------------------------------------------------------------------------

TEST(CovestServeTest, MalformedLinesGetOneErrorLineEachAndTheStreamLivesOn) {
  ServerProcess server;
  ASSERT_TRUE(server.start(COVEST_SERVE_PATH, {"--port", "0", "--jobs", "1"}));

  TcpClient client;
  ASSERT_TRUE(client.connect_to(server.port()));
  ASSERT_TRUE(client.send_line("garbage that is not json"));
  ASSERT_TRUE(client.send_line("{\"model_path\": "));  // Truncated JSON.
  ASSERT_TRUE(client.send_line(request_line("counter.cov")));

  const std::string not_json = client.recv_line();
  EXPECT_NE(not_json.find("\"status\":\"error\""), std::string::npos)
      << not_json;
  EXPECT_NE(not_json.find("must be JSON requests"), std::string::npos)
      << not_json;
  const std::string truncated = client.recv_line();
  EXPECT_NE(truncated.find("\"status\":\"error\""), std::string::npos)
      << truncated;
  const std::string ok = client.recv_line();
  EXPECT_NE(ok.find("\"all_passed\":true"), std::string::npos) << ok;
  EXPECT_FALSE(client.eof());

  server.signal(SIGTERM);
  EXPECT_EQ(server.wait(), 1);  // The error lines count against exit 0.
}

TEST(CovestServeTest, SyntaxPastTheDepthBoundIsOneErrorLine) {
  // A property nested 100,000 levels deep used to overflow a worker's
  // stack and take the shared server down; the corpus reproduction
  // (tests/golden/fuzz/bad_job) now gets one error line, and the same
  // connection is served on.
  ServerProcess server;
  ASSERT_TRUE(server.start(COVEST_SERVE_PATH, {"--port", "0", "--jobs", "1"}));
  std::ifstream in(std::string(COVEST_SOURCE_DIR) +
                       "/tests/golden/fuzz/bad_job/deep_negation_ctl.json",
                   std::ios::binary);
  std::string deep;
  ASSERT_TRUE(std::getline(in, deep));

  TcpClient client;
  ASSERT_TRUE(client.connect_to(server.port()));
  ASSERT_TRUE(client.send_line(deep));
  ASSERT_TRUE(client.send_line(request_line("counter.cov")));
  const std::string refused = client.recv_line();
  EXPECT_NE(refused.find("\"status\":\"error\""), std::string::npos)
      << refused.substr(0, 200);
  EXPECT_NE(refused.find("nested deeper than 256 levels"), std::string::npos)
      << refused.substr(0, 200);
  const std::string ok = client.recv_line();
  EXPECT_NE(ok.find("\"all_passed\":true"), std::string::npos) << ok;
  EXPECT_FALSE(client.eof());

  server.signal(SIGTERM);
  EXPECT_EQ(server.wait(), 1);  // The error line counts against exit 0.
}

TEST(CovestServeTest, OversizeLineIsRejectedImmediatelyAndTheStreamResyncs) {
  ServerProcess server;
  ASSERT_TRUE(server.start(
      COVEST_SERVE_PATH,
      {"--port", "0", "--jobs", "1", "--max-line-bytes", "128"}));

  TcpClient client;
  ASSERT_TRUE(client.connect_to(server.port()));
  // The rejection must not wait for the newline — it fires as soon as
  // the cap is crossed, so a client streaming an unbounded line gets
  // told off while still sending.
  ASSERT_TRUE(client.send_raw(std::string(512, 'x')));
  const std::string rejected = client.recv_line();
  EXPECT_NE(rejected.find("\"status\":\"admission_rejected\""),
            std::string::npos)
      << rejected;
  EXPECT_NE(rejected.find("max_line_bytes"), std::string::npos) << rejected;

  // Terminate the oversize line; the stream resyncs and serves again.
  ASSERT_TRUE(client.send_raw("\n"));
  ASSERT_TRUE(client.send_line(request_line("counter.cov")));
  const std::string ok = client.recv_line();
  EXPECT_NE(ok.find("\"all_passed\":true"), std::string::npos) << ok;

  server.signal(SIGTERM);
  EXPECT_EQ(server.wait(), 3);  // admission_rejected is a limit status.
}

TEST(CovestServeTest, MidSuiteDisconnectLeavesTheServerServiceable) {
  ServerProcess server;
  ASSERT_TRUE(server.start(COVEST_SERVE_PATH, {"--port", "0", "--jobs", "1"}));

  {
    TcpClient rude;
    ASSERT_TRUE(rude.connect_to(server.port()));
    ASSERT_TRUE(rude.send_line(request_line("arbiter.cov")));
    rude.close();  // Gone before the result line can be written.
  }

  TcpClient polite;
  ASSERT_TRUE(polite.connect_to(server.port()));
  ASSERT_TRUE(polite.send_line(request_line("counter.cov")));
  const std::string ok = polite.recv_line();
  EXPECT_NE(ok.find("\"all_passed\":true"), std::string::npos) << ok;

  server.signal(SIGTERM);
  EXPECT_EQ(server.wait(), 0);
}

// --------------------------------------------------------------------------
// Connection-cap admission
// --------------------------------------------------------------------------

TEST(CovestServeTest, ConnectionCapRejectsTheExcessConnectionWithOneLine) {
  ServerProcess server;
  ASSERT_TRUE(server.start(
      COVEST_SERVE_PATH,
      {"--port", "0", "--jobs", "1", "--max-connections", "1"}));

  TcpClient held;
  ASSERT_TRUE(held.connect_to(server.port()));
  ASSERT_TRUE(held.send_line("{\"op\": \"metrics\"}"));
  ASSERT_FALSE(held.recv_line().empty());  // Registered for sure.

  TcpClient excess;
  ASSERT_TRUE(excess.connect_to(server.port()));
  const std::string rejected = excess.recv_line();
  EXPECT_NE(rejected.find("\"status\":\"admission_rejected\""),
            std::string::npos)
      << rejected;
  EXPECT_NE(rejected.find("max_connections"), std::string::npos) << rejected;
  EXPECT_TRUE(excess.recv_line().empty());  // One line, then close.
  EXPECT_TRUE(excess.eof());

  // The held connection is untouched by the rejection...
  ASSERT_TRUE(held.send_line(request_line("counter.cov")));
  EXPECT_NE(held.recv_line().find("\"all_passed\":true"), std::string::npos);
  held.close();

  // ...and its slot frees up for a later client.
  bool reconnected = false;
  for (int attempt = 0; attempt < 50 && !reconnected; ++attempt) {
    TcpClient later;
    if (later.connect_to(server.port()) &&
        later.send_line("{\"op\": \"metrics\"}")) {
      const std::string line = later.recv_line(2'000);
      reconnected = line.find("\"metrics\":") != std::string::npos;
    }
    if (!reconnected) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }
  EXPECT_TRUE(reconnected);

  server.signal(SIGTERM);
  EXPECT_EQ(server.wait(), 3);  // The rejection is a limit status.
}

// --------------------------------------------------------------------------
// Drain on SIGTERM
// --------------------------------------------------------------------------

TEST(CovestServeTest, SigtermDrainsPendingResultLinesThenExitsClean) {
  const std::vector<std::string> requests = {request_line("counter.cov"),
                                             request_line("arbiter.cov"),
                                             request_line("traffic.cov")};
  const std::vector<std::string> expected = batch_lines(requests);
  ASSERT_EQ(expected.size(), requests.size());

  ServerProcess server;
  ASSERT_TRUE(server.start(COVEST_SERVE_PATH, {"--port", "0", "--jobs", "1"}));

  TcpClient client;
  ASSERT_TRUE(client.connect_to(server.port()));
  for (const std::string& r : requests) ASSERT_TRUE(client.send_line(r));
  // The metrics reply proves the reader consumed all three requests —
  // shutdown stops *reading*, never the flushing of submitted work.
  // Result lines the bounded window already flushed may arrive first
  // (metrics replies are out-of-band), so collect until the metrics
  // line shows up.
  ASSERT_TRUE(client.send_line("{\"op\": \"metrics\"}"));
  std::vector<std::string> results;
  for (;;) {
    const std::string line = client.recv_line();
    ASSERT_FALSE(line.empty()) << "connection dropped before metrics reply";
    if (line.find("\"metrics\":") != std::string::npos) break;
    results.push_back(line);
  }

  server.signal(SIGTERM);
  for (std::string line = client.recv_line(); !line.empty();
       line = client.recv_line()) {
    results.push_back(line);
  }
  EXPECT_TRUE(client.eof());  // Drained, then closed.
  ASSERT_EQ(results.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(results[i], expected[i]) << "line " << i;
  }
  EXPECT_EQ(server.wait(), 0);
}

TEST(CovestServeTest, RemovedShardsFlagIsUnknown) {
  // The server rejects the retired sharding flag like covest_batch does:
  // a usage error before it binds anything.
  const RunOutcome r = run_shell(std::string(COVEST_SERVE_PATH) +
                                 " --port 0 --shards 2 2>&1");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown option '--shards'"), std::string::npos)
      << r.output;
}

TEST(CovestServeTest, RemovedImageStrategyFlagIsUnknown) {
  const RunOutcome r = run_shell(std::string(COVEST_SERVE_PATH) +
                                 " --port 0 --image-strategy chaining 2>&1");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown option '--image-strategy'"),
            std::string::npos)
      << r.output;
}

TEST(CovestServeTest, RemovedGcSiftFlagIsUnknown) {
  // The server never reorders a parked session's variables.
  const RunOutcome r = run_shell(std::string(COVEST_SERVE_PATH) +
                                 " --port 0 --gc-sift 2>&1");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown option '--gc-sift'"), std::string::npos)
      << r.output;
}

TEST(CovestServeTest, RemovedGcIntervalFlagIsUnknown) {
  // Parked sessions need no server-side maintenance window: every BDD
  // manager collects by itself once its pool outgrows its live set.
  const RunOutcome r = run_shell(std::string(COVEST_SERVE_PATH) +
                                 " --port 0 --gc-interval 3 2>&1");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown option '--gc-interval'"),
            std::string::npos)
      << r.output;
}

#else
TEST(CovestServeTest, DISABLED_BinaryPathsNotConfigured) {}
#endif

}  // namespace
}  // namespace covest

// whatif_local: the interactive design loop. Warm what-if requests (BAG
// halved / s_max raised to 1518, alternating) over loopback TCP into an
// in-process serve::Server with two workers, holding the warm baseline of
// a 1,000-VL, 24-switch network. Every request edits one VL whose dirty
// cone is at most 15 % of the paths.
//
// Three phases, all load from one client thread:
//   open loop    a fixed request rate (kOpenLoopRate) on two connections;
//                latency is timed from each request's due time;
//   closed loop  two connections, one request outstanding on each
//                (saturation throughput);
//   closed loop  one connection (serial request rate).
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>

#include "common/rng.hpp"
#include "engine/incremental.hpp"
#include "engine/session.hpp"
#include "gen/industrial.hpp"
#include "harness.hpp"
#include "obs/counters.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"

namespace afdx::perfbench {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Open-loop request rate: about half the capacity of the two workers.
constexpr double kOpenLoopRate = 100.0;
/// Requests the open loop sends at full scale: p99 then has ten beyond it.
constexpr std::size_t kOpenLoopRequests = 1000;
constexpr double kMaxConeFraction = 0.15;
constexpr int kServerWorkers = 2;
/// Admission queue: room for 0.6 s of open-loop arrivals, so a stall of
/// the shared host delays requests instead of refusing them.
constexpr std::size_t kQueueCapacity = 64;
/// Length of one closed-loop segment; the two closed loops alternate.
constexpr double kSegmentSeconds = 0.5;
/// Requests whose responses are checked against cold runs.
constexpr std::size_t kCheckedRequests = 16;

gen::IndustrialOptions network(const Context& ctx) {
  gen::IndustrialOptions o;
  o.seed = ctx.net_seed;
  o.switch_count = ctx.small ? 16 : 24;
  o.end_system_count = ctx.small ? 120 : 180;
  o.vl_count = ctx.small ? 400 : 1000;
  o.multicast_fraction = 0.1;
  o.max_multicast_fanout = 2;
  return o;
}

/// VLs whose what-if cone -- the paths crossing any port downstream of a
/// port the VL crosses -- holds at most `max_fraction` of all paths.
std::vector<VlId> local_vls(const TrafficConfig& cfg, double max_fraction) {
  const std::size_t n_links = cfg.network().link_count();
  std::vector<std::vector<LinkId>> next(n_links);
  for (LinkId port = 0; port < n_links; ++port) {
    for (const VlId v : cfg.vls_on_link(port)) {
      const LinkId pred = cfg.route(v).predecessor(port);
      if (pred != kInvalidLink) next[pred].push_back(port);
    }
  }
  const auto limit = static_cast<std::size_t>(
      max_fraction * static_cast<double>(cfg.all_paths().size()));
  std::vector<VlId> out;
  std::vector<char> dirty(n_links);
  for (VlId v = 0; v < cfg.vl_count(); ++v) {
    std::fill(dirty.begin(), dirty.end(), 0);
    std::vector<LinkId> stack(cfg.route(v).crossed_links().begin(),
                              cfg.route(v).crossed_links().end());
    for (const LinkId l : stack) dirty[l] = 1;
    while (!stack.empty()) {
      const LinkId p = stack.back();
      stack.pop_back();
      for (const LinkId s : next[p]) {
        if (!dirty[s]) {
          dirty[s] = 1;
          stack.push_back(s);
        }
      }
    }
    std::size_t cone = 0;
    for (const VlPath& path : cfg.all_paths()) {
      if (std::any_of(path.links.begin(), path.links.end(),
                      [&](LinkId l) { return dirty[l] != 0; })) {
        ++cone;
      }
    }
    if (cone <= limit) out.push_back(v);
  }
  return out;
}

/// The seeded request stream: request k edits VL picks[k % size].
class Requests {
 public:
  Requests(const TrafficConfig& cfg, std::vector<VlId> local, std::uint64_t seed)
      : cfg_(cfg) {
    Rng rng(seed ^ 0x5eedULL);
    picks_.resize(8192);
    for (VlId& v : picks_) {
      v = local[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(local.size()) - 1))];
    }
  }

  [[nodiscard]] engine::VlOverride edit(std::size_t k) const {
    const VirtualLink& vl = cfg_.vl(picks_[k % picks_.size()]);
    engine::VlOverride o;
    o.vl = vl.name;
    if (k % 2 == 0) {
      o.bag = vl.bag / 2.0;
    } else {
      o.s_max = kMaxEthernetFrame;
    }
    return o;
  }

  /// Request line k (id k + 1); limit 0 keeps the service's default.
  [[nodiscard]] std::string line(std::size_t k, std::size_t limit = 0) const {
    const engine::VlOverride o = edit(k);
    char value[64];
    if (o.bag) {
      std::snprintf(value, sizeof(value), "\"bag_us\":%.17g", *o.bag);
    } else {
      std::snprintf(value, sizeof(value), "\"s_max_bytes\":%u",
                    static_cast<unsigned>(*o.s_max));
    }
    std::string s = "{\"id\":" + std::to_string(k + 1) +
                    ",\"op\":\"whatif\",\"set\":[{\"vl\":\"" + o.vl + "\"," +
                    value + "}]";
    if (limit > 0) s += ",\"limit\":" + std::to_string(limit);
    return s + "}";
  }

 private:
  const TrafficConfig& cfg_;
  std::vector<VlId> picks_;
};

/// One loopback TCP connection to the server.
class Connection {
 public:
  explicit Connection(std::uint16_t port) : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      throw std::runtime_error("connect() to the benchmark server failed");
    }
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  [[nodiscard]] int fd() const noexcept { return fd_; }

  void send_line(std::string line) {
    line += '\n';
    std::size_t off = 0;
    while (off < line.size()) {
      const ssize_t n = ::send(fd_, line.data() + off, line.size() - off, MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("send() to the benchmark server failed");
      off += static_cast<std::size_t>(n);
    }
  }

  /// Reads what is available and appends every complete line.
  void read_lines(std::vector<std::string>& lines) {
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) throw std::runtime_error("benchmark server closed the connection");
    buffer_.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl; (nl = buffer_.find('\n', start)) != std::string::npos;
         start = nl + 1) {
      lines.push_back(buffer_.substr(start, nl - start));
    }
    buffer_.erase(0, start);
  }

 private:
  int fd_;
  std::string buffer_;
};

/// Response head: every response line starts {"id":N,"ok":true|false.
bool parse_head(const std::string& line, std::uint64_t& id, bool& ok) {
  constexpr std::string_view kId = "{\"id\":";
  if (line.compare(0, kId.size(), kId) != 0) return false;
  std::size_t pos = kId.size();
  id = 0;
  while (pos < line.size() && line[pos] >= '0' && line[pos] <= '9') {
    id = id * 10 + static_cast<std::uint64_t>(line[pos++] - '0');
  }
  ok = line.compare(pos, 10, ",\"ok\":true") == 0;
  return true;
}

/// Outcome of one load phase.
struct Phase {
  /// Per request: latency in ms (+infinity when refused or failed).
  std::vector<double> latency_ms;
  /// Open loop: how late each request was sent after its due time.
  std::vector<double> late_ms;
  std::size_t failed = 0;
  double wall_s = 0.0;
  /// CPU time of the whole process over the phase.
  double cpu_s = 0.0;
};

/// Drives requests [first, ...) over `conns` from this one thread. With
/// rate > 0 it is an open loop of `count` requests; otherwise a closed
/// loop, one request outstanding per connection, for `seconds`.
Phase drive(const std::vector<Connection*>& conns,
            const Requests& requests, std::size_t first, double rate,
            std::size_t count, double seconds) {
  Phase phase;
  const double cpu0 = process_cpu_s();
  const bool open = rate > 0.0;
  std::vector<Clock::time_point> start;  // due (open) or send (closed) time
  std::vector<int> owner;                // connection of each request
  std::vector<char> answered;
  std::size_t sent = 0;
  std::size_t done = 0;
  const auto t0 = Clock::now() + std::chrono::milliseconds(open ? 2 : 0);
  const auto due = [&](std::size_t k) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(static_cast<double>(k) / rate));
  };
  const auto send = [&](std::size_t c, Clock::time_point when) {
    conns[c]->send_line(requests.line(first + sent));
    start.push_back(when);
    owner.push_back(static_cast<int>(c));
    answered.push_back(0);
    phase.latency_ms.push_back(kInf);
    ++sent;
  };
  const auto window_open = [&] {
    return open ? sent < count
                : Clock::now() - t0 < std::chrono::duration<double>(seconds);
  };
  if (!open) {
    for (std::size_t c = 0; c < conns.size(); ++c) send(c, Clock::now());
  }
  std::vector<pollfd> fds(conns.size());
  for (std::size_t c = 0; c < conns.size(); ++c) fds[c] = {conns[c]->fd(), POLLIN, 0};
  std::vector<std::string> lines;
  Clock::time_point last_done = t0;
  Clock::time_point last_progress = Clock::now();
  while (done < sent || window_open()) {
    auto now = Clock::now();
    if (open) {
      while (sent < count && now >= due(sent)) {
        const auto d = due(sent);
        phase.late_ms.push_back(
            std::chrono::duration<double, std::milli>(now - d).count());
        send(sent % conns.size(), d);
        now = Clock::now();
      }
    }
    timespec timeout{1, 0};
    if (open && sent < count) {
      const auto wait = std::max(due(sent) - now, Clock::duration::zero());
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count();
      timeout = {static_cast<time_t>(ns / 1000000000), static_cast<long>(ns % 1000000000)};
    }
    const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
    if (ready < 0) throw std::runtime_error("ppoll() failed");
    if (ready == 0 && Clock::now() - last_progress > std::chrono::seconds(30)) {
      throw std::runtime_error("benchmark server stopped answering");
    }
    for (std::size_t c = 0; c < conns.size(); ++c) {
      if ((fds[c].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      lines.clear();
      conns[c]->read_lines(lines);
      now = Clock::now();
      for (const std::string& line : lines) {
        std::uint64_t id = 0;
        bool ok = false;
        if (!parse_head(line, id, ok) || id <= first || id > first + sent ||
            answered[id - first - 1]) {
          throw std::runtime_error("unexpected response: " + line.substr(0, 200));
        }
        const std::size_t k = id - first - 1;
        answered[k] = 1;
        ++done;
        last_done = now;
        last_progress = now;
        if (ok) {
          phase.latency_ms[k] =
              std::chrono::duration<double, std::milli>(now - start[k]).count();
        } else {
          ++phase.failed;
        }
        if (!open && window_open()) send(static_cast<std::size_t>(owner[k]), Clock::now());
      }
    }
  }
  phase.wall_s = std::chrono::duration<double>(last_done - t0).count();
  phase.cpu_s = process_cpu_s() - cpu0;
  return phase;
}

/// The benchmark's server: Service + Server on an ephemeral loopback port,
/// served from one background thread for the lifetime of this object.
class LoopbackServer {
 public:
  explicit LoopbackServer(serve::Service& service)
      : server_(service, serve::ServerOptions{kServerWorkers, kQueueCapacity, 1 << 16}),
        thread_([this] {
          try {
            server_.listen_and_serve(0);
          } catch (const std::exception& e) {
            error_ = e.what();
          }
          finished_.store(true);
        }) {
    while (server_.bound_port() == 0) {
      if (finished_.load()) {
        thread_.join();
        throw std::runtime_error("benchmark server failed: " + error_);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ~LoopbackServer() {
    // listen_and_serve clears the stop flag after publishing its port, so
    // a stop requested in that window is lost: repeat until it ends.
    while (!finished_.load()) {
      server_.request_stop();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    thread_.join();
  }
  LoopbackServer(const LoopbackServer&) = delete;
  LoopbackServer& operator=(const LoopbackServer&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return server_.bound_port(); }

 private:
  serve::Server server_;
  std::string error_;
  std::atomic<bool> finished_{false};
  std::thread thread_;
};

/// Checks sampled responses, bit for bit, against cold full runs of the
/// same overlay. Returns the whatif bounds it compared.
std::vector<double> check_responses(const Context& ctx, serve::Service& service,
                                    const std::shared_ptr<const engine::BaselineState>& base,
                                    const Requests& requests, std::size_t sent,
                                    Outcome& out) {
  const TrafficConfig& cfg = base->config();
  std::vector<double> bounds;
  const std::size_t stride = std::max<std::size_t>(1, sent / kCheckedRequests);
  for (std::size_t k = 0; k < sent && k / stride < kCheckedRequests; k += stride) {
    const serve::JsonValue resp = serve::parse_json(
        service.handle_line(requests.line(k, cfg.all_paths().size() + 1)));
    const serve::JsonValue* ok = resp.find("ok");
    if (ok == nullptr || !ok->as_bool()) {
      out.check(false, "whatif: sampled request " + std::to_string(k + 1) + " failed");
      continue;
    }
    engine::OverlaySession session(base);
    session.override_vl(requests.edit(k));
    const TrafficConfig overlay = session.materialize();
    engine::AnalysisEngine eng(overlay, engine::Options{1});
    const engine::RunResult cold = eng.run_resilient(base->nc_options(), base->tj_options());

    const auto& rows = resp.find("changed")->as_array();
    out.check(rows.size() == static_cast<std::size_t>(resp.find("paths_changed")->as_number()),
              "whatif: response truncated its changed rows");
    std::size_t mismatches = 0;
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const std::string& vl = rows[r].find("vl")->as_string();
      const std::string& dest = rows[r].find("dest")->as_string();
      const serve::JsonValue* whatif = rows[r].find("whatif_us");
      double got = whatif != nullptr && whatif->is_number() ? whatif->as_number() : kInf;
      if (ctx.perturb == "whatif" && k == 0 && r == 0) got = std::nextafter(got, kInf);
      bounds.push_back(got);
      const VlId v = *cfg.find_vl(vl);
      std::size_t index = cfg.all_paths().size();
      for (std::size_t p = 0; p < cfg.all_paths().size(); ++p) {
        const VlPath& path = cfg.all_paths()[p];
        if (path.vl == v &&
            cfg.network().node(cfg.vl(v).destinations[path.dest_index]).name == dest) {
          index = p;
        }
      }
      if (index == cfg.all_paths().size() ||
          std::memcmp(&got, &cold.combined[index], sizeof(double)) != 0) {
        ++mismatches;
      }
    }
    out.check(mismatches == 0,
              "whatif: request " + std::to_string(k + 1) + " has " +
                  std::to_string(mismatches) +
                  " changed[].whatif_us differing from a cold run_resilient");
  }
  return bounds;
}

void record_layers(serve::Service& service,
                   const std::shared_ptr<const engine::BaselineState>& base,
                   const Requests& requests, Outcome& out) {
  const TrafficConfig& cfg = base->config();
  std::vector<std::string> lines;
  for (std::size_t k = 0; k < 2000; ++k) lines.push_back(requests.line(k));
  std::size_t parsed = 0;
  const auto t0 = Clock::now();
  for (const std::string& line : lines) parsed += serve::parse_request(line).set.size();
  out.metric("serve.parse_us", 1000.0 * ms_since(t0) / static_cast<double>(lines.size()));
  keep(static_cast<double>(parsed));

  constexpr std::size_t kSample = 32;
  std::vector<double> handle_ms;
  std::vector<double> materialize_ms;
  std::vector<double> plan_ms;
  std::vector<double> incremental_ms;
  std::size_t dirty = 0;
  std::size_t used = 0;
  std::size_t transplanted = 0;
  for (std::size_t k = 0; k < kSample; ++k) {
    const serve::Request req = serve::parse_request(lines[k]);
    auto t = Clock::now();
    keep(static_cast<double>(service.handle(req).size()));
    handle_ms.push_back(ms_since(t));

    engine::OverlaySession session(base);
    session.override_vl(requests.edit(k));
    t = Clock::now();
    const TrafficConfig overlay = session.materialize();
    materialize_ms.push_back(ms_since(t));
    t = Clock::now();
    const engine::IncrementalPlan plan = engine::plan_incremental(cfg, overlay, {});
    plan_ms.push_back(ms_since(t));
    keep(static_cast<double>(plan.dirty_ports.size()));
    t = Clock::now();
    engine::AnalysisEngine eng(overlay, engine::Options{1});
    const engine::RunResult r = eng.run_incremental(cfg, base->healthy(), {},
                                                    base->nc_options(), base->tj_options());
    incremental_ms.push_back(ms_since(t));
    const engine::IncrementalStats& s = r.metrics.incremental;
    dirty += s.dirty_ports;
    used += s.dirty_ports + s.seeded_ports;
    transplanted += s.transplanted_paths;
  }
  out.metric("serve.handle_ms", mean(handle_ms));
  out.metric("engine.materialize_ms", mean(materialize_ms));
  out.metric("engine.plan_ms", mean(plan_ms));
  out.metric("engine.run_incremental_ms", mean(incremental_ms));
  out.metric("engine.dirty_port_frac", used == 0 ? 0.0 : static_cast<double>(dirty) / static_cast<double>(used));
  out.metric("engine.transplanted_path_frac",
             static_cast<double>(transplanted) /
                 static_cast<double>(kSample * cfg.all_paths().size()));

  measure_trace_overhead(out, 3, [&] {
    for (std::size_t k = 0; k < kSample; ++k) keep(static_cast<double>(service.handle_line(lines[k]).size()));
  });
}

}  // namespace

void run_whatif_local(const Context& ctx, Outcome& out) {
  // Set-up: generate the network, build and pin the warm baseline.
  std::shared_ptr<const engine::BaselineState> base;
  std::unique_ptr<serve::Service> service;
  std::vector<double> gen_ms;
  out.metric("setup_s", median_setup_s(5, [&] {
               service.reset();
               base.reset();
               const auto t0 = Clock::now();
               auto cfg = std::make_shared<const TrafficConfig>(
                   gen::industrial_config(network(ctx)));
               gen_ms.push_back(ms_since(t0));
               base = engine::BaselineState::build(cfg, {}, {}, ctx.threads);
               service = std::make_unique<serve::Service>();
               service->add_baseline("bench", base);
             }));
  const TrafficConfig& cfg = base->config();
  std::vector<VlId> local = local_vls(cfg, kMaxConeFraction);
  if (local.size() < 8) {
    throw std::runtime_error("fewer than 8 VLs with a what-if cone of at most 15 % of paths");
  }
  const Requests requests(cfg, std::move(local), ctx.seed);

  Phase open;
  std::vector<Phase> closed;
  std::vector<Phase> serial;
  {
    LoopbackServer server(*service);
    Connection first(server.port());
    Connection second(server.port());
    const std::vector<Connection*> both =
        ctx.threads >= 2 ? std::vector<Connection*>{&first, &second}
                         : std::vector<Connection*>{&first};
    obs::registry().reset();
    const std::size_t open_count =
        ctx.small ? static_cast<std::size_t>(std::max(20.0, 0.5 * ctx.seconds * kOpenLoopRate))
                  : std::max(kOpenLoopRequests,
                             static_cast<std::size_t>(0.5 * ctx.seconds * kOpenLoopRate));
    open = drive(both, requests, 0, kOpenLoopRate, open_count, 0.0);
    const obs::Histogram& wall = obs::registry().histogram("serve.request_wall_us");
    const double handled_ms = wall.mean() / 1000.0;
    const double overloaded = static_cast<double>(obs::registry().counter("serve.overloaded").value());
    std::size_t next = open.latency_ms.size();
    const auto segment = [&](std::vector<Phase>& phases,
                             const std::vector<Connection*>& conns) {
      phases.push_back(drive(conns, requests, next, 0.0, 0, kSegmentSeconds));
      next += phases.back().latency_ms.size();
    };
    alternate_for(
        0.5 * ctx.seconds, 2, [&] { segment(closed, both); },
        [&] { segment(serial, {&first}); });

    std::vector<double> finite;
    for (const double l : open.latency_ms) {
      if (std::isfinite(l)) finite.push_back(l);
    }
    if (ctx.trace) {
      out.metric("serve.queue_wait_ms", mean(finite) - handled_ms);
      out.metric("serve.overloaded", overloaded);
      out.metric("loadgen.late_ms_p99", quantile(open.late_ms, 0.99));
    }
  }
  out.count(open.latency_ms.size(), open.failed);
  // Requests per second of wall time, or of process CPU time.
  const auto rate = [&out](const std::vector<Phase>& phases, bool per_cpu) {
    double requests = 0.0;
    double seconds = 0.0;
    for (const Phase& p : phases) {
      out.count(p.latency_ms.size(), p.failed);
      requests += static_cast<double>(p.latency_ms.size());
      seconds += per_cpu ? p.cpu_s : p.wall_s;
    }
    return requests / seconds;
  };
  out.metric("throughput_per_cpu_s", rate(closed, true));
  out.metric("throughput_1t_per_cpu_s", rate(serial, true));
  out.metric("wall.throughput_per_s", rate(closed, false));
  out.metric("wall.throughput_1t_per_s", rate(serial, false));

  const std::vector<double> bounds =
      check_responses(ctx, *service, base, requests, open.latency_ms.size(), out);

  out.metric("wall.latency_p50_ms", quantile(open.latency_ms, 0.50));
  out.metric("wall.latency_p99_ms", quantile(open.latency_ms, 0.99));
  out.metric("analysis.mean_bound_us", mean(bounds));

  if (ctx.trace) {
    out.metric("gen.config_ms", median(gen_ms));
    record_layers(*service, base, requests, out);
  }
  out.metric("peak_rss_mb", peak_rss_mb());
}

}  // namespace afdx::perfbench

#include "trajectory/trajectory_analyzer.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "netcalc/netcalc_analyzer.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "trajectory/prefix_cache.hpp"
#include "trajectory/sweep.hpp"

namespace afdx::trajectory {

// Reusable per-prefix scratch; every vector keeps its capacity across the
// prefixes computed at its recursion depth.
struct Analyzer::ScratchFrame {
  std::vector<LinkId> sub;
  // SoA interference columns: one row per segment, grouped by the node the
  // segment starts at (node idx owns rows [node_begin[idx],
  // node_begin[idx + 1])). The study flow's own segment is kept apart.
  std::vector<Microseconds> a;
  std::vector<Microseconds> c;
  std::vector<Microseconds> period;
  std::vector<std::size_t> node_begin;
  std::vector<Microseconds> node_cap;
  std::vector<char> saturated;
  // Column row of the segment each entry of the current / previous node's
  // flow row belongs to (kOwnSegment for the study flow).
  std::vector<std::size_t> seg_at;
  std::vector<std::size_t> seg_prev;
  // Segments first met at the current node, tagged with their input link
  // and arrival order (non-serialized variant only, for the surcharge).
  struct Member {
    LinkId input = kInvalidLink;
    std::uint32_t order = 0;
    Microseconds c = 0.0;
  };
  std::vector<Member> members;
  std::vector<Microseconds> candidates;
};

Analyzer::~Analyzer() = default;

Microseconds Result::bound_for(const TrafficConfig& config, PathRef ref) const {
  const auto& paths = config.all_paths();
  if (path_index_.empty() && !paths.empty()) {
    path_index_.reserve(paths.size());
    for (std::size_t i = 0; i < paths.size(); ++i) {
      path_index_.emplace(
          (static_cast<std::uint64_t>(paths[i].vl) << 32) | paths[i].dest_index,
          i);
    }
  }
  const std::uint64_t k =
      (static_cast<std::uint64_t>(ref.vl) << 32) | ref.dest_index;
  if (auto it = path_index_.find(k); it != path_index_.end()) {
    return path_bounds[it->second];
  }
  throw Error("Trajectory Result::bound_for: unknown path");
}

Analyzer::Analyzer(const TrafficConfig& config, const Options& options)
    : cfg_(config), opt_(options) {
  // The trajectory approach is a FIFO analysis; static-priority
  // configurations are handled by the network-calculus analyzer only.
  for (VlId v = 0; v < cfg_.vl_count(); ++v) {
    AFDX_REQUIRE(cfg_.vl(v).priority == cfg_.vl(0).priority,
                 "trajectory: the trajectory approach supports FIFO ports "
                 "only (VL " + cfg_.vl(v).name +
                 " uses a different priority class)");
  }
}

void Analyzer::set_backlog_caps(std::vector<Microseconds> caps) {
  AFDX_REQUIRE(caps.size() == cfg_.network().link_count(),
               "trajectory: backlog cap vector does not match the network's "
               "link count");
  backlog_caps_ = std::move(caps);
}

const std::vector<Microseconds>& Analyzer::backlog_caps() {
  if (!backlog_caps_.has_value()) {
    backlog_caps_.emplace(cfg_.network().link_count(),
                          std::numeric_limits<Microseconds>::infinity());
    if (opt_.serialization) {
      // The envelope analysis can fail only on unstable ports, where the
      // trajectory busy period diverges anyway; fall back to uncapped.
      try {
        const netcalc::Result nc = netcalc::analyze(cfg_);
        for (LinkId l = 0; l < cfg_.network().link_count(); ++l) {
          if (nc.ports[l].used) {
            (*backlog_caps_)[l] =
                nc.ports[l].queue_backlog / cfg_.network().link(l).rate;
          }
        }
      } catch (const Error&) {
      }
    }
  }
  return *backlog_caps_;
}

Microseconds Analyzer::min_arrival_at(VlId vl, LinkId link) const {
  const std::uint64_t k = key(vl, link);
  if (const Microseconds* hit = min_arrival_memo_.find(k)) return *hit;
  const VlRoute& route = cfg_.route(vl);
  AFDX_REQUIRE(route.crosses(link), "min_arrival_at: VL does not cross link");
  // Walk the unique tree prefix backwards: each earlier node adds its
  // (smallest-frame) transmission time, each node after the first adds its
  // technological latency.
  Microseconds acc = 0.0;
  LinkId cur = link;
  for (LinkId pred = route.predecessor(cur); pred != kInvalidLink;
       pred = route.predecessor(cur)) {
    acc += cfg_.vl(vl).min_transmission_time(cfg_.network().link(pred).rate);
    acc += cfg_.network().link(cur).latency;
    cur = pred;
  }
  min_arrival_memo_.emplace(k, acc);
  return acc;
}

std::vector<Analyzer::FlowAtLink>& Analyzer::flows_at(LinkId l) {
  const Network& net = cfg_.network();
  if (flows_.empty()) {
    flows_.resize(net.link_count());
    flows_ready_.assign(net.link_count(), 0);
  }
  std::vector<FlowAtLink>& out = flows_[l];
  if (!flows_ready_[l]) {
    const std::vector<VlId>& crossing = cfg_.vls_on_link(l);
    out.reserve(crossing.size());
    for (VlId j : crossing) {
      const VirtualLink& v = cfg_.vl(j);
      FlowAtLink f;
      f.id = j;
      f.pred = cfg_.route(j).predecessor(l);
      if (f.pred != kInvalidLink) {
        // vls_on_link is ascending by VlId, so j's position in its
        // predecessor's row is one binary search away.
        const std::vector<VlId>& up = cfg_.vls_on_link(f.pred);
        const auto it = std::lower_bound(up.begin(), up.end(), j);
        AFDX_REQUIRE(it != up.end() && *it == j,
                     "trajectory: VL " + v.name +
                         " is missing from its predecessor port's crossing "
                         "list (vls_on_link must be ascending by VlId)");
        f.pred_pos = static_cast<std::uint32_t>(it - up.begin());
      }
      f.c = v.max_transmission_time(net.link(l).rate);
      f.period = v.bag;
      out.push_back(f);
    }
    flows_ready_[l] = 1;
  }
  return out;
}

Microseconds Analyzer::max_arrival_at(VlId vl, LinkId link) {
  const VlRoute& route = cfg_.route(vl);
  AFDX_REQUIRE(route.crosses(link), "max_arrival_at: VL does not cross link");
  const LinkId pred = route.predecessor(link);
  if (pred == kInvalidLink) return 0.0;  // queued at generation time
  return bound_to_link(vl, pred) + cfg_.network().link(link).latency;
}

Microseconds Analyzer::bound_to_link(VlId vl, LinkId link) {
  const std::uint64_t k = key(vl, link);
  ++counters_.lookups;
  if (const Microseconds* hit = memo_.find(k)) {
    ++counters_.local_hits;
    return *hit;
  }
  if (shared_ != nullptr) {
    if (const auto cached = shared_->lookup(vl, link); cached.has_value()) {
      ++counters_.shared_hits;
      memo_.emplace(k, *cached);
      return *cached;
    }
  }
  AFDX_REQUIRE(in_progress_.insert(k).second,
               "trajectory: cyclic prefix dependency involving VL " +
                   cfg_.vl(vl).name +
                   " (the trajectory approach requires a feed-forward "
                   "configuration)");
  // Erase the marker on every exit path. compute_prefix throws on
  // divergence (unstable path utilization), and analyzer instances are
  // reused across paths by the engine and the ladder; a leaked marker
  // would make every later prefix that reaches (vl, link) falsely fail
  // with the cyclic-dependency error above.
  struct EraseGuard {
    std::unordered_set<std::uint64_t>& set;
    std::uint64_t key;
    ~EraseGuard() { set.erase(key); }
  } guard{in_progress_, k};
  const Microseconds bound = compute_prefix(vl, link);
  memo_.emplace(k, bound);
  if (shared_ != nullptr) shared_->store(vl, link, bound);
  return bound;
}

Microseconds Analyzer::compute_prefix(VlId i, LinkId last) {
  AFDX_TRACE_SPAN("trajectory.prefix", "trajectory");
  static obs::Counter& prefixes =
      obs::registry().counter("trajectory.prefixes");
  prefixes.add();
  ++work_.prefixes;
  const Network& net = cfg_.network();
  const VlRoute& route_i = cfg_.route(i);
  AFDX_REQUIRE(route_i.crosses(last), "compute_prefix: VL does not cross link");

  // One pooled scratch frame per live recursion depth. bound_to_link
  // re-enters compute_prefix while this frame is mid-construction, so the
  // scratch cannot be flat instance state -- but pooling frames by depth
  // still removes the per-prefix reallocation of every vector below.
  if (scratch_depth_ == scratch_pool_.size()) {
    scratch_pool_.push_back(std::make_unique<ScratchFrame>());
  }
  ScratchFrame& fr = *scratch_pool_[scratch_depth_];
  ++scratch_depth_;
  struct DepthGuard {
    std::size_t& depth;
    ~DepthGuard() { --depth; }
  } depth_guard{scratch_depth_};

  // The unique tree prefix l_0 .. l_{m-1} ending at `last`.
  std::vector<LinkId>& sub = fr.sub;
  sub.clear();
  for (LinkId l = last; l != kInvalidLink; l = route_i.predecessor(l)) {
    sub.push_back(l);
  }
  std::reverse(sub.begin(), sub.end());
  const std::size_t m = sub.size();

  auto c_of = [&](VlId j, LinkId l) {
    return cfg_.vl(j).max_transmission_time(net.link(l).rate);
  };

  // --- Interference segments, written straight into the columns ------------
  // A flow j contributes one term per maximal run of consecutive shared
  // nodes; the run is "consecutive" only when j actually travels along i's
  // path. j continues its run at node idx exactly when its predecessor
  // there is node idx-1: it then crossed node idx-1 and was visited in
  // that node's row at position f.pred_pos, which names its open segment.
  // New segments are appended per node in row order, so node idx's
  // segments are contiguous; i's own (first) segment is kept apart.
  constexpr std::size_t kOwnSegment = static_cast<std::size_t>(-1);
  fr.a.clear();
  fr.c.clear();
  fr.period.clear();
  fr.node_begin.clear();
  fr.members.clear();
  Microseconds own_a = 0.0;
  Microseconds own_c = 0.0;
  Microseconds own_period = 0.0;
  // Double-counted busy-period boundary packet at every node after the
  // first: bounded by the largest frame of a VL met in that node (the
  // paper's stated over-approximation), plus the technological latencies.
  Microseconds delta_sum = 0.0;
  Microseconds latency_sum = 0.0;
  // Non-serialized variant: the assumed-simultaneous first frames of each
  // group of segments sharing a starting node and an input link cost their
  // serialization span on top (Fig. 3 versus Fig. 4 of the paper).
  // Summed node by node, input links ascending, members in row order.
  Microseconds surcharge = 0.0;

  for (std::size_t idx = 0; idx < m; ++idx) {
    const LinkId lk = sub[idx];
    const LinkId prev = idx > 0 ? sub[idx - 1] : kInvalidLink;
    const Microseconds latency_lk = net.link(lk).latency;
    // Rows are built on first use, so an incremental run only pays for the
    // ports its cone touches.
    std::vector<FlowAtLink>& row = flows_at(lk);
    fr.node_begin.push_back(fr.a.size());
    fr.seg_at.resize(row.size());
    // The study packet's own arrival-window term is the same for every
    // flow first met at this node; computed lazily on the first new
    // segment (so the exact set of recursive prefix computations is
    // unchanged) and reused for the rest of the node's flows.
    bool jitter_i_cached = false;
    Microseconds jitter_i_node = 0.0;
    // The boundary packet closes the busy period of node idx-1 and opens
    // the one of node idx, so it physically travels that transition; only
    // flows routed through it qualify (always at least flow i). The loose
    // variant keeps the paper's wording: any VL met in the node.
    Microseconds biggest = 0.0;
    for (std::size_t pos = 0; pos < row.size(); ++pos) {
      FlowAtLink& f = row[pos];
      if (prev != kInvalidLink && f.pred == prev) {
        // f keeps travelling along i's path: extend its segment.
        const std::size_t s = fr.seg_prev[f.pred_pos];
        Microseconds& seg_c = (s == kOwnSegment) ? own_c : fr.c[s];
        seg_c = std::max(seg_c, f.c);
        fr.seg_at[pos] = s;
        biggest = std::max(biggest, f.c);
        continue;
      }
      if (opt_.loose_boundary_packet) biggest = std::max(biggest, f.c);
      // New segment starting at node lk. The arrival window of f at this
      // node is widened by its source release jitter plus the spread
      // between its best- and worst-case prefix traversal.
      if (!f.window_ready) {
        const Microseconds max_arr_j =
            cfg_.vl(f.id).max_release_jitter +
            ((f.pred == kInvalidLink)
                 ? 0.0
                 : bound_to_link(f.id, f.pred) + latency_lk);
        f.window = max_arr_j - min_arrival_at(f.id, lk);
        f.window_ready = true;
      }
      Microseconds jitter_i = 0.0;
      if (f.id != i) {
        // The study packet's own release instant is the time origin, so
        // only its traversal spread (not its release jitter) widens the
        // window. (i itself starts a segment only at node 0: further on,
        // its predecessor is always the previous node.)
        if (!jitter_i_cached) {
          const Microseconds max_arr_i =
              (idx == 0) ? 0.0 : bound_to_link(i, prev) + latency_lk;
          jitter_i_node = max_arr_i - min_arrival_at(i, lk);
          jitter_i_cached = true;
        }
        jitter_i = jitter_i_node;
      }
      const Microseconds a = f.window + jitter_i;
      if (f.id == i) {
        own_a = a;
        own_c = f.c;
        own_period = f.period;
        fr.seg_at[pos] = kOwnSegment;
        continue;
      }
      fr.seg_at[pos] = fr.a.size();
      fr.a.push_back(a);
      fr.c.push_back(f.c);
      fr.period.push_back(f.period);
      if (!opt_.serialization && f.pred != kInvalidLink) {
        fr.members.push_back(ScratchFrame::Member{
            f.pred, static_cast<std::uint32_t>(fr.members.size()), f.c});
      }
    }
    if (idx > 0) {
      delta_sum += biggest;
      latency_sum += latency_lk;
    }
    if (!fr.members.empty()) {
      std::sort(fr.members.begin(), fr.members.end(),
                [](const ScratchFrame::Member& x, const ScratchFrame::Member& y) {
                  return x.input != y.input ? x.input < y.input
                                            : x.order < y.order;
                });
      for (std::size_t g = 0; g < fr.members.size();) {
        Microseconds sum_c = 0.0;
        Microseconds max_c = 0.0;
        std::size_t end = g;
        for (; end < fr.members.size() && fr.members[end].input ==
                                               fr.members[g].input;
             ++end) {
          sum_c += fr.members[end].c;
          max_c = std::max(max_c, fr.members[end].c);
        }
        if (end - g >= 2) surcharge += sum_c - max_c;
        g = end;
      }
      fr.members.clear();
    }
    std::swap(fr.seg_at, fr.seg_prev);
  }
  const std::size_t seg_total = fr.a.size();
  fr.node_begin.push_back(seg_total);

  const Microseconds c_first = c_of(i, sub.front());
  const Microseconds c_last = c_of(i, sub.back());
  const Microseconds consts =
      delta_sum + latency_sum + surcharge - c_first + c_last;

  // Serialization caps: per node, the first-met flows cannot have more work
  // queued in front of the packet than the port's worst-case FIFO backlog.
  // Capping by +infinity is exact, which makes the serialization branch
  // loop-invariant in the sweep.
  const std::vector<Microseconds>& caps = backlog_caps();
  fr.node_cap.resize(m);
  for (std::size_t idx = 0; idx < m; ++idx) {
    fr.node_cap[idx] = opt_.serialization
                           ? caps[sub[idx]]
                           : std::numeric_limits<Microseconds>::infinity();
  }
  // response() below is evaluated O(candidates x busy rounds) times and
  // dominates the whole analysis; streaming a / c / period as three
  // separate columns lets the sweep kernel vectorize across candidates.
  const Microseconds* const flat_a = fr.a.data();
  const Microseconds* const flat_c = fr.c.data();
  const Microseconds* const flat_period = fr.period.data();
  const std::size_t* const node_begin = fr.node_begin.data();
  const Microseconds* const node_cap = fr.node_cap.data();

  auto response = [&](Microseconds t) {
    Microseconds w = sweep::frame_count(t, own_a, own_period) * own_c;
    for (std::size_t idx = 0; idx < m; ++idx) {
      Microseconds node_sum = 0.0;
      for (std::size_t s = node_begin[idx]; s < node_begin[idx + 1]; ++s) {
        node_sum +=
            sweep::frame_count(t, flat_a[s], flat_period[s]) * flat_c[s];
      }
      w += std::min(node_sum, node_cap[idx]);
    }
    return w + consts - t;
  };

  // --- Busy period ------------------------------------------------------------
  // response(0) seeds both the busy-period fixed point and the sweep's
  // running maximum below; it is a pure function of the columns, so one
  // evaluation serves both (bit-identical to evaluating it twice).
  const Microseconds response_at_zero = response(0.0);
  Microseconds busy = std::max<Microseconds>(response_at_zero, 0.0);
  int rounds = 0;
  for (; rounds < opt_.max_busy_iterations; ++rounds) {
    const Microseconds next = response(busy) + busy;  // workload at `busy`
    if (next <= busy + kEpsilon) break;
    busy = next;
    AFDX_REQUIRE(busy < 1e12,
                 "trajectory: busy period diverges for VL " + cfg_.vl(i).name +
                     " (summed path utilization >= 1)");
  }
  AFDX_REQUIRE(rounds < opt_.max_busy_iterations,
               "trajectory: busy-period fixed point did not converge for VL " +
                   cfg_.vl(i).name);
  // Competing-frame accounting: segment count and busy-period growth are
  // the two cost drivers of the prefix recursion.
  static obs::Histogram& seg_hist =
      obs::registry().histogram("trajectory.segments_per_prefix");
  static obs::Histogram& round_hist =
      obs::registry().histogram("trajectory.busy_rounds");
  seg_hist.observe(seg_total + 1);
  round_hist.observe(static_cast<std::uint64_t>(rounds));
  work_.segments += seg_total + 1;
  work_.busy_rounds += static_cast<std::uint64_t>(rounds);
  static obs::Histogram& cand_hist =
      obs::registry().histogram("trajectory.candidates_per_prefix");

  // Two exact prunings of the ascending sweep, both resting on
  // frame_count being nondecreasing in t (floating-point rounding is
  // monotone, so the property survives fl arithmetic):
  //  - once a node's sum reaches its cap it stays capped, and min() would
  //    return exactly node_cap from then on -- stop re-summing the node;
  //  - the workload w(t) + consts never exceeds its value at the largest
  //    admissible t, so when that envelope minus t can no longer beat
  //    `best`, neither can any later candidate.
  const Microseconds t_max = busy + kEpsilon;
  Microseconds w_max = sweep::frame_count(t_max, own_a, own_period) * own_c;
  for (std::size_t idx = 0; idx < m; ++idx) {
    Microseconds node_sum = 0.0;
    for (std::size_t s = node_begin[idx]; s < node_begin[idx + 1]; ++s) {
      node_sum +=
          sweep::frame_count(t_max, flat_a[s], flat_period[s]) * flat_c[s];
    }
    w_max += std::min(node_sum, node_cap[idx]);
  }
  const Microseconds envelope = w_max + consts;

  // --- Maximize over the candidate generation instants ------------------------
  // R(t) decreases with slope -1 between frame-count jumps (the caps are
  // constants), so the max is attained at t = 0 or at a jump. Segments with
  // equal (BAG, A) generate bitwise-equal jump instants; sort + unique below
  // drops the repeats (t = k * period - a is never -0.0, so == dedups by
  // bit pattern), which leaves the same value set as deduplicating the
  // generators first.
  // Generation cut: `best` is nondecreasing from response(0), so any
  // candidate with envelope - t <= response(0) is provably pruned by the
  // sweep's envelope check -- skip materializing it (each generator's
  // instants ascend with k, so the cut is a plain break).
  std::vector<Microseconds>& candidates = fr.candidates;
  candidates.clear();
  const auto generate = [&](Microseconds period, Microseconds a) {
    for (int k = 1;; ++k) {
      const Microseconds t = k * period - a;
      if (t > busy + kEpsilon || envelope - t <= response_at_zero) break;
      if (t >= 0.0) candidates.push_back(t);
    }
  };
  generate(own_period, own_a);
  for (std::size_t s = 0; s < seg_total; ++s) generate(flat_period[s], flat_a[s]);
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  Microseconds best = response_at_zero;

  // The sweep itself runs in the dispatched kernel (sweep.hpp): the AVX2
  // variant batches 4 candidates per lane-parallel walk of the columns and
  // is bit-identical to the scalar fallback by construction.
  cand_hist.observe(candidates.size());
  work_.candidates += candidates.size();
  static obs::Counter& simd_sweeps =
      obs::registry().counter("trajectory.sweep.simd");
  static obs::Counter& scalar_sweeps =
      obs::registry().counter("trajectory.sweep.scalar");
  const sweep::Kind kind = sweep::active();
  (kind == sweep::Kind::kSimd ? simd_sweeps : scalar_sweeps).add();
  fr.saturated.assign(m, 0);
  const sweep::Columns cols{flat_a,   flat_c, flat_period, node_begin,
                            node_cap, m,      own_a,       own_c,
                            own_period};
  best = sweep::run(kind, cols, candidates.data(), candidates.size(), consts,
                    envelope, best, fr.saturated.data());

  // The bound can never beat the jitter-free store-and-forward traversal.
  Microseconds floor_bound = c_last;
  for (std::size_t idx = 0; idx + 1 < m; ++idx) floor_bound += c_of(i, sub[idx]);
  floor_bound += latency_sum;
  return std::max(best, floor_bound);
}

Microseconds Analyzer::path_bound(PathRef ref) {
  const VlPath& p = cfg_.path(ref);
  return bound_to_link(p.vl, p.links.back());
}

Result Analyzer::analyze() {
  Result result;
  result.path_bounds.reserve(cfg_.all_paths().size());
  for (const VlPath& p : cfg_.all_paths()) {
    result.path_bounds.push_back(bound_to_link(p.vl, p.links.back()));
  }
  return result;
}

Result analyze(const TrafficConfig& config, const Options& options) {
  Analyzer analyzer(config, options);
  return analyzer.analyze();
}

}  // namespace afdx::trajectory

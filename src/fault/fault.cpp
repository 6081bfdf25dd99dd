#include "fault/fault.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

#include "common/check.hpp"

namespace glocks::fault {

namespace {

// SplitMix64 finalizer: the per-(wire, cycle, salt) rolls need a stateless
// hash rather than a sequential stream, so fault fates are independent of
// the order in which wires consult the injector.
std::uint64_t mix(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

constexpr std::uint32_t kNoiseSalt = 0x2015E;

std::uint32_t latency_bucket(Cycle latency) {
  if (latency < 1) latency = 1;
  const auto b = static_cast<std::uint32_t>(std::bit_width(latency));
  return std::min(b, kLatencyBuckets);
}

}  // namespace

const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kDrop: return "drop";
    case FaultKind::kGarble: return "garble";
    case FaultKind::kDelay: return "delay";
    case FaultKind::kNoise: return "noise";
    case FaultKind::kStuck: return "stuck";
    case FaultKind::kStuckDrop: return "stuck-drop";
  }
  return "?";
}

FaultInjector::FaultInjector(const FaultConfig& cfg) : cfg_(cfg) {
  cfg_.validate();
  stats_.enabled = cfg_.enabled;
  noise_seed_ = mix(cfg_.seed ^ (std::uint64_t{kNoiseSalt} << 40));
  // roll() < rate  <=>  (h >> 11) < rate * 2^53  <=>  (h >> 11) <
  // ceil(rate * 2^53): the left side is an integer, and scaling by 2^53
  // is exact. A rate of 1 gives 2^53, which every 53-bit value is below.
  if (cfg_.enabled && cfg_.noise_rate > 0.0) {
    noise_threshold_ = static_cast<std::uint64_t>(
        std::ceil(std::ldexp(std::min(cfg_.noise_rate, 1.0), 53)));
  }
}

std::uint32_t FaultInjector::register_wire() {
  const auto id = static_cast<std::uint32_t>(stuck_from_.size());
  Cycle onset = kNoCycle;
  if (cfg_.enabled && cfg_.stuck_rate > 0.0 &&
      roll(id, 0, /*salt=*/0xD1E5) < cfg_.stuck_rate) {
    onset = mix(mix(cfg_.seed ^ 0x570CC) ^ id) % cfg_.stuck_horizon;
  }
  stuck_from_.push_back(onset);
  stuck_event_.push_back(-1);
  return id;
}

double FaultInjector::roll(std::uint32_t wire, Cycle now,
                           std::uint32_t salt) const {
  std::uint64_t h = mix(cfg_.seed ^ (static_cast<std::uint64_t>(salt) << 40));
  h = mix(h ^ (static_cast<std::uint64_t>(wire) << 32) ^ now);
  // 53-bit mantissa -> uniform double in [0, 1).
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

std::int32_t FaultInjector::record(FaultKind k, std::uint32_t wire,
                                   Cycle now) {
  stats_.injected[static_cast<std::size_t>(k)]++;
  const auto id = static_cast<std::int32_t>(ledger_.size());
  ledger_.push_back(FaultEvent{k, wire, now, kNoCycle, false, false});
  return id;
}

FrameFate FaultInjector::judge_frame(std::uint32_t wire, Cycle now) {
  FrameFate fate;
  if (!cfg_.enabled) return fate;
  if (stuck_from_[wire] != kNoCycle && now >= stuck_from_[wire]) {
    // Record the permanent fault once, on its first observable effect;
    // frames lost to it afterwards are separate (tolerated-by-ARQ or
    // watchdog-detected) events.
    if (stuck_event_[wire] < 0) {
      stuck_event_[wire] = record(FaultKind::kStuck, wire, stuck_from_[wire]);
    }
    fate.lost = true;
    fate.sender_event = record(FaultKind::kStuckDrop, wire, now);
    return fate;
  }
  if (cfg_.drop_rate > 0.0 && roll(wire, now, 0xA11CE) < cfg_.drop_rate) {
    fate.lost = true;
    fate.sender_event = record(FaultKind::kDrop, wire, now);
    return fate;
  }
  if (cfg_.garble_rate > 0.0 && roll(wire, now, 0xB0B) < cfg_.garble_rate) {
    fate.garbled = true;
    fate.garble_event = record(FaultKind::kGarble, wire, now);
  }
  if (cfg_.delay_rate > 0.0 && roll(wire, now, 0xCAFE) < cfg_.delay_rate) {
    fate.extra_delay =
        1 + mix(mix(cfg_.seed ^ 0xDE1A) ^ (static_cast<std::uint64_t>(wire)
                                           << 32) ^ now) % cfg_.max_delay;
    fate.delay_event = record(FaultKind::kDelay, wire, now);
  }
  return fate;
}

std::int32_t FaultInjector::noise_event_at(std::uint32_t wire, Cycle now) {
  if (!cfg_.enabled || cfg_.noise_rate <= 0.0) return -1;
  // A stuck wire cannot carry noise either: it is held at a rail.
  if (stuck_from_[wire] != kNoCycle && now >= stuck_from_[wire]) return -1;
  if (roll(wire, now, kNoiseSalt) >= cfg_.noise_rate) return -1;
  return record(FaultKind::kNoise, wire, now);
}

Cycle FaultInjector::next_noise(std::uint32_t wire, Cycle from,
                                Cycle until) const {
  const Cycle stuck = stuck_from_[wire];
  if (noise_threshold_ == 0 || stuck <= from) return kNoCycle;
  const Cycle end = std::min(until, stuck);
  const std::uint64_t key =
      noise_seed_ ^ (static_cast<std::uint64_t>(wire) << 32);
  for (Cycle c = from; c < end; ++c) {
    if ((mix(key ^ c) >> 11) < noise_threshold_) return c;
  }
  return end == stuck ? kNoCycle : until;
}

void FaultInjector::close_detected(std::int32_t event, Cycle now) {
  if (event < 0) return;
  auto& e = ledger_[static_cast<std::size_t>(event)];
  if (e.closed) return;
  e.closed = true;
  e.detected_at = now;
  const Cycle latency = now >= e.injected ? now - e.injected : 0;
  stats_.detection_latency.add(latency_bucket(latency));
  stats_.detection_latency_sum += latency;
  stats_.detection_count++;
}

void FaultInjector::on_rx_discard(std::int32_t event, Cycle now) {
  stats_.rx_discards++;
  close_detected(event, now);
}

void FaultInjector::on_tolerated(std::int32_t event) {
  if (event < 0) return;
  auto& e = ledger_[static_cast<std::size_t>(event)];
  if (e.closed) return;
  e.closed = true;
  e.tolerated = true;
}

void FaultInjector::on_detected(const std::vector<std::int32_t>& events,
                                Cycle now) {
  for (auto id : events) close_detected(id, now);
}

void FaultInjector::on_wire_dead(std::uint32_t wire, Cycle now) {
  if (stuck_event_[wire] >= 0) close_detected(stuck_event_[wire], now);
}

void FaultInjector::finalize() {
  if (finalized_) return;
  finalized_ = true;
  stats_.detected = 0;
  stats_.tolerated = 0;
  for (auto& e : ledger_) {
    if (!e.closed) {
      // Never observed and never needed: the protocol finished without it
      // mattering (e.g. a delay inside the watchdog window on the final
      // frame, or noise on a cycle nobody was listening).
      e.closed = true;
      e.tolerated = true;
    }
    if (e.tolerated) {
      stats_.tolerated++;
    } else {
      stats_.detected++;
    }
  }
}

namespace {

// std::stod/stoull throw std::invalid_argument on garbage; a CLI-facing
// parser should speak SimError with the offending token instead.
double spec_double(const std::string& s) {
  std::size_t pos = 0;
  double v = 0.0;
  try {
    v = std::stod(s, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  GLOCKS_CHECK(pos == s.size() && !s.empty(),
               "--faults: '" << s << "' is not a number");
  return v;
}

std::uint64_t spec_u64(const std::string& s) {
  std::size_t pos = 0;
  std::uint64_t v = 0;
  try {
    v = std::stoull(s, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  GLOCKS_CHECK(pos == s.size() && !s.empty(),
               "--faults: '" << s << "' is not an integer");
  return v;
}

/// Parses `mesh:kill=TILE.DIR@CYCLE`, e.g. "0.e@1000".
LinkKill spec_kill(const std::string& val) {
  const auto dot = val.find('.');
  const auto at = val.find('@');
  GLOCKS_CHECK(dot != std::string::npos && at != std::string::npos &&
                   dot > 0 && at == dot + 2 && at + 1 < val.size(),
               "--faults: mesh:kill expects TILE.DIR@CYCLE "
               "(DIR one of n/s/e/w), got '"
                   << val << "'");
  LinkKill k;
  k.tile = static_cast<std::uint32_t>(spec_u64(val.substr(0, dot)));
  switch (val[dot + 1]) {
    case 'n': k.dir = 1; break;
    case 's': k.dir = 2; break;
    case 'e': k.dir = 3; break;
    case 'w': k.dir = 4; break;
    default:
      GLOCKS_CHECK(false, "--faults: mesh:kill direction must be one of "
                          "n/s/e/w, got '"
                              << val[dot + 1] << "'");
  }
  k.at = spec_u64(val.substr(at + 1));
  return k;
}

void apply_gline_pair(FaultConfig& cfg, const std::string& key,
                      const std::string& val) {
  if (key == "drop") {
    cfg.drop_rate = spec_double(val);
  } else if (key == "garble") {
    cfg.garble_rate = spec_double(val);
  } else if (key == "delay") {
    cfg.delay_rate = spec_double(val);
  } else if (key == "noise") {
    cfg.noise_rate = spec_double(val);
  } else if (key == "stuck") {
    cfg.stuck_rate = spec_double(val);
  } else if (key == "max_delay") {
    cfg.max_delay = static_cast<std::uint32_t>(spec_u64(val));
  } else if (key == "stuck_horizon") {
    cfg.stuck_horizon = spec_u64(val);
  } else if (key == "timeout") {
    cfg.watchdog_timeout = spec_u64(val);
  } else if (key == "backoff_cap") {
    cfg.backoff_cap = spec_u64(val);
  } else if (key == "retries") {
    cfg.max_retries = static_cast<std::uint32_t>(spec_u64(val));
  } else if (key == "fallback") {
    GLOCKS_CHECK(val == "mcs" || val == "tatas",
                 "--faults: fallback must be mcs or tatas, got " << val);
    cfg.fallback_tatas = (val == "tatas");
  } else {
    GLOCKS_CHECK(false,
                 "--faults: unknown G-line key '" << key << "' (known: "
                 "drop, garble, delay, noise, stuck, max_delay, "
                 "stuck_horizon, timeout, backoff_cap, retries, fallback, "
                 "seed)");
  }
}

void apply_mesh_pair(MeshFaultConfig& m, const std::string& key,
                     const std::string& val) {
  if (key == "rate") {
    const double rate = spec_double(val);
    GLOCKS_CHECK(rate >= 0.0 && rate <= 1.0,
                 "--faults: mesh:rate must lie in [0, 1], got " << val);
    m.drop_rate = m.garble_rate = m.delay_rate = rate;
    m.dead_rate = rate / 10.0;
  } else if (key == "drop") {
    m.drop_rate = spec_double(val);
  } else if (key == "garble") {
    m.garble_rate = spec_double(val);
  } else if (key == "delay") {
    m.delay_rate = spec_double(val);
  } else if (key == "max_delay") {
    m.max_delay = static_cast<std::uint32_t>(spec_u64(val));
  } else if (key == "dead") {
    m.dead_rate = spec_double(val);
  } else if (key == "dead_horizon") {
    m.dead_horizon = spec_u64(val);
  } else if (key == "timeout") {
    m.retry_timeout = spec_u64(val);
  } else if (key == "backoff_cap") {
    m.backoff_cap = spec_u64(val);
  } else if (key == "retries") {
    m.max_retries = static_cast<std::uint32_t>(spec_u64(val));
  } else if (key == "e2e_timeout") {
    m.e2e_timeout = spec_u64(val);
  } else if (key == "e2e_retries") {
    m.e2e_max_retries = static_cast<std::uint32_t>(spec_u64(val));
  } else if (key == "kill") {
    m.kills.push_back(spec_kill(val));
  } else {
    GLOCKS_CHECK(false,
                 "--faults: unknown mesh key '" << key << "' (known: rate, "
                 "drop, garble, delay, max_delay, dead, dead_horizon, "
                 "timeout, backoff_cap, retries, e2e_timeout, e2e_retries, "
                 "kill, seed)");
  }
}

}  // namespace

FaultConfig parse_fault_spec(const std::string& spec) {
  FaultConfig cfg;
  GLOCKS_CHECK(!spec.empty(), "--faults needs a rate or key=value list");

  std::istringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    const auto eq = item.find('=');
    if (eq == std::string::npos) {
      // Bare rate: the historical shorthand. G-line domain, each
      // transient class at the rate; permanents are rarer.
      const double rate = spec_double(item);
      GLOCKS_CHECK(rate >= 0.0 && rate <= 1.0,
                   "--faults rate must lie in [0, 1], got " << item);
      cfg.drop_rate = cfg.garble_rate = cfg.delay_rate = cfg.noise_rate =
          rate;
      cfg.stuck_rate = rate / 10.0;
      cfg.enabled = true;
      continue;
    }
    GLOCKS_CHECK(eq > 0 && eq + 1 < item.size(),
                 "--faults: malformed pair '" << item << "'");
    std::string key = item.substr(0, eq);
    const std::string val = item.substr(eq + 1);

    // Optional domain prefix. Unprefixed keys keep their original G-line
    // meaning so every pre-mesh spec parses unchanged.
    std::string domain = "gline";
    bool prefixed = false;
    if (const auto colon = key.find(':'); colon != std::string::npos) {
      domain = key.substr(0, colon);
      key = key.substr(colon + 1);
      prefixed = true;
      GLOCKS_CHECK(domain == "gline" || domain == "mesh",
                   "--faults: unknown domain '" << domain
                       << "' (known: gline, mesh)");
      GLOCKS_CHECK(!key.empty(),
                   "--faults: malformed pair '" << item << "'");
    }

    if (key == "seed") {
      // One injector seed feeds both domains (each mixes in its own
      // salt), so `seed` is shared under any spelling — a prefixed
      // spelling does not by itself enable its domain.
      cfg.seed = spec_u64(val);
      if (!prefixed) cfg.enabled = true;
      continue;
    }
    if (domain == "mesh") {
      apply_mesh_pair(cfg.mesh, key, val);
      cfg.mesh.enabled = true;
    } else {
      apply_gline_pair(cfg, key, val);
      cfg.enabled = true;
    }
  }
  GLOCKS_CHECK(cfg.any(),
               "--faults: the spec enables no fault domain (give a rate, "
               "an unprefixed/gline: key, or a mesh: key)");
  cfg.validate();
  return cfg;
}

std::string summary(const FaultStats& s) {
  std::ostringstream oss;
  oss << "  faults injected    " << s.injected_total();
  bool first = true;
  for (std::size_t k = 0; k < kNumFaultKinds; ++k) {
    if (s.injected[k] == 0) continue;
    oss << (first ? " (" : ", ") << to_string(static_cast<FaultKind>(k))
        << " " << s.injected[k];
    first = false;
  }
  if (!first) oss << ")";
  oss << "\n"
      << "  detected / tolerated  " << s.detected << " / " << s.tolerated
      << "\n"
      << "  retransmissions       " << s.retransmissions << " ("
      << s.spurious_retransmissions << " spurious), watchdog fires "
      << s.watchdog_timeouts << "\n"
      << "  rx discards           " << s.rx_discards << ", duplicates "
      << s.duplicate_frames << "\n"
      << "  link failures         " << s.link_failures << ", demotions "
      << s.fallback_demotions << ", fallback acquires "
      << s.fallback_acquires << "\n"
      << "  mean detect latency   " << s.mean_detection_latency()
      << " cycles over " << s.detection_count << " detections\n";
  return oss.str();
}

std::string mesh_summary(const FaultStats& s) {
  std::ostringstream oss;
  oss << "  mesh faults injected  " << s.injected_total();
  bool first = true;
  for (std::size_t k = 0; k < kNumFaultKinds; ++k) {
    if (s.injected[k] == 0) continue;
    oss << (first ? " (" : ", ") << to_string(static_cast<FaultKind>(k))
        << " " << s.injected[k];
    first = false;
  }
  if (!first) oss << ")";
  oss << "\n"
      << "  detected / tolerated  " << s.detected << " / " << s.tolerated
      << "\n"
      << "  retransmissions       " << s.retransmissions << " ("
      << s.spurious_retransmissions << " spurious), watchdog fires "
      << s.watchdog_timeouts << "\n"
      << "  rx discards           " << s.rx_discards << ", duplicates "
      << s.duplicate_frames << "\n"
      << "  dead links            " << s.link_failures
      << ", detoured forwards " << s.reroutes << "\n"
      << "  e2e watchdog          " << s.e2e_timeouts << " fires, "
      << s.e2e_retries << " request retries, " << s.e2e_dup_drops
      << " duplicates filtered\n"
      << "  mean detect latency   " << s.mean_detection_latency()
      << " cycles over " << s.detection_count << " detections\n";
  return oss.str();
}

// ---- checkpoint ----

void save_fault_stats(ckpt::ArchiveWriter& a, const FaultStats& s) {
  a.b(s.enabled);
  for (std::uint64_t v : s.injected) a.u64(v);
  a.u64(s.detected);
  a.u64(s.tolerated);
  a.u64(s.retransmissions);
  a.u64(s.watchdog_timeouts);
  a.u64(s.spurious_retransmissions);
  a.u64(s.rx_discards);
  a.u64(s.duplicate_frames);
  a.u64(s.link_failures);
  a.u64(s.fallback_demotions);
  a.u64(s.fallback_acquires);
  a.u64(s.reroutes);
  a.u64(s.e2e_timeouts);
  a.u64(s.e2e_retries);
  a.u64(s.e2e_dup_drops);
  a.u64(s.detection_latency_sum);
  a.u64(s.detection_count);
  a.u32(s.detection_latency.max_bin());
  for (std::uint32_t b = 0; b <= s.detection_latency.max_bin(); ++b) {
    a.u64(s.detection_latency.count(b));
  }
}

void load_fault_stats(ckpt::ArchiveReader& a, FaultStats& s) {
  s.enabled = a.b();
  for (std::uint64_t& v : s.injected) v = a.u64();
  s.detected = a.u64();
  s.tolerated = a.u64();
  s.retransmissions = a.u64();
  s.watchdog_timeouts = a.u64();
  s.spurious_retransmissions = a.u64();
  s.rx_discards = a.u64();
  s.duplicate_frames = a.u64();
  s.link_failures = a.u64();
  s.fallback_demotions = a.u64();
  s.fallback_acquires = a.u64();
  s.reroutes = a.u64();
  s.e2e_timeouts = a.u64();
  s.e2e_retries = a.u64();
  s.e2e_dup_drops = a.u64();
  s.detection_latency_sum = a.u64();
  s.detection_count = a.u64();
  const std::uint32_t bins = a.u32();
  GLOCKS_CHECK(bins == s.detection_latency.max_bin(),
               "checkpoint latency-histogram shape mismatch");
  for (std::uint32_t b = 0; b <= bins; ++b) {
    s.detection_latency.set_count(b, a.u64());
  }
}

void save_glock_health(ckpt::ArchiveWriter& a, const GlockHealth& h) {
  a.u32(static_cast<std::uint32_t>(h.demoted.size()));
  for (std::uint8_t d : h.demoted) a.u8(d);
  a.u64(h.fallback_acquires);
}

void load_glock_health(ckpt::ArchiveReader& a, GlockHealth& h) {
  const std::uint32_t n = a.u32();
  GLOCKS_CHECK(n == h.demoted.size(), "checkpoint health-board size mismatch");
  for (std::uint8_t& d : h.demoted) d = a.u8();
  h.fallback_acquires = a.u64();
}

void FaultInjector::save(ckpt::ArchiveWriter& a) const {
  a.u32(static_cast<std::uint32_t>(stuck_from_.size()));
  for (std::size_t i = 0; i < stuck_from_.size(); ++i) {
    a.u64(stuck_from_[i]);
    a.i64(stuck_event_[i]);
  }
  a.u32(static_cast<std::uint32_t>(ledger_.size()));
  for (const FaultEvent& e : ledger_) {
    a.u8(static_cast<std::uint8_t>(e.kind));
    a.u32(e.wire);
    a.u64(e.injected);
    a.u64(e.detected_at);
    a.b(e.closed);
    a.b(e.tolerated);
  }
  save_fault_stats(a, stats_);
  a.b(finalized_);
}

void FaultInjector::load(ckpt::ArchiveReader& a) {
  const std::uint32_t wires = a.u32();
  stuck_from_.resize(wires);
  stuck_event_.resize(wires);
  for (std::uint32_t i = 0; i < wires; ++i) {
    stuck_from_[i] = a.u64();
    stuck_event_[i] = static_cast<std::int32_t>(a.i64());
  }
  ledger_.clear();
  const std::uint32_t events = a.u32();
  ledger_.reserve(events);
  for (std::uint32_t i = 0; i < events; ++i) {
    FaultEvent e;
    e.kind = static_cast<FaultKind>(a.u8());
    e.wire = a.u32();
    e.injected = a.u64();
    e.detected_at = a.u64();
    e.closed = a.b();
    e.tolerated = a.b();
    ledger_.push_back(e);
  }
  load_fault_stats(a, stats_);
  finalized_ = a.b();
}

}  // namespace glocks::fault


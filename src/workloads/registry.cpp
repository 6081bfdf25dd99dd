#include "workloads/registry.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "workloads/apps.hpp"
#include "workloads/micro.hpp"

namespace glocks::workloads {

namespace {

std::uint32_t scaled(std::uint32_t value, double scale,
                     std::uint32_t floor_at = 1) {
  return std::max(floor_at,
                  static_cast<std::uint32_t>(std::lround(value * scale)));
}

MicroParams micro_params(double scale) {
  MicroParams p;
  p.total_iterations = scaled(
      static_cast<std::uint32_t>(p.total_iterations), scale, 32);
  return p;
}

}  // namespace

const std::vector<RegistryEntry>& registry() {
  static const std::vector<RegistryEntry> entries = {
      {"SCTR", true, "-", "1,000 iterations",
       [](double s) {
         return std::make_unique<SingleCounter>(micro_params(s));
       }},
      {"MCTR", true, "-", "1,000 iterations",
       [](double s) {
         return std::make_unique<MultipleCounter>(micro_params(s));
       }},
      {"DBLL", true, "-", "1,000 iterations",
       [](double s) {
         return std::make_unique<DoublyLinkedList>(micro_params(s));
       }},
      {"PRCO", true, "-", "1,000 iterations",
       [](double s) {
         return std::make_unique<ProducerConsumer>(micro_params(s));
       }},
      {"ACTR", true, "-", "1,000 iterations",
       [](double s) {
         return std::make_unique<AffinityCounter>(micro_params(s));
       }},
      {"RAYTR", false, "SCTR", "teapot (synthetic: 512 rays)",
       [](double s) {
         RaytraceLike::Params p;
         p.num_rays = scaled(p.num_rays, s, 64);
         return std::make_unique<RaytraceLike>(p);
       }},
      {"OCEAN", false, "SCTR", "258x258 (synthetic: 128x128)",
       [](double s) {
         OceanLike::Params p;
         p.timesteps = scaled(p.timesteps, s, 2);
         return std::make_unique<OceanLike>(p);
       }},
      {"QSORT", false, "PRCO", "16384 elements",
       [](double s) {
         QSort::Params p;
         p.num_elements = scaled(p.num_elements, s, 1024);
         return std::make_unique<QSort>(p);
       }},
  };
  return entries;
}

const RegistryEntry* find_workload(const std::string& name) {
  for (const auto& e : registry()) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

std::unique_ptr<harness::Workload> make_workload(const std::string& name,
                                                 double scale) {
  GLOCKS_CHECK(scale > 0.0 && scale <= 1.0,
               "workload scale must be in (0, 1], got " << scale);
  const RegistryEntry* e = find_workload(name);
  GLOCKS_CHECK(e != nullptr, "unknown workload: " << name);
  return e->make(scale);
}

std::vector<std::string> microbenchmark_names() {
  std::vector<std::string> out;
  for (const auto& e : registry()) {
    if (e.is_microbenchmark) out.push_back(e.name);
  }
  return out;
}

std::vector<std::string> application_names() {
  std::vector<std::string> out;
  for (const auto& e : registry()) {
    if (!e.is_microbenchmark) out.push_back(e.name);
  }
  return out;
}

}  // namespace glocks::workloads

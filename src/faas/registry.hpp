// Function registry: maps function ids to their implementation and the
// sandbox shape they require (vCPUs, memory, uLL flag) — the tenant-facing
// configuration surface of the platform. Also the workflow registry: a
// WorkflowSpec names a linear chain of registered functions with per-edge
// payload plumbing, validated at add_workflow() (every stage must exist;
// uLL-compatibility is recorded per adjacent pair so the fusion planner
// never re-derives it on the invoke path).
//
// Thread-safety: reads (find / find_by_name / find_workflow / size) take a
// shared lock and may run from any number of concurrently invoking
// control-plane shards; add() / add_workflow() take the exclusive lock.
// Specs live in deques so the `const FunctionSpec*` / `const WorkflowSpec*`
// handed out stay valid for the registry's lifetime even while later adds
// grow the containers.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/status.hpp"
#include "vmm/sandbox.hpp"
#include "workloads/function.hpp"

namespace horse::faas {

using FunctionId = std::uint32_t;
using WorkflowId = std::uint32_t;

/// Sentinel on Submission: "this is a plain function, not a chain".
inline constexpr WorkflowId kNoWorkflow = 0xffff'ffffU;

struct FunctionSpec {
  std::string name;
  std::shared_ptr<workloads::Function> implementation;
  vmm::SandboxConfig sandbox;
};

/// How a stage's response becomes the next stage's request.
enum class EdgePlumbing : std::uint8_t {
  /// The downstream stage receives the upstream request with the header
  /// replaced by the upstream response's rewritten_header (when set) —
  /// payload and threshold pass through untouched.
  kForwardHeader,
  /// As kForwardHeader, but the chain completes EARLY (success, the
  /// upstream response is the chain's response) when the upstream stage
  /// said `allowed == false` — firewall-style gating.
  kGated,
};

struct WorkflowEdge {
  EdgePlumbing plumbing = EdgePlumbing::kForwardHeader;
  /// Recorded at add_workflow(): both endpoint stages are uLL and their
  /// sandbox shapes are co-locatable (equal vCPU count, downstream memory
  /// fits in the upstream shape), so the fusion planner may run them
  /// back-to-back in one resumed sandbox.
  bool fusable = false;
};

/// A linear DAG of registered functions, routed (and crash-recovered) as
/// one unit. `edges[i]` plumbs stages[i] → stages[i+1].
struct WorkflowSpec {
  std::string name;
  std::vector<FunctionId> stages;
  std::vector<WorkflowEdge> edges;  // always stages.size() - 1 after add
};

/// One contiguous run of a chain, as the fusion planner partitions it.
/// A fused segment (`end - begin > 1`, every interior edge fusable) runs
/// as a single warm/horse resume; a singleton segment dispatches as an
/// ordinary per-stage invocation.
struct ChainSegment {
  std::uint32_t begin = 0;  // stage index, inclusive
  std::uint32_t end = 0;    // stage index, exclusive
  bool fused = false;
};

/// Partition a chain's stages [from_hop, n) into maximal runs of adjacent
/// fusable edges. Pure function of the spec's recorded edge flags, so a
/// re-dispatched chain re-plans identically from its hop cursor.
[[nodiscard]] inline std::vector<ChainSegment> plan_fusion(
    const WorkflowSpec& workflow, std::uint32_t from_hop = 0) {
  std::vector<ChainSegment> out;
  const auto n = static_cast<std::uint32_t>(workflow.stages.size());
  std::uint32_t begin = from_hop;
  while (begin < n) {
    std::uint32_t end = begin + 1;
    while (end < n && workflow.edges[end - 1].fusable) {
      ++end;
    }
    out.push_back({begin, end, end - begin > 1});
    begin = end;
  }
  return out;
}

/// Apply one edge's plumbing: rewrite `request` in place from the
/// upstream `response`. Returns false when a kGated edge stops the chain
/// (early success — the upstream response is the chain's final response).
[[nodiscard]] inline bool apply_edge(const WorkflowEdge& edge,
                                     const workloads::Response& response,
                                     workloads::Request& request) {
  if (edge.plumbing == EdgePlumbing::kGated && !response.allowed) {
    return false;
  }
  if (!response.rewritten_header.empty()) {
    request.header = response.rewritten_header;
  }
  return true;
}

class FunctionRegistry {
 public:
  /// Register a function; the sandbox config's `ull` flag should be set
  /// for workloads that need the HORSE fast path. Returns the new id.
  util::Expected<FunctionId> add(FunctionSpec spec);

  /// The returned pointer is stable for the registry's lifetime.
  [[nodiscard]] util::Expected<const FunctionSpec*> find(FunctionId id) const;
  [[nodiscard]] util::Expected<FunctionId> find_by_name(
      const std::string& name) const;

  /// Register a workflow chain. Validated here, not on the invoke path:
  /// the chain must be non-empty, every stage must already be registered,
  /// and `edges` must be empty (defaults) or exactly stages-1 long. Each
  /// edge's `fusable` flag is computed from the endpoint specs and
  /// recorded on the stored spec — whatever the caller passed in is
  /// overwritten. Returns the new workflow id.
  util::Expected<WorkflowId> add_workflow(WorkflowSpec spec);

  /// The returned pointer is stable for the registry's lifetime.
  [[nodiscard]] util::Expected<const WorkflowSpec*> find_workflow(
      WorkflowId id) const;

  [[nodiscard]] std::size_t size() const {
    std::shared_lock lock(mutex_);
    return specs_.size();
  }

  [[nodiscard]] std::size_t workflow_count() const {
    std::shared_lock lock(mutex_);
    return workflows_.size();
  }

 private:
  mutable std::shared_mutex mutex_;
  std::deque<FunctionSpec> specs_;  // deque: stable addresses across add()
  std::unordered_map<std::string, FunctionId> by_name_;
  std::deque<WorkflowSpec> workflows_;  // same stability contract
  std::unordered_map<std::string, WorkflowId> workflows_by_name_;
};

inline util::Expected<FunctionId> FunctionRegistry::add(FunctionSpec spec) {
  if (spec.name.empty() || spec.implementation == nullptr) {
    return util::Status{util::StatusCode::kInvalidArgument,
                        "registry: function needs a name and implementation"};
  }
  std::unique_lock lock(mutex_);
  if (by_name_.contains(spec.name)) {
    return util::Status{util::StatusCode::kAlreadyExists,
                        "registry: duplicate function name " + spec.name};
  }
  const auto id = static_cast<FunctionId>(specs_.size());
  by_name_.emplace(spec.name, id);
  specs_.push_back(std::move(spec));
  return id;
}

inline util::Expected<const FunctionSpec*> FunctionRegistry::find(
    FunctionId id) const {
  std::shared_lock lock(mutex_);
  if (id >= specs_.size()) {
    return util::Status{util::StatusCode::kNotFound,
                        "registry: unknown function id"};
  }
  return &specs_[id];
}

inline util::Expected<FunctionId> FunctionRegistry::find_by_name(
    const std::string& name) const {
  std::shared_lock lock(mutex_);
  const auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return util::Status{util::StatusCode::kNotFound,
                        "registry: unknown function " + name};
  }
  return it->second;
}

inline util::Expected<WorkflowId> FunctionRegistry::add_workflow(
    WorkflowSpec spec) {
  if (spec.name.empty()) {
    return util::Status{util::StatusCode::kInvalidArgument,
                        "registry: workflow needs a name"};
  }
  if (spec.stages.empty()) {
    return util::Status{util::StatusCode::kInvalidArgument,
                        "registry: workflow " + spec.name + " has no stages"};
  }
  if (!spec.edges.empty() && spec.edges.size() != spec.stages.size() - 1) {
    return util::Status{
        util::StatusCode::kInvalidArgument,
        "registry: workflow " + spec.name + " needs stages-1 edges"};
  }
  std::unique_lock lock(mutex_);
  if (workflows_by_name_.contains(spec.name)) {
    return util::Status{util::StatusCode::kAlreadyExists,
                        "registry: duplicate workflow name " + spec.name};
  }
  for (const FunctionId stage : spec.stages) {
    if (stage >= specs_.size()) {
      return util::Status{
          util::StatusCode::kInvalidArgument,
          "registry: workflow " + spec.name + " references unknown stage id " +
              std::to_string(stage)};
    }
  }
  if (spec.edges.empty()) {
    spec.edges.resize(spec.stages.size() - 1);
  }
  // Record uLL co-locatability per adjacent pair so the fusion planner is
  // a pure table lookup on the invoke path: both stages must want the
  // HORSE fast path, run on the same vCPU count, and the downstream image
  // must fit inside the upstream sandbox it would share.
  for (std::size_t i = 0; i + 1 < spec.stages.size(); ++i) {
    const vmm::SandboxConfig& a = specs_[spec.stages[i]].sandbox;
    const vmm::SandboxConfig& b = specs_[spec.stages[i + 1]].sandbox;
    spec.edges[i].fusable = a.ull && b.ull && a.num_vcpus == b.num_vcpus &&
                            b.memory_mb <= a.memory_mb;
  }
  const auto id = static_cast<WorkflowId>(workflows_.size());
  workflows_by_name_.emplace(spec.name, id);
  workflows_.push_back(std::move(spec));
  return id;
}

inline util::Expected<const WorkflowSpec*> FunctionRegistry::find_workflow(
    WorkflowId id) const {
  std::shared_lock lock(mutex_);
  if (id >= workflows_.size()) {
    return util::Status{util::StatusCode::kNotFound,
                        "registry: unknown workflow id"};
  }
  return &workflows_[id];
}

}  // namespace horse::faas

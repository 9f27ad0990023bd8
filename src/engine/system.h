// The simulated parallel database machine: P operator nodes + a scheduler
// node, terminals driving a closed multiprogramming workload, the query
// manager/scheduler protocol, and the select operators.
//
// Execution of one query (paper figure 7 model):
//   terminal -> query manager (plan CPU, MAGIC directory search)
//            -> scheduler activates each participating operator node with a
//               control message (the per-processor cost of participation)
//            -> operator: index + data page I/O, per-tuple CPU, result
//               packets to the scheduler
//            -> done message per site; commit message per site
//   BERD queries on the secondary attribute first run the auxiliary-lookup
//   phase on the aux nodes, then the data phase (two sequential steps).
//
// Fault handling (armed only when SystemConfig.fault_plan is set): chained
// declustering keeps a backup of node n's fragment on node (n+1) mod N.
// Page reads retry transient errors with capped exponential backoff; a site
// whose disk/node has failed is re-executed against the backup copy; every
// operation is bounded by a per-query deadline. Failed queries are counted
// in Metrics::faults() and the issuing terminal backs off briefly so a
// zero-cost failure cannot spin the closed loop.
#pragma once

#include <limits>
#include <memory>
#include <vector>

#include "src/audit/audit.h"
#include "src/common/random.h"
#include "src/engine/catalog.h"
#include "src/engine/metrics.h"
#include "src/engine/operators.h"
#include "src/engine/scheduler.h"
#include "src/hw/node.h"
#include "src/obs/probe.h"
#include "src/sim/fault.h"
#include "src/workload/open.h"
#include "src/workload/querygen.h"

namespace declust::recover {
class RecoveryCoordinator;
}  // namespace declust::recover

namespace declust::resize {
class MigrationCoordinator;
}  // namespace declust::resize

namespace declust::control {
class ControlCoordinator;
}  // namespace declust::control

namespace declust::engine {

/// \brief Everything configurable about a run.
struct SystemConfig {
  hw::HwParams hw;
  CatalogOptions catalog;
  OperatorCosts costs;
  /// Number of terminals continuously issuing queries (the paper's
  /// multiprogramming level).
  int multiprogramming_level = 1;
  uint64_t seed = 1;
  /// Schema attribute ids of the two partitioning attributes (A has the
  /// non-clustered index, B the clustered one).
  storage::AttrId attr_a = 0;
  storage::AttrId attr_b = 1;
  /// Per-node buffer-pool capacity in pages (0 = no caching, the paper's
  /// model). Extension; see bench/ablation_buffer.
  int64_t buffer_pool_pages = 0;
  /// Mean exponential think time between a terminal's queries (0 = the
  /// paper's zero-think-time closed system).
  double think_time_ms = 0.0;
  /// Optional fault-injection plan (non-owning; must outlive the System).
  /// When set (and non-empty), Init() arms the fault injector and builds
  /// chained-declustering backups; events may target operator nodes only.
  const sim::FaultPlan* fault_plan = nullptr;
  /// Retry/backoff/deadline knobs; only consulted when faults occur.
  FailoverPolicy failover;
  /// Optional observability probe (non-owning; must outlive the System).
  /// When set, every query gets a cost breakdown and — if the probe carries
  /// a Tracer — a span tree. When null, zero obs work runs anywhere.
  obs::Probe* probe = nullptr;
  /// Optional invariant auditor (non-owning; must outlive the System).
  /// When set, the engine reports query submissions/completions, per-site
  /// dispatch/finish and planner activations so conservation identities are
  /// checked live (src/audit). The caller usually also installs it on the
  /// Simulation (sim::Simulation::SetAuditHook) for calendar coverage.
  /// When null, the default path pays one branch per hook site.
  audit::Auditor* audit = nullptr;
  /// Optional recovery coordinator (non-owning; must outlive the System).
  /// When set, SiteUp() also requires the coordinator to be serving the
  /// node's primary fragment — a physically repaired disk stays out of the
  /// query path until its rebuild finishes and the address flips back
  /// (src/recover). The caller Arm()s and Start()s the coordinator around
  /// Init()/Start(). When null, zero recovery work runs anywhere.
  recover::RecoveryCoordinator* recovery = nullptr;
  /// Optional elastic-membership coordinator (non-owning; must outlive the
  /// System). When set, Init() builds the catalog on the coordinator's
  /// initial placement (logical slices striped over the initial members),
  /// query coordinators round-robin over the *current* members, each data
  /// site resolves its slice's owner at dispatch time — redirecting once to
  /// the new owner when a migration epoch flip races the dispatch — and a
  /// drained-and-retired node serves nothing (src/resize). The caller
  /// Arm()s and Start()s the coordinator around Init()/Start(). When null,
  /// the default path pays one branch per hook site.
  resize::MigrationCoordinator* resize = nullptr;
  /// Optional open-system plan (non-owning; must outlive the System). When
  /// set (and non-empty), Start() spawns a Poisson/burst arrival process
  /// instead of the closed terminals; multiprogramming_level is ignored and
  /// the plan's admission cap bounds the in-flight queries. Combines with
  /// `resize` (arrivals keep coming while slices migrate) but not with
  /// `recovery` (the rebuild driver assumes the closed loop's pacing).
  const workload::OpenPlan* open = nullptr;
  /// Optional closed-loop controller (non-owning; must outlive the System).
  /// When set, the open driver sheds at the controller's effective
  /// admission cap (sheds below the plan cap are controller sheds,
  /// audit::ShedClass::kController) and every completed query's response
  /// feeds the controller's observation window. Requires `resize` (the
  /// plan-less migration coordinator is the controller's actuator). When
  /// null, the default path pays one branch per hook site.
  control::ControlCoordinator* control = nullptr;
  /// Additional relations for multi-relation open runs. Each gets its own
  /// catalog whose extents live on the SAME simulated disks as the base
  /// relation's, so their queries contend for the same spindles. Index i
  /// here is QueryInstance::relation == i + 1; the base relation is 0.
  struct ExtraRelation {
    const storage::Relation* relation = nullptr;
    const decluster::Partitioning* partitioning = nullptr;
  };
  std::vector<ExtraRelation> extra_relations;
  /// Optional prebuilt catalogs (BuildCatalogSet of a config that matches
  /// this one in everything the catalog reads). A sweep builds one set per
  /// strategy and hands it to every replication that does not migrate;
  /// Init() reads it as is and rejects it when `resize` is set, since
  /// migration mutates placement. When null, Init() builds the set itself.
  std::shared_ptr<const CatalogSet> catalogs;
};

/// Builds the catalogs a System with `config` reads: the base relation's
/// catalog — with chained backups when a non-empty fault plan is armed on
/// a multi-node machine, and on the resize coordinator's initial placement
/// when one is set — plus one catalog per extra relation on the base
/// catalog's disks. Depends on neither the multiprogramming level nor the
/// seed, so one set serves every point of a sweep's strategy.
Result<std::unique_ptr<CatalogSet>> BuildCatalogSet(
    const SystemConfig& config, const storage::Relation* relation,
    const decluster::Partitioning* partitioning);

/// \brief One simulated system instance bound to a Simulation.
class System {
 public:
  /// The relation, partitioning and workload must outlive the System.
  System(sim::Simulation* sim, SystemConfig config,
         const storage::Relation* relation,
         const decluster::Partitioning* partitioning,
         const workload::Workload* workload);

  /// Builds the catalog and the machine. Must be called before Start().
  Status Init();

  /// Spawns the terminal processes.
  void Start();

  Metrics& metrics() { return metrics_; }
  hw::Machine& machine() { return *machine_; }
  const SystemCatalog& catalog() const { return *catalogs_->base; }
  /// Mutable catalog handle for arming a MigrationCoordinator (which
  /// relocates fragments through it). Null before Init() and when the
  /// System reads a shared set: only a catalog this System built may
  /// change.
  SystemCatalog* mutable_catalog() { return owned_base_; }
  /// Node id of the query-manager host (one past the operator nodes).
  /// Per-query schedulers run round-robin on the operator nodes.
  int host_node() const { return config_.hw.num_processors; }

 private:
  /// Per-query failure state shared by the scheduler and its sites.
  struct QueryContext {
    sim::SimTime deadline_ms = std::numeric_limits<double>::infinity();
    Status status;             // first site failure, if any
    std::vector<int> serving;  // node that actually served data site i
    void Merge(const Status& st) {
      if (status.ok()) status = st;
    }
  };

  /// Reusable per-terminal query state. A terminal runs one query at a
  /// time, so its scratch (context + site list) lives on the TerminalLoop
  /// frame and is recycled query after query — the vectors keep their
  /// capacity, so steady-state dispatch stops allocating.
  struct QueryScratch {
    QueryContext ctx;
    decluster::PlanSites sites;
  };

  /// Pooled AccessPlan storage: sites of concurrent queries interleave, so
  /// each in-flight site execution borrows one plan object and returns it
  /// when done. Released plans keep their vectors' capacity.
  AccessPlan* AcquirePlan();
  void ReleasePlan(AccessPlan* plan);

  sim::Task<> TerminalLoop(RandomStream rng);
  /// Open-system driver: Poisson arrivals at the plan's (time-varying)
  /// rate plus burst spikes; redraws the exponential gap at every schedule
  /// boundary (memoryless, so the redraw is exact). Each admitted arrival
  /// runs as an independent OpenSession; arrivals beyond the admission cap
  /// are shed and counted.
  sim::Task<> OpenArrivalLoop(RandomStream rng);
  /// One open-system query: the body of a terminal iteration without the
  /// loop or think time. Decrements the in-flight gauge when done.
  sim::Task<> OpenSession(workload::QueryInstance q);
  /// Admits or sheds one arrival (the cap check and the audit/metric hooks).
  void AdmitArrival();

  /// Pooled QueryScratch for open sessions (terminals keep theirs on the
  /// loop frame): concurrent sessions interleave, so each borrows one.
  QueryScratch* AcquireScratch();
  void ReleaseScratch(QueryScratch* scratch);

  sim::Task<Status> ExecuteQuery(workload::QueryInstance q,
                                 QueryScratch* scratch, obs::QueryObs* qo);

  /// The spawned site coroutines get their own QueryObs (sharing the query
  /// id and parent span) whose costs are merged into `qo` before the join
  /// fires; sites of one query interleave, so they cannot share one span
  /// cursor or ArmHw through the same handle. `slice` is the partitioning
  /// fragment id; the node that executes it is resolved at dispatch time
  /// (the identity without an elastic plan).
  /// `rel` selects the relation binding (catalog + partitioning) the site
  /// reads; 0 is the base relation, 1.. the open plan's extra relations.
  sim::Task<> RunDataSite(int rel, int coord, size_t site_idx, int slice,
                          Predicate pred, bool sequential_scan,
                          QueryContext* ctx, sim::JoinCounter* join,
                          obs::QueryObs* qo);
  /// Runs one data site: resolves the slice's owner, retries once on the
  /// new owner if a migration flip raced the dispatch, and fails over to
  /// the chained backup if the primary is (or goes) down.
  sim::Task<Status> DataSiteSelect(int rel, int coord, size_t site_idx,
                                   int slice, Predicate pred,
                                   bool sequential_scan, QueryContext* ctx,
                                   obs::QueryObs* qo);
  /// One select execution at `exec_node` reading `slice`'s primary
  /// fragment (or its backup copy when `backup_read`).
  sim::Task<Status> RunSiteOnce(int rel, int coord, int exec_node, int slice,
                                bool backup_read, Predicate pred,
                                bool sequential_scan, QueryContext* ctx,
                                obs::QueryObs* qo);

  sim::Task<> RunAuxSite(int rel, int coord, int slice, Predicate pred,
                         QueryContext* ctx, sim::JoinCounter* join,
                         obs::QueryObs* qo);
  sim::Task<Status> AuxSiteLookup(int rel, int coord, int slice,
                                  Predicate pred, QueryContext* ctx,
                                  obs::QueryObs* qo);
  sim::Task<Status> AuxSiteOnce(int rel, int coord, int exec_node, int slice,
                                bool backup_read, Predicate pred,
                                QueryContext* ctx, obs::QueryObs* qo);

  /// True when `node`'s disk (and the node itself) is currently serviceable.
  bool SiteUp(int node);

  sim::Simulation* sim_;
  int next_coordinator_ = 0;
  int64_t next_query_id_ = 0;
  SystemConfig config_;
  const storage::Relation* relation_;
  const decluster::Partitioning* partitioning_;
  const workload::Workload* workload_;

  std::unique_ptr<hw::Machine> machine_;
  /// The catalogs queries read: config_.catalogs, or a set this System
  /// built (then `owned_base_` is its base, writable).
  std::shared_ptr<const CatalogSet> catalogs_;
  SystemCatalog* owned_base_ = nullptr;
  /// Plan-construction scratch; planning never suspends, so the sites of
  /// every in-flight query can take turns with one.
  PlanScratch plan_scratch_;
  std::unique_ptr<workload::QueryGenerator> querygen_;
  std::vector<std::unique_ptr<BufferPool>> pools_;  // empty when disabled
  std::vector<std::unique_ptr<AccessPlan>> plan_storage_;
  std::vector<AccessPlan*> plan_free_;
  Metrics metrics_;

  /// Per-relation planning state; [0] is the base relation, the rest are
  /// the open plan's extra relations (their catalogs share the base
  /// relation's disks).
  struct RelationBinding {
    const decluster::Partitioning* partitioning = nullptr;
    const SystemCatalog* catalog = nullptr;
  };
  std::vector<RelationBinding> bindings_;
  std::unique_ptr<workload::OpenQueryGenerator> opengen_;
  std::vector<std::unique_ptr<QueryScratch>> scratch_storage_;
  std::vector<QueryScratch*> scratch_free_;
  int open_in_flight_ = 0;
};

}  // namespace declust::engine

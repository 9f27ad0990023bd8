#include "src/engine/system.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "src/control/controller.h"
#include "src/recover/recovery.h"
#include "src/resize/migrate.h"

namespace declust::engine {

Result<std::unique_ptr<CatalogSet>> BuildCatalogSet(
    const SystemConfig& config, const storage::Relation* relation,
    const decluster::Partitioning* partitioning) {
  // Chained declustering is required to survive a permanent disk loss; arm
  // it whenever a fault plan is present (a single-node machine has nowhere
  // to put a backup).
  CatalogOptions opts = config.catalog;
  if (config.fault_plan != nullptr && !config.fault_plan->empty() &&
      config.hw.num_processors > 1) {
    opts.chained_backups = true;
  }
  // Under an elastic plan the catalog is built on the coordinator's initial
  // placement (slices striped over the initial members); the physical
  // machine is sized for the largest membership the plan reaches, which the
  // caller already wrote into hw.num_processors.
  PlacementSpec placement;
  const PlacementSpec* placement_ptr = nullptr;
  if (config.resize != nullptr) {
    placement = config.resize->InitialPlacement();
    placement_ptr = &placement;
  }
  auto set = std::make_unique<CatalogSet>();
  DECLUST_ASSIGN_OR_RETURN(
      set->base,
      SystemCatalog::Build(relation, partitioning, config.attr_a,
                           config.attr_b, config.hw, opts, placement_ptr));
  // Extra relations (open multi-relation runs) get catalogs allocated on
  // the SAME disks as the base relation's, so their queries contend for
  // the same spindles.
  for (const auto& er : config.extra_relations) {
    if (er.relation == nullptr || er.partitioning == nullptr) {
      return Status::InvalidArgument("null extra relation or partitioning");
    }
    DECLUST_ASSIGN_OR_RETURN(
        auto extra,
        SystemCatalog::Build(er.relation, er.partitioning, config.attr_a,
                             config.attr_b, config.hw, opts,
                             /*placement=*/nullptr, set->base.get()));
    set->extras.push_back(std::move(extra));
  }
  return set;
}

System::System(sim::Simulation* sim, SystemConfig config,
               const storage::Relation* relation,
               const decluster::Partitioning* partitioning,
               const workload::Workload* workload)
    : sim_(sim),
      config_(config),
      relation_(relation),
      partitioning_(partitioning),
      workload_(workload),
      metrics_(static_cast<int>(workload->classes.size())) {}

Status System::Init() {
  const bool faults_armed =
      config_.fault_plan != nullptr && !config_.fault_plan->empty();
  if (faults_armed &&
      config_.fault_plan->max_node() >= config_.hw.num_processors) {
    return Status::InvalidArgument(
        "fault plan targets node " +
        std::to_string(config_.fault_plan->max_node()) + " but only " +
        std::to_string(config_.hw.num_processors) +
        " operator nodes exist (the query-manager host cannot fail)");
  }

  // One extra node hosts the query manager (the entry point of figure 7);
  // per-query scheduler processes are placed round-robin on the operator
  // nodes, as in Gamma, so coordination work scales with the machine.
  hw::HwParams machine_params = config_.hw;
  machine_params.num_processors = config_.hw.num_processors + 1;
  machine_ = std::make_unique<hw::Machine>(
      sim_, machine_params, RandomStream(config_.seed), config_.fault_plan,
      config_.seed, config_.probe);

  // A shared set is read as is; a System that migrates fragments mutates
  // its catalog, so it must own it.
  if (config_.catalogs == nullptr) {
    DECLUST_ASSIGN_OR_RETURN(
        std::unique_ptr<CatalogSet> owned,
        BuildCatalogSet(config_, relation_, partitioning_));
    owned_base_ = owned->base.get();
    catalogs_ = std::move(owned);
  } else if (config_.resize != nullptr) {
    return Status::InvalidArgument(
        "a System with a resize coordinator migrates fragments and cannot "
        "read a shared catalog set");
  } else {
    catalogs_ = config_.catalogs;
  }
  if (catalogs_->extras.size() != config_.extra_relations.size()) {
    return Status::InvalidArgument(
        "catalog set does not match the configured extra relations");
  }
  const SystemCatalog& base = *catalogs_->base;
  if (config_.resize != nullptr) metrics_.BindSlices(base.num_slices());

  // Per-relation planning state: the base relation, then the extras.
  bindings_.push_back(RelationBinding{partitioning_, &base});
  for (size_t i = 0; i < config_.extra_relations.size(); ++i) {
    bindings_.push_back(RelationBinding{config_.extra_relations[i].partitioning,
                                        catalogs_->extras[i].get()});
  }

  querygen_ = std::make_unique<workload::QueryGenerator>(
      workload_, relation_->cardinality(),
      RandomStream(config_.seed).Fork(0xABCD));

  const bool open_armed = config_.open != nullptr && !config_.open->empty();
  if (config_.control != nullptr && config_.resize == nullptr) {
    return Status::InvalidArgument(
        "a control coordinator needs an elastic migration coordinator");
  }
  if (open_armed) {
    std::vector<int64_t> domains{relation_->cardinality()};
    std::vector<double> weights{1.0};
    const auto& specs = config_.open->extra_relations();
    for (size_t i = 0; i < config_.extra_relations.size(); ++i) {
      domains.push_back(config_.extra_relations[i].relation->cardinality());
      weights.push_back(i < specs.size() ? specs[i].weight : 1.0);
    }
    opengen_ = std::make_unique<workload::OpenQueryGenerator>(
        workload_, config_.open, std::move(domains), std::move(weights),
        RandomStream(config_.seed).Fork(0xABCD));
    metrics_.EnableOpen();
  }
  if (config_.control != nullptr) metrics_.EnableControl();

  if (config_.audit != nullptr) {
    // Slice ids and node ids share one id space; an elastic run may use
    // more slices than nodes, so the audit range covers both. The open
    // driver's in-flight bound is the admission cap, not the terminal count.
    const int audit_range =
        config_.resize != nullptr
            ? std::max(config_.hw.num_processors, base.num_slices())
            : config_.hw.num_processors;
    const int in_flight_bound = open_armed ? config_.open->max_in_flight()
                                           : config_.multiprogramming_level;
    config_.audit->BindSystem(in_flight_bound, audit_range);
  }

  if (config_.buffer_pool_pages > 0) {
    pools_.reserve(static_cast<size_t>(config_.hw.num_processors));
    for (int n = 0; n < config_.hw.num_processors; ++n) {
      pools_.push_back(
          std::make_unique<BufferPool>(config_.buffer_pool_pages));
    }
  }
  return Status::OK();
}

void System::Start() {
  if (opengen_ != nullptr) {
    sim_->Spawn(OpenArrivalLoop(RandomStream(config_.seed).Fork(0x09E5)));
    return;
  }
  RandomStream rng = RandomStream(config_.seed).Fork(0x7157);
  for (int t = 0; t < config_.multiprogramming_level; ++t) {
    sim_->Spawn(TerminalLoop(rng.Fork(static_cast<uint64_t>(t))));
  }
}

bool System::SiteUp(int node) {
  sim::FaultInjector* inj = machine_->injector();
  if (inj != nullptr && !inj->DiskAvailable(node, sim_->now())) return false;
  // A repaired disk serves no foreground reads until its rebuild finishes
  // and the recovery coordinator flips the address back to the primary; a
  // removed node serves nothing once drained and retired.
  return (config_.recovery == nullptr ||
          config_.recovery->ServingPrimary(node)) &&
         (config_.resize == nullptr || config_.resize->NodeServing(node));
}

AccessPlan* System::AcquirePlan() {
  if (!plan_free_.empty()) {
    AccessPlan* p = plan_free_.back();
    plan_free_.pop_back();
    return p;
  }
  plan_storage_.push_back(std::make_unique<AccessPlan>());
  AccessPlan* p = plan_storage_.back().get();
  // Scans and clustered ranges emit O(1) page runs, so a pooled plan no
  // longer needs a full-fragment page list up front (which made every plan
  // O(pages) — the setup-memory bottleneck at 10M+ tuples). Start with a
  // modest reserve; non-clustered page lists warm to the mix's high-water
  // mark during warmup and ReleasePlan keeps the capacity, so the steady
  // state stays heap-silent (tests/sim/alloc_count_test.cc).
  p->data_pages.reserve(64);
  p->index_pages.reserve(64);
  p->data_runs.reserve(8);
  return p;
}

void System::ReleasePlan(AccessPlan* plan) {
  plan->clear();
  plan_free_.push_back(plan);
}

System::QueryScratch* System::AcquireScratch() {
  if (!scratch_free_.empty()) {
    QueryScratch* s = scratch_free_.back();
    scratch_free_.pop_back();
    return s;
  }
  scratch_storage_.push_back(std::make_unique<QueryScratch>());
  return scratch_storage_.back().get();
}

void System::ReleaseScratch(QueryScratch* scratch) {
  scratch_free_.push_back(scratch);
}

void System::AdmitArrival() {
  metrics_.RecordArrival();
  if (config_.audit != nullptr) config_.audit->OnQueryArrival();
  // The effective cap is the plan cap unless the controller has tightened
  // admission below it; a shed the plan cap alone would not have caused is
  // the controller's doing and is classified (and audited) as such.
  const int plan_cap = config_.open->max_in_flight();
  int cap = plan_cap;
  if (config_.control != nullptr) {
    const int ctl_cap = config_.control->effective_admission_cap();
    if (ctl_cap >= 0 && ctl_cap < cap) cap = ctl_cap;
  }
  if (open_in_flight_ >= cap) {
    metrics_.RecordShed();
    const bool by_controller = open_in_flight_ < plan_cap;
    if (by_controller) metrics_.RecordControlShed();
    if (config_.audit != nullptr) {
      config_.audit->OnQueryShed(by_controller
                                     ? audit::ShedClass::kController
                                     : audit::ShedClass::kAdmissionCap);
    }
    return;
  }
  ++open_in_flight_;
  sim_->Spawn(OpenSession(opengen_->Next()));
}

sim::Task<> System::OpenArrivalLoop(RandomStream rng) {
  const workload::OpenPlan& plan = *config_.open;
  size_t next_burst = 0;
  for (;;) {
    const double now = sim_->now();
    while (next_burst < plan.bursts().size() &&
           plan.bursts()[next_burst].at_ms <= now) {
      for (int i = 0; i < plan.bursts()[next_burst].count; ++i) {
        AdmitArrival();
      }
      ++next_burst;
    }
    const double rate = plan.RateAt(now);
    const double boundary = plan.NextBoundaryAfter(now);
    if (rate <= 0.0) {
      if (std::isinf(boundary)) co_return;  // nothing will ever arrive again
      co_await sim_->WaitFor(boundary - now);
      continue;
    }
    const double gap_ms = rng.Exponential(1000.0 / rate);
    if (!std::isinf(boundary) && now + gap_ms >= boundary) {
      // The schedule changes first: jump to the boundary and redraw there.
      // Exponential gaps are memoryless, so discarding the draw is exact.
      co_await sim_->WaitFor(boundary - now);
      continue;
    }
    co_await sim_->WaitFor(gap_ms);
    AdmitArrival();
  }
}

sim::Task<> System::OpenSession(workload::QueryInstance q) {
  // One query's worth of TerminalLoop's body: no loop, no think time; the
  // arrival process (not a completion) decides when the next query starts.
  QueryScratch* scratch = AcquireScratch();
  const sim::SimTime start = sim_->now();
  obs::QueryObs qo{config_.probe, next_query_id_++, 0, {}};
  qo.span = obs::BeginSpan(&qo, "query", obs::Component::kQuery, host_node(),
                           start);
  if (config_.audit != nullptr) config_.audit->OnQuerySubmitted();
  const Status st = co_await ExecuteQuery(q, scratch, &qo);
  obs::EndSpan(&qo, qo.span, sim_->now());
  if (config_.probe != nullptr) config_.probe->ClearContext();
  if (st.ok()) {
    metrics_.RecordCompletion(q.class_index, sim_->now() - start,
                              config_.probe != nullptr ? &qo.costs : nullptr);
    if (config_.recovery != nullptr) {
      config_.recovery->OnQueryCompleted(sim_->now(), sim_->now() - start);
    }
    if (config_.resize != nullptr) {
      config_.resize->OnQueryCompleted(sim_->now(), sim_->now() - start);
    }
    if (config_.control != nullptr) {
      config_.control->OnQueryCompleted(sim_->now() - start);
    }
    if (config_.audit != nullptr) {
      config_.audit->OnQueryCompleted(
          qo.query, sim_->now() - start,
          config_.probe != nullptr ? &qo.costs : nullptr);
    }
  } else {
    metrics_.RecordFailure(q.class_index);
    if (config_.audit != nullptr) config_.audit->OnQueryFailed(qo.query);
  }
  ReleaseScratch(scratch);
  --open_in_flight_;
}

sim::Task<> System::TerminalLoop(RandomStream rng) {
  // Closed system: each terminal has at most one query outstanding. The
  // paper uses zero think time; a mean think time can be configured.
  QueryScratch scratch;
  for (;;) {
    if (config_.think_time_ms > 0) {
      co_await sim_->WaitFor(rng.Exponential(config_.think_time_ms));
    }
    const workload::QueryInstance q = querygen_->Next();
    const sim::SimTime start = sim_->now();
    // One QueryObs per query; it is a cheap stack struct even when the
    // probe is off (qo.probe == nullptr => every obs helper is a no-op).
    obs::QueryObs qo{config_.probe, next_query_id_++, 0, {}};
    qo.span = obs::BeginSpan(&qo, "query", obs::Component::kQuery,
                             host_node(), start);
    if (config_.audit != nullptr) config_.audit->OnQuerySubmitted();
    const Status st = co_await ExecuteQuery(q, &scratch, &qo);
    obs::EndSpan(&qo, qo.span, sim_->now());
    if (config_.probe != nullptr) config_.probe->ClearContext();
    if (st.ok()) {
      metrics_.RecordCompletion(q.class_index, sim_->now() - start,
                                config_.probe != nullptr ? &qo.costs
                                                         : nullptr);
      if (config_.recovery != nullptr) {
        config_.recovery->OnQueryCompleted(sim_->now(), sim_->now() - start);
      }
      if (config_.resize != nullptr) {
        config_.resize->OnQueryCompleted(sim_->now(), sim_->now() - start);
      }
      if (config_.control != nullptr) {
        config_.control->OnQueryCompleted(sim_->now() - start);
      }
      if (config_.audit != nullptr) {
        config_.audit->OnQueryCompleted(
            qo.query, sim_->now() - start,
            config_.probe != nullptr ? &qo.costs : nullptr);
      }
    } else {
      metrics_.RecordFailure(q.class_index);
      if (config_.audit != nullptr) config_.audit->OnQueryFailed(qo.query);
      // A failure detected at dispatch costs zero simulated time; without a
      // pause the closed loop would spin forever at one instant.
      if (config_.failover.failed_query_backoff_ms > 0) {
        co_await sim_->WaitFor(config_.failover.failed_query_backoff_ms);
      }
    }
  }
}

sim::Task<Status> System::ExecuteQuery(workload::QueryInstance q,
                                       QueryScratch* scratch,
                                       obs::QueryObs* qo) {
  const Predicate pred{q.attr, q.lo, q.hi};
  const bool scan =
      workload_->classes[static_cast<size_t>(q.class_index)].sequential_scan;
  const int rel = q.relation;
  const RelationBinding& rb = bindings_[static_cast<size_t>(rel)];

  // The query manager (host node) dispatches the query to its scheduler
  // process, allocated round-robin over the operator nodes (the *current*
  // members under an elastic plan, so leaving nodes shed coordinator work
  // the instant the membership flips).
  const int coord =
      config_.resize != nullptr
          ? config_.resize->CoordinatorNode(next_coordinator_++)
          : next_coordinator_++ % config_.hw.num_processors;
  QueryContext& ctx = scratch->ctx;
  ctx.status = Status::OK();
  ctx.serving.clear();
  ctx.deadline_ms = sim_->now() + config_.failover.query_deadline_ms;
  DECLUST_CO_RETURN_NOT_OK(
      co_await DeliverMessage(sim_, &machine_->network(), host_node(), coord,
                              config_.hw.control_message_bytes, qo));

  // Scheduler: build the plan; MAGIC pays the grid-directory search.
  hw::Cpu& coord_cpu = machine_->node(coord).cpu();
  const double plan_ms = config_.hw.InstrMs(config_.costs.plan_instructions) +
                         rb.partitioning->PlanningCpuMs(pred);
  const uint64_t plan_span = obs::BeginSpan(
      qo, "plan", obs::Component::kScheduler, coord, sim_->now());
  obs::ArmHw(qo, plan_span);
  const Status plan_st = co_await coord_cpu.RunMs(plan_ms);
  obs::EndSpan(qo, plan_span, sim_->now());
  DECLUST_CO_RETURN_NOT_OK(plan_st);

  rb.partitioning->SitesForInto(pred, &scratch->sites);
  const decluster::PlanSites& sites = scratch->sites;
  if (config_.audit != nullptr) {
    config_.audit->OnQueryActivation(qo->query, sites.aux_nodes,
                                     sites.data_nodes);
  }

  // Phase 1 (BERD secondary-attribute queries): auxiliary lookups, strictly
  // before the data phase.
  if (!sites.aux_nodes.empty()) {
    sim::JoinCounter aux_join(sim_, static_cast<int>(sites.aux_nodes.size()));
    for (int node : sites.aux_nodes) {
      sim_->Spawn(RunAuxSite(rel, coord, node, pred, &ctx, &aux_join, qo));
    }
    co_await aux_join.Wait();
    DECLUST_CO_RETURN_NOT_OK(ctx.status);
  }

  // Data phase.
  metrics_.RecordProcessorsUsed(static_cast<int>(sites.data_nodes.size()));
  if (!sites.data_nodes.empty()) {
    ctx.serving.assign(sites.data_nodes.size(), -1);
    sim::JoinCounter join(sim_, static_cast<int>(sites.data_nodes.size()));
    for (size_t i = 0; i < sites.data_nodes.size(); ++i) {
      sim_->Spawn(RunDataSite(rel, coord, i, sites.data_nodes[i], pred, scan,
                              &ctx, &join, qo));
    }
    co_await join.Wait();
    DECLUST_CO_RETURN_NOT_OK(ctx.status);

    // Commit: one control message per participant, serialized at the
    // scheduler's interface (the linear component of CP). Each goes to the
    // node that actually served the site (the primary unless failed over).
    for (size_t i = 0; i < sites.data_nodes.size(); ++i) {
      const int target =
          ctx.serving[i] >= 0 ? ctx.serving[i] : sites.data_nodes[i];
      const double commit_begin = sim_->now();
      obs::ArmHw(qo);
      const Status commit_st = co_await machine_->network().Send(
          coord, target, config_.hw.control_message_bytes,
          [](const Status&) {});
      if (qo != nullptr && qo->probe != nullptr) {
        qo->costs.network_ms += sim_->now() - commit_begin;
      }
      DECLUST_CO_RETURN_NOT_OK(commit_st);
    }
  }

  // Completion notice back to the query manager / terminal.
  DECLUST_CO_RETURN_NOT_OK(
      co_await DeliverMessage(sim_, &machine_->network(), coord, host_node(),
                              config_.hw.control_message_bytes, qo));
  co_return Status::OK();
}

sim::Task<> System::RunDataSite(int rel, int coord, size_t site_idx,
                                int slice, Predicate pred,
                                bool sequential_scan, QueryContext* ctx,
                                sim::JoinCounter* join, obs::QueryObs* qo) {
  // Give the site its own handle: sibling sites interleave, so they must
  // not share the parent's span cursor or probe-arming window. Costs are
  // merged before the join fires (while the parent still awaits it).
  obs::QueryObs site_obs;
  obs::QueryObs* sq = nullptr;
  if (qo != nullptr && qo->probe != nullptr) {
    site_obs = obs::QueryObs{qo->probe, qo->query, qo->span, {}};
    sq = &site_obs;
  }
  if (config_.audit != nullptr) config_.audit->OnSiteDispatched(slice);
  const Status st =
      co_await DataSiteSelect(rel, coord, site_idx, slice, pred,
                              sequential_scan, ctx, sq);
  if (config_.audit != nullptr) config_.audit->OnSiteFinished(slice);
  if (sq != nullptr) qo->costs += site_obs.costs;
  if (!st.ok()) ctx->Merge(st);
  join->CountDown();
}

sim::Task<Status> System::DataSiteSelect(int rel, int coord, size_t site_idx,
                                         int slice, Predicate pred,
                                         bool sequential_scan,
                                         QueryContext* ctx,
                                         obs::QueryObs* qo) {
  const SystemCatalog& cat = *bindings_[static_cast<size_t>(rel)].catalog;
  // Scheduler-side work to activate this site.
  const uint64_t activate_span = obs::BeginSpan(
      qo, "site.activate", obs::Component::kScheduler, coord, sim_->now());
  obs::ArmHw(qo, activate_span);
  const Status activate_st = co_await machine_->node(coord).cpu().Run(
      config_.costs.per_site_sched_instructions);
  obs::EndSpan(qo, activate_span, sim_->now());
  DECLUST_CO_RETURN_NOT_OK(activate_st);

  // Owner resolved at dispatch time: under an elastic plan the slice may
  // live on any member (OwnerOf is the identity otherwise).
  if (config_.resize != nullptr) metrics_.RecordSliceAccess(slice);
  const int node = cat.OwnerOf(slice);

  // Built lazily: the message string would heap-allocate on every select,
  // and the happy path never reads it.
  Status primary;
  if (SiteUp(node)) {
    primary = co_await RunSiteOnce(rel, coord, node, slice,
                                   /*backup_read=*/false, pred,
                                   sequential_scan, ctx, qo);
    if (primary.ok()) {
      if (config_.audit != nullptr) {
        config_.audit->OnFragmentServe(
            slice, node, /*primary_read=*/true,
            config_.recovery == nullptr ||
                config_.recovery->ServingPrimary(node),
            /*first_serve=*/ctx->serving[site_idx] < 0);
      }
      ctx->serving[site_idx] = node;
      co_return Status::OK();
    }
    if (primary.IsDeadlineExceeded()) co_return primary;
  } else {
    primary = Status::Unavailable("primary site down");
  }

  // Migration-aware retry: a migration epoch flip may have moved the slice
  // while the dispatch was in flight (or its old owner was drained away).
  // One redirect to the freshly resolved owner, still deadline-bounded.
  if (config_.resize != nullptr && sim_->now() < ctx->deadline_ms) {
    const int owner_now = cat.OwnerOf(slice);
    if (owner_now != node && SiteUp(owner_now)) {
      config_.resize->OnMigrationRedirect();
      const Status st =
          co_await RunSiteOnce(rel, coord, owner_now, slice,
                               /*backup_read=*/false, pred, sequential_scan,
                               ctx, qo);
      if (st.ok()) {
        if (config_.audit != nullptr) {
          config_.audit->OnFragmentServe(
              slice, owner_now, /*primary_read=*/true,
              /*primary_serving=*/true,
              /*first_serve=*/ctx->serving[site_idx] < 0);
        }
        ctx->serving[site_idx] = owner_now;
        co_return Status::OK();
      }
      if (st.IsDeadlineExceeded()) co_return st;
      primary = st;
    }
  }

  // Primary lost: chained declustering places the backup on the next node.
  if (!cat.has_backups()) co_return primary;
  if (sim_->now() >= ctx->deadline_ms) {
    ++metrics_.faults().timeouts;
    co_return Status::DeadlineExceeded("deadline passed before failover");
  }
  const int backup = cat.BackupNodeOf(slice);
  if (!SiteUp(backup)) {
    co_return primary;  // both replicas down: the fragment is unreachable
  }
  ++metrics_.faults().failovers;
  const Status st = co_await RunSiteOnce(rel, coord, backup, slice,
                                         /*backup_read=*/true, pred,
                                         sequential_scan, ctx, qo);
  if (st.ok()) {
    if (config_.audit != nullptr) {
      config_.audit->OnFragmentServe(slice, backup, /*primary_read=*/false,
                                     /*primary_serving=*/true,
                                     /*first_serve=*/ctx->serving[site_idx] <
                                         0);
    }
    ctx->serving[site_idx] = backup;
  }
  co_return st;
}

sim::Task<Status> System::RunSiteOnce(int rel, int coord, int exec_node,
                                      int slice, bool backup_read,
                                      Predicate pred, bool sequential_scan,
                                      QueryContext* ctx, obs::QueryObs* qo) {
  const SystemCatalog& cat = *bindings_[static_cast<size_t>(rel)].catalog;
  const uint64_t site_span = obs::BeginSpan(
      qo, "site", obs::Component::kQuery, exec_node, sim_->now());
  const uint64_t saved_span = qo != nullptr ? qo->span : 0;
  if (site_span != 0) qo->span = site_span;
  // Every exit path below runs finish() exactly once, so the pooled plan
  // is always returned (and the drain counter always re-balanced).
  AccessPlan* plan = AcquirePlan();
  if (config_.resize != nullptr) config_.resize->OnSiteExecBegin(exec_node);
  const auto finish = [&] {
    if (config_.resize != nullptr) config_.resize->OnSiteExecEnd(exec_node);
    ReleasePlan(plan);
    if (qo != nullptr) qo->span = saved_span;
    obs::EndSpan(qo, site_span, sim_->now());
  };

  // The plan is built before the first await: a migration epoch flip
  // cannot land between the caller's owner resolution and here, so the
  // page addresses always match the copy exec_node actually hosts (the
  // old extents stay valid through the flip — they are abandoned, never
  // invalidated — so reads planned pre-flip drain safely).
  const Status plan_built =
      !backup_read
          ? cat.PlanAccessInto(slice, pred, sequential_scan, &plan_scratch_,
                               plan)
          : cat.PlanBackupAccessInto(slice, pred, sequential_scan,
                                     &plan_scratch_, plan);
  if (!plan_built.ok()) {
    finish();
    co_return plan_built;
  }

  DECLUST_CO_RETURN_NOT_OK_CLEANUP(
      co_await DeliverMessage(sim_, &machine_->network(), coord, exec_node,
                              config_.hw.control_message_bytes, qo),
      finish());

  // The operator runs with the node's resources; results flow back to the
  // query's scheduler.
  BufferPool* pool =
      pools_.empty() ? nullptr : pools_[static_cast<size_t>(exec_node)].get();
  FaultContext fc{&config_.failover, ctx->deadline_ms, &metrics_.faults()};
  DECLUST_CO_RETURN_NOT_OK_CLEANUP(
      co_await RunSelect(&machine_->node(exec_node), *plan, coord,
                         config_.costs, pool, &fc, qo),
      finish());

  // Done message back to the scheduler.
  DECLUST_CO_RETURN_NOT_OK_CLEANUP(
      co_await DeliverMessage(sim_, &machine_->network(), exec_node, coord,
                              config_.hw.control_message_bytes, qo),
      finish());
  finish();
  co_return Status::OK();
}

sim::Task<> System::RunAuxSite(int rel, int coord, int slice, Predicate pred,
                               QueryContext* ctx, sim::JoinCounter* join,
                               obs::QueryObs* qo) {
  obs::QueryObs site_obs;
  obs::QueryObs* sq = nullptr;
  if (qo != nullptr && qo->probe != nullptr) {
    site_obs = obs::QueryObs{qo->probe, qo->query, qo->span, {}};
    sq = &site_obs;
  }
  if (config_.audit != nullptr) config_.audit->OnSiteDispatched(slice);
  const Status st = co_await AuxSiteLookup(rel, coord, slice, pred, ctx, sq);
  if (config_.audit != nullptr) config_.audit->OnSiteFinished(slice);
  if (sq != nullptr) qo->costs += site_obs.costs;
  if (!st.ok()) ctx->Merge(st);
  join->CountDown();
}

sim::Task<Status> System::AuxSiteLookup(int rel, int coord, int slice,
                                        Predicate pred, QueryContext* ctx,
                                        obs::QueryObs* qo) {
  const SystemCatalog& cat = *bindings_[static_cast<size_t>(rel)].catalog;
  const uint64_t activate_span = obs::BeginSpan(
      qo, "site.activate", obs::Component::kScheduler, coord, sim_->now());
  obs::ArmHw(qo, activate_span);
  const Status activate_st = co_await machine_->node(coord).cpu().Run(
      config_.costs.per_site_sched_instructions);
  obs::EndSpan(qo, activate_span, sim_->now());
  DECLUST_CO_RETURN_NOT_OK(activate_st);

  if (config_.resize != nullptr) metrics_.RecordSliceAccess(slice);
  const int node = cat.OwnerOf(slice);
  Status primary = Status::Unavailable("primary aux site down");
  if (SiteUp(node)) {
    primary = co_await AuxSiteOnce(rel, coord, node, slice,
                                   /*backup_read=*/false, pred, ctx, qo);
    if (primary.ok() && config_.audit != nullptr) {
      config_.audit->OnFragmentServe(
          slice, node, /*primary_read=*/true,
          config_.recovery == nullptr ||
              config_.recovery->ServingPrimary(node),
          /*first_serve=*/true);
    }
    if (primary.ok() || primary.IsDeadlineExceeded()) co_return primary;
  }
  // Migration-aware redirect, as in DataSiteSelect.
  if (config_.resize != nullptr && sim_->now() < ctx->deadline_ms) {
    const int owner_now = cat.OwnerOf(slice);
    if (owner_now != node && SiteUp(owner_now)) {
      config_.resize->OnMigrationRedirect();
      const Status st = co_await AuxSiteOnce(rel, coord, owner_now, slice,
                                             /*backup_read=*/false, pred,
                                             ctx, qo);
      if (st.ok() && config_.audit != nullptr) {
        config_.audit->OnFragmentServe(slice, owner_now,
                                       /*primary_read=*/true,
                                       /*primary_serving=*/true,
                                       /*first_serve=*/true);
      }
      if (st.ok() || st.IsDeadlineExceeded()) co_return st;
      primary = st;
    }
  }
  if (!cat.has_backups()) co_return primary;
  if (sim_->now() >= ctx->deadline_ms) {
    ++metrics_.faults().timeouts;
    co_return Status::DeadlineExceeded("deadline passed before aux failover");
  }
  const int backup = cat.BackupNodeOf(slice);
  if (!SiteUp(backup)) co_return primary;
  ++metrics_.faults().failovers;
  co_return co_await AuxSiteOnce(rel, coord, backup, slice,
                                 /*backup_read=*/true, pred, ctx, qo);
}

sim::Task<Status> System::AuxSiteOnce(int rel, int coord, int exec_node,
                                      int slice, bool backup_read,
                                      Predicate pred, QueryContext* ctx,
                                      obs::QueryObs* qo) {
  const SystemCatalog& cat = *bindings_[static_cast<size_t>(rel)].catalog;
  const uint64_t site_span = obs::BeginSpan(
      qo, "site.aux", obs::Component::kQuery, exec_node, sim_->now());
  const uint64_t saved_span = qo != nullptr ? qo->span : 0;
  if (site_span != 0) qo->span = site_span;
  AccessPlan* plan = AcquirePlan();
  if (config_.resize != nullptr) config_.resize->OnSiteExecBegin(exec_node);
  const auto finish = [&] {
    if (config_.resize != nullptr) config_.resize->OnSiteExecEnd(exec_node);
    ReleasePlan(plan);
    if (qo != nullptr) qo->span = saved_span;
    obs::EndSpan(qo, site_span, sim_->now());
  };

  // Planned before the first await for the same flip-race reason as
  // RunSiteOnce.
  const Status plan_built = !backup_read
                                ? cat.PlanAuxAccessInto(slice, pred, plan)
                                : cat.PlanBackupAuxAccessInto(slice, pred,
                                                              plan);
  if (!plan_built.ok()) {
    finish();
    co_return plan_built;
  }

  DECLUST_CO_RETURN_NOT_OK_CLEANUP(
      co_await DeliverMessage(sim_, &machine_->network(), coord, exec_node,
                              config_.hw.control_message_bytes, qo),
      finish());

  hw::Node& n = machine_->node(exec_node);
  obs::ArmHw(qo);
  DECLUST_CO_RETURN_NOT_OK_CLEANUP(
      co_await n.cpu().Run(config_.costs.startup_instructions), finish());
  FaultContext fc{&config_.failover, ctx->deadline_ms, &metrics_.faults()};
  for (const auto& page : plan->index_pages) {
    DECLUST_CO_RETURN_NOT_OK_CLEANUP(
        co_await AccessPage(&n, page, config_.costs, nullptr, &fc, qo),
        finish());
  }
  if (plan->tuples > 0) {
    // Extract (tuple id, processor) pairs for the qualifying entries.
    obs::ArmHw(qo);
    DECLUST_CO_RETURN_NOT_OK_CLEANUP(
        co_await n.cpu().Run(
            plan->tuples * config_.costs.per_tuple_instructions / 4),
        finish());
  }
  // Reply with the processor list (8 bytes per qualifying entry).
  const int bytes = static_cast<int>(
      std::min<int64_t>(config_.hw.max_packet_bytes,
                        config_.hw.control_message_bytes + 8 * plan->tuples));
  DECLUST_CO_RETURN_NOT_OK_CLEANUP(
      co_await DeliverMessage(sim_, &machine_->network(), exec_node, coord,
                              bytes),
      finish());
  finish();
  co_return Status::OK();
}

}  // namespace declust::engine

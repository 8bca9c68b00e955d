#include "proptest/runner.h"

#include <map>
#include <vector>

#include "engines/sched_queue.h"
#include "scenario/runner.h"

namespace panic::proptest {

using scenario::Scenario;

namespace {

/// Arms the SchedulerQueue dequeue audit for one scope, restoring the
/// previous setting on exit (the audit switch is process-wide).
class AuditScope {
 public:
  AuditScope() : prev_(engines::SchedulerQueue::audit_enabled()) {
    engines::SchedulerQueue::set_audit(true);
  }
  ~AuditScope() { engines::SchedulerQueue::set_audit(prev_); }

 private:
  bool prev_;
};

}  // namespace

RunResult run_scenario(const Scenario& s, SimMode mode) {
  AuditScope audit;
  // The window opens before any message of this run is created, and the
  // delta is read before the NIC/simulator unwind — teardown destroys
  // in-flight messages, which must not land in this window.
  fault::ConservationChecker conservation;

  scenario::RunOptions opts;
  opts.mode = mode;
  scenario::ScenarioRun run(s, opts);

  // Per-(port, tenant) egress-order tracking.  One tenant is one flow on
  // one path by generator construction, so frames of a tenant must leave
  // a port in creation order.
  RunResult r;
  r.mode = mode;
  struct PortOrder {
    std::map<std::uint16_t, Cycle> last_created;
    std::uint64_t violations = 0;
  };
  std::vector<PortOrder> port_order(
      static_cast<std::size_t>(run.nic().num_eth_ports()));
  for (int p = 0; p < run.nic().num_eth_ports(); ++p) {
    PortOrder* po = &port_order[static_cast<std::size_t>(p)];
    run.nic().eth_port(p).set_tx_sink([po](const Message& msg, Cycle) {
      Cycle& last = po->last_created[msg.tenant.value];
      if (msg.created_at < last) ++po->violations;
      if (msg.created_at > last) last = msg.created_at;
    });
  }

  run.run_all();

  for (const PortOrder& po : port_order) r.order_violations += po.violations;
  r.outcome = run.outcome();
  const telemetry::MetricsSnapshot& snap = r.outcome.snapshot;
  r.credit_violations = static_cast<std::uint64_t>(
      snap.sum("noc.router.", ".credit_violations"));
  r.audit_violations =
      static_cast<std::uint64_t>(snap.sum("", ".audit_violations"));
  r.conservation = conservation.delta();
  r.conserved = r.conservation.conserved();
  return r;
}

}  // namespace panic::proptest

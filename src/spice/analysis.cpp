#include "spice/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "linalg/matrix.hpp"
#include "spice/assembler.hpp"
#include "spice/elements.hpp"
#include "spice/session.hpp"
#include "spice/solver_core.hpp"
#include "util/error.hpp"

namespace vsstat::spice {

// --- LoadContext forwarding ------------------------------------------------------

double LoadContext::v(NodeId node) const noexcept {
  return assembler_->nodeVoltage(node);
}
double LoadContext::branchCurrent(int localBranch) const noexcept {
  return assembler_->branchValue(branchBase_ + localBranch);
}
double LoadContext::time() const noexcept { return assembler_->timeNow(); }
double LoadContext::sourceScale() const noexcept {
  return assembler_->scaleNow();
}
void LoadContext::addCurrent(NodeId node, double i) noexcept {
  assembler_->stampCurrent(node, i);
}
void LoadContext::addJacobian(NodeId node, NodeId other, double didv) noexcept {
  assembler_->stampJacobian(node, other, didv);
}
void LoadContext::addJacobianBranch(NodeId node, int localBranch,
                                    double d) noexcept {
  assembler_->stampJacobianBranch(node, branchBase_ + localBranch, d);
}
void LoadContext::addBranchResidual(int localBranch, double f) noexcept {
  assembler_->stampBranchResidual(branchBase_ + localBranch, f);
}
void LoadContext::addBranchJacobianV(int localBranch, NodeId node,
                                     double d) noexcept {
  assembler_->stampBranchJacobianV(branchBase_ + localBranch, node, d);
}
void LoadContext::setCharge(int localSlot, double q) noexcept {
  assembler_->recordCharge(chargeBase_ + localSlot, q);
}
double LoadContext::chargeCurrent(int localSlot, double q) const noexcept {
  return assembler_->companionCurrent(chargeBase_ + localSlot, q);
}
double LoadContext::chargeGain() const noexcept { return assembler_->c0(); }

// --- Newton core (SimSession's solver, via solver_core.hpp) --------------------

namespace detail {

/// The iteration is allocation-free: the assembler writes into its captured
/// sparsity pattern and the per-assembler NewtonWorkspace supplies the
/// reusable factorization and step buffer.
///
/// The iterate carries every MOSFET's drain current after the MNA
/// unknowns (Assembler::iterateSize); the assembled system is its Schur
/// complement onto the MNA unknowns, and the device bank back-substitutes
/// the currents' steps.  Convergence needs the node-voltage step, the KCL
/// residual and every device's internal equation (deviceCurrentsSettled)
/// within tolerance.
///
/// Diagnostics accumulate into the workspace SolveReport (iterations,
/// residual, singular/non-finite flags); the report is reset by the solve
/// entry points (dcSolveLadder / runTransient), not here, so homotopy rungs
/// add up.  Non-finite numerics bail out immediately with x unchanged --
/// wasting the remaining iteration budget on NaN would only corrupt the
/// iterate the next homotopy rung starts from.
bool newtonSolve(Assembler& assembler, linalg::Vector& x,
                 const NewtonSettings& settings) {
  const std::size_t numNodes = assembler.numNodes();
  const std::size_t numUnknowns = assembler.numUnknowns();
  require(x.size() == assembler.iterateSize(),
          "newtonSolve: iterate size does not match the circuit");
  detail::NewtonWorkspace& ws = assembler.workspace();
  SolveReport& report = ws.report;
  for (int iter = 0; iter < settings.maxIterations; ++iter) {
    try {
      assembler.assemble(x);
    } catch (const NonFiniteError&) {
      // Device evaluation produced NaN/Inf (bank seam guard): classified,
      // recorded, and handed to the homotopy ladder / rescue ladder.
      report.sawNonFinite = true;
      return false;
    }
    ++report.iterations;

    double residualNorm = 0.0;
    bool residualFinite = true;
    for (double f : assembler.residual()) {
      // NB: NaN is invisible to a bare std::max (the comparison is false),
      // so finiteness is tracked explicitly.
      if (!std::isfinite(f)) residualFinite = false;
      residualNorm = std::max(residualNorm, std::fabs(f));
    }
    report.finalResidual = residualNorm;
    if (!residualFinite) {
      report.sawNonFinite = true;
      return false;
    }

    std::copy(assembler.residual().begin(), assembler.residual().end(),
              ws.dx.begin());
    try {
      ws.lu.refactor(assembler.jacobian());
    } catch (const ConvergenceError&) {
      // Singular Jacobian: let the homotopy ladder handle it.
      report.sawSingular = true;
      return false;
    }
    ws.lu.solveInPlace(std::span<double>(ws.dx.data(), numUnknowns));
    assembler.deviceCurrentSteps(x, ws.dx);

    // Newton update is x -= J^{-1} F; clamp by the largest voltage move.
    double maxVoltageStep = 0.0;
    for (std::size_t n = 0; n < numNodes; ++n)
      maxVoltageStep = std::max(maxVoltageStep, std::fabs(ws.dx[n]));
    if (!std::isfinite(maxVoltageStep)) {
      // An Inf-contaminated factorization can pass the pivot checks yet
      // produce a non-finite step; bail before poisoning x.
      report.sawNonFinite = true;
      return false;
    }

    if (maxVoltageStep < settings.voltageTolerance &&
        residualNorm < settings.residualTolerance &&
        assembler.deviceCurrentsSettled()) {
      // The node voltages keep the assembled state (the sub-tolerance step
      // is skipped, so the assembly matches them exactly).  The current
      // unknowns -- branch and device -- take the step already solved:
      // nothing else reads them, and it puts them on the assembled loads.
      for (std::size_t i = numNodes; i < x.size(); ++i) x[i] -= ws.dx[i];
      return true;
    }

    double scaleFactor = 1.0;
    if (maxVoltageStep > settings.maxUpdate)
      scaleFactor = settings.maxUpdate / maxVoltageStep;
    for (std::size_t i = 0; i < x.size(); ++i) x[i] -= scaleFactor * ws.dx[i];
  }
  return false;
}

void throwSolveFailure(const SolveReport& report, const std::string& what,
                       int iterations) {
  switch (report.outcome) {
    case SolveOutcome::nonFinite:
      throw NonFiniteError(what + " (non-finite numerics)");
    case SolveOutcome::singular:
      throw SingularMatrixError(what, iterations);
    default:
      throw ConvergenceError(what, iterations);
  }
}

OperatingPoint packSolution(const Circuit& circuit, const linalg::Vector& x) {
  OperatingPoint op;
  const std::size_t numNodes = circuit.nodeCount() - 1;
  op.nodeVoltages.assign(circuit.nodeCount(), 0.0);
  for (std::size_t n = 0; n < numNodes; ++n) op.nodeVoltages[n + 1] = x[n];
  op.branchCurrents.assign(static_cast<std::size_t>(circuit.branchTotal()),
                           0.0);
  for (std::size_t b = 0; b < op.branchCurrents.size(); ++b)
    op.branchCurrents[b] = x[numNodes + b];
  return op;
}

linalg::Vector unpackGuess(Assembler& assembler, const OperatingPoint& op) {
  const Circuit& circuit = assembler.circuit();
  linalg::Vector x(assembler.iterateSize(), 0.0);
  const std::size_t numNodes = circuit.nodeCount() - 1;
  if (op.nodeVoltages.size() == circuit.nodeCount()) {
    for (std::size_t n = 0; n < numNodes; ++n) x[n] = op.nodeVoltages[n + 1];
    assembler.seedDeviceCurrents(x);
  }
  if (op.branchCurrents.size() ==
      static_cast<std::size_t>(circuit.branchTotal())) {
    for (std::size_t b = 0; b < op.branchCurrents.size(); ++b)
      x[numNodes + b] = op.branchCurrents[b];
  }
  return x;
}

bool dcSolveLadder(Assembler& assembler, linalg::Vector& x,
                   const NewtonSettings& newton) {
  SolveReport& report = assembler.workspace().report;
  report.reset();
  const std::uint64_t fallbacksAtEntry =
      assembler.workspace().lu.pivotFallbackCount();
  const auto finish = [&](bool ok) {
    report.pivotFallbacks =
        assembler.workspace().lu.pivotFallbackCount() - fallbacksAtEntry;
    if (ok) {
      report.outcome = SolveOutcome::ok;
    } else if (report.sawNonFinite) {
      report.outcome = SolveOutcome::nonFinite;
    } else if (report.sawSingular) {
      report.outcome = SolveOutcome::singular;
    } else {
      report.outcome = SolveOutcome::nonConvergence;
    }
    return ok;
  };

  assembler.setDcMode();
  assembler.setTime(0.0);
  assembler.setSourceScale(1.0);
  assembler.setGmin(0.0);
  report.homotopyRung = kRungPlainNewton;
  if (newtonSolve(assembler, x, newton)) return finish(true);

  // Homotopies keep a gmin floor: a truly floating node (capacitor-only,
  // or isolated by off pass-transistors) leaves the exact-zero-gmin
  // Jacobian singular, and the 1e-12 S floor perturbs node voltages far
  // below the solver tolerances.
  constexpr double kGminFloor = 1e-12;

  // Homotopy trial iterate: workspace scratch (re-initialized to exactly
  // the values a fresh local would hold), so a failed plain Newton does
  // not allocate on persistent sessions.
  linalg::Vector& xTrial = assembler.workspace().xHomotopy;

  // Homotopy 1: gmin stepping, a decaying shunt conductance.
  report.homotopyRung = kRungGminStepping;
  xTrial.assign(x.begin(), x.end());
  bool ok = true;
  for (double gmin = 1e-2; gmin >= kGminFloor; gmin *= 0.1) {
    assembler.setGmin(gmin);
    if (!newtonSolve(assembler, xTrial, newton)) {
      ok = false;
      break;
    }
  }
  if (ok) {
    x = xTrial;
    return finish(true);
  }

  // Homotopy 2: source stepping, sources ramped from zero.
  report.homotopyRung = kRungSourceStepping;
  xTrial.assign(x.size(), 0.0);
  assembler.setGmin(1e-9);
  ok = true;
  for (int step = 1; step <= 20; ++step) {
    assembler.setSourceScale(static_cast<double>(step) / 20.0);
    if (!newtonSolve(assembler, xTrial, newton)) {
      ok = false;
      break;
    }
  }
  if (ok) {
    assembler.setSourceScale(1.0);
    assembler.setGmin(kGminFloor);
    if (newtonSolve(assembler, xTrial, newton)) {
      x = xTrial;
      return finish(true);
    }
  }
  return finish(false);
}

namespace {

/// Recovery floor of step halving [s]; breakpoints closer together than
/// this are one time point.
constexpr double kDtMin = 1e-16;

/// Newton failures one step may retry (each halving the step).
constexpr int kMaxNewtonRetries = 12;

/// Sorted slope breakpoints of every independent source in (0, tStop),
/// closed by tStop itself, so landing on the list also ends the run
/// exactly at tStop.
void collectBreakpoints(const Circuit& circuit, double tStop,
                        std::vector<double>& out) {
  out.clear();
  for (const auto& element : circuit.elements()) {
    if (const auto* v =
            dynamic_cast<const VoltageSourceElement*>(element.get())) {
      v->waveform().appendBreakpoints(tStop, out);
    } else if (const auto* i =
                   dynamic_cast<const CurrentSourceElement*>(element.get())) {
      i->waveform().appendBreakpoints(tStop, out);
    }
  }
  std::sort(out.begin(), out.end());
  // Corners within kDtMin of each other, of t = 0 or of tStop are one
  // time point.
  std::size_t kept = 0;
  double last = 0.0;
  for (const double t : out) {
    if (t - last > kDtMin && tStop - t > kDtMin) last = out[kept++] = t;
  }
  out.resize(kept);
  out.push_back(tStop);
}

/// Trapezoidal local truncation error of the step from (t2, x2) to
/// (t3, x3), the largest over the node voltages: h^3/12 |v'''| with
/// v''' = 6 * the third divided difference through the step's end point
/// and the three accepted points before it.
double trapezoidalLte(std::size_t numNodes, double t0, const linalg::Vector& x0,
                      double t1, const linalg::Vector& x1, double t2,
                      const linalg::Vector& x2, double t3,
                      const linalg::Vector& x3) {
  const double r10 = 1.0 / (t1 - t0);
  const double r21 = 1.0 / (t2 - t1);
  const double r32 = 1.0 / (t3 - t2);
  const double r20 = 1.0 / (t2 - t0);
  const double r31 = 1.0 / (t3 - t1);
  const double r30 = 1.0 / (t3 - t0);
  double worst = 0.0;
  for (std::size_t n = 0; n < numNodes; ++n) {
    const double d10 = (x1[n] - x0[n]) * r10;
    const double d21 = (x2[n] - x1[n]) * r21;
    const double d32 = (x3[n] - x2[n]) * r32;
    const double dd3 = ((d32 - d21) * r31 - (d21 - d10) * r20) * r30;
    worst = std::max(worst, std::fabs(dd3));
  }
  const double h = t3 - t2;
  return 0.5 * h * h * h * worst;
}

}  // namespace

void runTransient(Assembler& assembler, const TransientOptions& options,
                  Waveform& wave, const TransientControls& controls) {
  require(options.tStop > 0.0 && options.dt > 0.0,
          "transient: tStop and dt must be positive");
  require(controls.lteTolerance > 0.0,
          "transient: the truncation-error tolerance must be positive");
  const Circuit& circuit = assembler.circuit();
  NewtonWorkspace& ws = assembler.workspace();

  // t = 0 operating point.  Scratch buffers live in the workspace and are
  // re-initialized to the exact values a fresh run would construct, so
  // reuse never changes numerics.
  linalg::Vector& x = ws.xTransient;
  if (controls.dcWarmStart != nullptr &&
      controls.dcWarmStart->size() == assembler.iterateSize()) {
    x = *controls.dcWarmStart;
  } else {
    x.assign(assembler.iterateSize(), 0.0);
  }
  const std::uint64_t fallbacksAtEntry = ws.lu.pivotFallbackCount();
  if (!dcSolveLadder(assembler, x, controls.newton)) {
    throwSolveFailure(ws.report, "transient: DC operating point failed",
                      controls.newton.maxIterations);
  }
  if (controls.dcSolutionOut != nullptr) *controls.dcSolutionOut = x;

  // The DC solve left the assembler's charge state consistent with x;
  // commit it as the t = 0 history.
  assembler.commitCharges();
  std::vector<double>& slotCurrents = ws.slotCurrents;
  slotCurrents.assign(static_cast<std::size_t>(circuit.chargeSlotTotal()),
                      0.0);

  wave.reset(circuit.nodeCount());
  std::vector<double>& sample = ws.sampleBuf;
  sample.assign(circuit.nodeCount(), 0.0);
  const std::size_t numNodes = circuit.nodeCount() - 1;
  const auto record = [&](double t) {
    for (std::size_t n = 0; n < numNodes; ++n) sample[n + 1] = x[n];
    wave.addSample(t, sample);
  };
  wave.beginPiece();
  record(0.0);

  // Sample-to-sample trajectory warm start: the previous sample's accepted
  // waveform, interpolated at any query time, so it seeds this run's steps
  // wherever they fall.
  const TransientTrajectory* traj = controls.trajectoryIn;
  if (traj != nullptr && !traj->usableFor(x.size())) traj = nullptr;
  const auto trajSegment = [traj](double tq, std::size_t& j, double& alpha) {
    const std::vector<double>& ts = traj->times;
    if (tq <= ts.front()) {
      j = 0;
      alpha = 0.0;
    } else if (tq >= ts.back()) {
      j = ts.size() - 2;
      alpha = 1.0;
    } else {
      j = static_cast<std::size_t>(
              std::upper_bound(ts.begin(), ts.end(), tq) - ts.begin()) -
          1;
      j = std::min(j, ts.size() - 2);
      alpha = (tq - ts[j]) / (ts[j + 1] - ts[j]);
    }
  };
  if (controls.trajectoryOut != nullptr) {
    controls.trajectoryOut->beginRecording(x.size());
    controls.trajectoryOut->append(0.0, x);
  }

  // Step control state.  The history (xPrev at tPrev, xPrev2 at tPrev2,
  // then x at t) holds the accepted points; `segmentPoints` counts those
  // since t = 0 or the last breakpoint, the only ones the truncation
  // estimate may difference (a corner's slope jump is no truncation
  // error).  Buffers rotate by swap, so the loop never allocates.
  std::vector<double>& breakpoints = ws.breakpoints;
  collectBreakpoints(circuit, options.tStop, breakpoints);
  linalg::Vector& xTrial = ws.xTrial;
  linalg::Vector& xPrev = ws.xPrevStep;
  linalg::Vector& xPrev2 = ws.xPrev2Step;
  xTrial.assign(x.size(), 0.0);
  xPrev.assign(x.size(), 0.0);
  xPrev2.assign(x.size(), 0.0);
  double t = 0.0;
  double tPrev = 0.0;
  double tPrev2 = 0.0;
  int segmentPoints = 1;
  std::size_t nextBreak = 0;
  const double hMax = options.dt;
  double h = std::min(hMax, 0.1 * breakpoints.front());

  while (t < options.tStop) {
    const double tBreak = breakpoints[nextBreak];
    bool accepted = false;
    bool landed = false;
    bool newtonRetry = false;
    double growth = 1.0;  // next step / this one, once an estimate exists
    for (int failures = 0;;) {
      // Land exactly on the next breakpoint; split a step that would
      // leave a sliver before it into two halves.
      const double gap = tBreak - t;
      landed = h >= gap * (1.0 - 1e-9);
      if (landed) {
        h = gap;
      } else if (h > 0.5 * gap) {
        h = 0.5 * gap;
      }
      const double tNext = landed ? tBreak : t + h;
      assembler.setTime(tNext);
      // Backward Euler for the first step and for Newton-failure retries
      // (sturdier against the corner where trapezoidal rings on a hard
      // nonlinearity).  setTrapezoidal reads only the committed charges
      // and currents, so a rejected step leaves nothing to undo.
      const bool backwardEuler = t == 0.0 || newtonRetry;
      if (backwardEuler) {
        assembler.setBackwardEuler(h);
      } else {
        assembler.setTrapezoidal(h, slotCurrents);
      }
      if (traj != nullptr && !newtonRetry) {
        // Reference-waveform predictor: previous sample's state at tNext
        // plus this sample's current offset from that reference.
        std::size_t j0, j1;
        double a0, a1;
        trajSegment(t, j0, a0);
        trajSegment(tNext, j1, a1);
        const double* lo0 = traj->state(j0);
        const double* hi0 = traj->state(j0 + 1);
        const double* lo1 = traj->state(j1);
        const double* hi1 = traj->state(j1 + 1);
        for (std::size_t i = 0; i < x.size(); ++i) {
          const double ref0 = lo0[i] + a0 * (hi0[i] - lo0[i]);
          const double ref1 = lo1[i] + a1 * (hi1[i] - lo1[i]);
          xTrial[i] = ref1 + (x[i] - ref0);
        }
      } else if (t > 0.0 && !newtonRetry) {
        // Linear extrapolation of the last two accepted points; the Newton
        // clamp and the constant-predictor retries bound a bad guess.
        const double ratio = std::min(h / (t - tPrev), 2.0);
        for (std::size_t i = 0; i < x.size(); ++i)
          xTrial[i] = x[i] + ratio * (x[i] - xPrev[i]);
      } else {
        xTrial = x;
      }
      if (!newtonSolve(assembler, xTrial, controls.newton)) {
        newtonRetry = true;
        h *= 0.5;
        if (++failures == kMaxNewtonRetries || h < kDtMin) break;
        continue;
      }
      if (!backwardEuler && segmentPoints >= 3) {
        const double err = trapezoidalLte(numNodes, tPrev2, xPrev2, tPrev,
                                          xPrev, t, x, tNext, xTrial);
        // The error scales as h^3; aim 10 % under the tolerance.
        const double scale =
            err > 0.0 ? 0.9 * std::cbrt(controls.lteTolerance / err) : 2.0;
        if (err > controls.lteTolerance && h * scale >= kDtMin) {
          h *= std::max(scale, 0.1);
          continue;
        }
        growth = std::min(scale, 2.0);
      }
      accepted = true;
      break;
    }
    if (!accepted) {
      // The step retries accumulated flags into the workspace report (the
      // DC ladder reset it at t = 0); classify the terminal state before
      // throwing so campaigns count this sample under the right class.
      SolveReport& report = ws.report;
      report.pivotFallbacks = ws.lu.pivotFallbackCount() - fallbacksAtEntry;
      if (report.sawNonFinite) {
        report.outcome = SolveOutcome::nonFinite;
      } else if (report.sawSingular) {
        report.outcome = SolveOutcome::singular;
      } else {
        report.outcome = SolveOutcome::nonConvergence;
      }
      throwSolveFailure(report,
                        "transient: step failed at t = " + std::to_string(t),
                        controls.newton.maxIterations);
    }

    // newtonSolve left the assembler's charge state consistent with the
    // converged iterate, so its assembly is reused directly.
    assembler.slotCurrents(slotCurrents);
    assembler.commitCharges();
    std::swap(xPrev2, xPrev);
    std::swap(xPrev, x);
    std::swap(x, xTrial);
    tPrev2 = tPrev;
    tPrev = t;
    t = landed ? tBreak : t + h;
    record(t);
    if (controls.trajectoryOut != nullptr)
      controls.trajectoryOut->append(t, x);
    ++segmentPoints;

    if (landed && t < options.tStop) {
      // Restart at the corner: a tenth of the gap to the next breakpoint,
      // and half the step that reached this one.  The slope jump has just
      // kicked the stiff nodes, and the next two steps run before the
      // error estimate has three points again.
      ++nextBreak;
      segmentPoints = 1;
      wave.beginPiece();
      h = std::min({hMax, 0.5 * h, 0.1 * (breakpoints[nextBreak] - t)});
    } else {
      h = std::min(hMax, h * growth);
    }
  }
  ws.report.outcome = SolveOutcome::ok;
  ws.report.pivotFallbacks = ws.lu.pivotFallbackCount() - fallbacksAtEntry;
}

}  // namespace detail

// --- Free analyses: one-shot sessions ------------------------------------------

OperatingPoint dcOperatingPoint(Circuit& circuit) {
  return SimSession(circuit).dcOperatingPoint();
}

OperatingPoint dcOperatingPoint(Circuit& circuit, const OperatingPoint& guess) {
  return SimSession(circuit).dcOperatingPoint(guess);
}

double sourceCurrent(Circuit& circuit, const std::string& name,
                     const OperatingPoint& op) {
  const VoltageSourceElement& src = circuit.voltageSource(name);
  return op.branchCurrents[static_cast<std::size_t>(src.branchBase())];
}

Waveform transient(Circuit& circuit, const TransientOptions& options) {
  return SimSession(circuit).transient(options);
}

}  // namespace vsstat::spice

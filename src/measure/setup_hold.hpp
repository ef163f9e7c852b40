// D flip-flop setup time characterization (paper Fig. 8).
//
// Setup time cannot be probed directly: each data point requires a full
// transient with a particular data-to-clock offset, and the constraint is
// found by bisecting on that offset until capture fails -- which is
// precisely why the paper stresses the VS model's runtime advantage for
// this analysis ("about 20x more SPICE simulations than a combinational
// cell").
#ifndef VSSTAT_MEASURE_SETUP_HOLD_HPP
#define VSSTAT_MEASURE_SETUP_HOLD_HPP

#include "circuits/benchmarks.hpp"
#include "spice/session.hpp"

namespace vsstat::measure {

/// Minimum D-before-CLK time that still captures a rising D (the paper's
/// Fig. 8c distribution).  Positive means D must lead the clock.  Every
/// capture trial of the bisection runs a transient through `session`, a
/// spice::SimSession bound to the bench's circuit (build-once campaigns
/// keep one per worker); D and CLK get their waveforms back afterwards,
/// also when the search throws.  `dt` is each trial's largest transient
/// step [s]: the latches hold their state through weak feedback between
/// the edges, and steps longer than about 1 ps there move the capture
/// verdicts (at 5 ps, 21 of 176 Fig. 8 setup times leave their 0.01
/// ps-step bisection cell; at 1 ps, 3, against 4 for the old fixed 0.3 ps
/// step).  Throws ConvergenceError when the register fails even with
/// maximal lead (a dead sample under extreme mismatch).
[[nodiscard]] double measureSetupTime(circuits::DffBench& bench,
                                      spice::SimSession& session,
                                      double dt = 1e-12);

/// One-shot variant: the overload above on a fresh default session.
[[nodiscard]] double measureSetupTime(circuits::DffBench& bench,
                                      double dt = 1e-12);

}  // namespace vsstat::measure

#endif  // VSSTAT_MEASURE_SETUP_HOLD_HPP

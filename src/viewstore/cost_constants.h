// Per-operator cost constants for the CostModel.
//
// The model's cost is *linear* in these constants: every operator
// contributes (constant × work-unit count), where the unit counts depend
// only on cardinality estimates, never on the constants themselves. That
// makes calibration an ordinary least-squares fit of measured executor
// times against per-plan unit vectors — which is exactly what
// tools/calibrate_costs does. Constants are expressed relative to the cost
// of scanning one view row (scan stays at 1.0 by convention, so "cost 500"
// keeps meaning "about as expensive as scanning 500 rows").
//
// Two sets of values:
//   1. CostConstants{}: the paper-era uncalibrated guesses; the unit tests
//      pin today's estimate values through these.
//   2. CalibratedCostConstants(): the baked-in fit from the last
//      tools/calibrate_costs run (see below). Every snapshot a ViewCatalog
//      publishes estimates with these; the tool prints a paste-ready block
//      to refresh them.
#ifndef SVX_VIEWSTORE_COST_CONSTANTS_H_
#define SVX_VIEWSTORE_COST_CONSTANTS_H_

#include <array>
#include <cstdint>

namespace svx {

/// Default member values are the uncalibrated guesses (every term 1.0
/// except the cheap projection).
struct CostConstants {
  static constexpr size_t kNumTerms = 9;

  double scan = 1.0;           // per row scanned from a view extent
  double eq_join = 1.0;        // per input row hashed/probed by ⋈=
  double parent_join = 1.0;    // per input row probed by ⋈≺
  double ancestor_join = 1.0;  // per ORDPATH-prefix probe of ⋈≺≺
  double emit = 1.0;           // per row materialized (join output, unnest)
  double select = 1.0;         // per row filtered by σ
  double project = 0.1;        // per row copied by π
  double sort = 1.0;           // per row ordered/deduped (union, group-by)
  double nav = 1.0;            // per navigation step (navC, navfID)

  std::array<double, kNumTerms> ToArray() const {
    return {scan, eq_join, parent_join, ancestor_join, emit,
            select, project, sort, nav};
  }
  static CostConstants FromArray(const std::array<double, kNumTerms>& a) {
    CostConstants c;
    c.scan = a[0];
    c.eq_join = a[1];
    c.parent_join = a[2];
    c.ancestor_join = a[3];
    c.emit = a[4];
    c.select = a[5];
    c.project = a[6];
    c.sort = a[7];
    c.nav = a[8];
    return c;
  }
  /// Term names in ToArray() order (calibration output).
  static const char* TermName(size_t i);
};

/// The constants fitted by the last `tools/calibrate_costs` run against
/// measured executor times (XMark scale 0.5: 161 samples over per-view
/// extent scans plus every workload rewriting; non-negative least squares,
/// scan pinned to 1.0; Spearman vs measured ms 0.961 -> 0.975). Terms the
/// active-set fit clamped to zero (ancestor_join, emit, project, sort —
/// not independently identifiable from this workload's plans, which
/// exercise them only alongside dominant scan work) keep their
/// uncalibrated defaults so no operator ever ranks as free. Re-run the
/// tool and paste its constants block here to refresh.
inline CostConstants CalibratedCostConstants() {
  CostConstants c;
  c.scan = 1.0;
  c.eq_join = 7.05192;
  c.parent_join = 7.51262;
  c.ancestor_join = 1.0;  // not identified by the fit; default kept
  c.emit = 1.0;           // not identified by the fit; default kept
  c.select = 14.1524;
  c.project = 0.1;        // not identified by the fit; default kept
  c.sort = 1.0;           // not identified by the fit; default kept
  c.nav = 1.30611;
  return c;
}

/// FNV-1a over the default-rows assumption and the bit patterns of every
/// term, so any change to the effective cost model is visible to cache keys
/// (plan choice depends on the constants).
uint64_t CostConstantsFingerprint(const CostConstants& c, double default_rows);

}  // namespace svx

#endif  // SVX_VIEWSTORE_COST_CONSTANTS_H_

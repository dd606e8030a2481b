package sim

import (
	"ffc/internal/core"
	"ffc/internal/demand"
	"ffc/internal/tunnel"
)

// The three forwarders below serve only the benchmark module, which names
// them; everything else calls core.CalibrateScale and demand.Series's
// Flows and Scale.

// CalibrateScale forwards to core.CalibrateScale.
func CalibrateScale(solver *core.Solver, series demand.Series, target float64, samples int) (float64, error) {
	return core.CalibrateScale(solver, series, target, samples)
}

// FlowsOf forwards to demand.Series.Flows.
func FlowsOf(series demand.Series) []tunnel.Flow { return series.Flows() }

// ScaleSeries forwards to demand.Series.Scale.
func ScaleSeries(series demand.Series, k float64) demand.Series { return series.Scale(k) }

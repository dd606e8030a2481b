package core

import (
	"errors"
	"fmt"

	"ffc/internal/demand"
)

// CalibrateScale finds the global demand multiplier at which plain TE
// satisfies the target fraction (the paper's 0.99) of offered demand — the
// definition of traffic scale 1.0 in §8.1. It bisects over the multiplier
// using up to sample intervals of the series (at most 5).
//
// Each sample matrix gets its own Session. Its first solve is cold;
// every later bracket or bisection step only rescales the same demands, so
// the session rebinds its template (bounds move, structure does not) and
// re-solves from the held basis with the dual simplex. The optimum's
// throughput does not depend on the starting basis, so every step's verdict
// — and the returned scale — is that of an all-cold bisection. One
// calibration is (bracket evaluations + 20 bisection steps) × samples
// solves, all but one per sample warm: 84 on the benchmark's 8-site L-Net,
// 75 on S-Net.
func CalibrateScale(solver *Solver, series demand.Series, target float64, samples int) (float64, error) {
	if target <= 0 || target >= 1 {
		target = 0.99
	}
	if len(series) == 0 {
		return 0, errors.New("core: calibration needs at least one demand interval")
	}
	if samples <= 0 || samples > len(series) {
		samples = len(series)
	}
	if samples > 5 {
		samples = 5
	}
	stride := len(series) / samples
	if stride == 0 {
		stride = 1
	}
	var sample []demand.Matrix
	var sessions []*Session
	var total float64
	for i := 0; i < len(series) && len(sample) < samples; i += stride {
		sample = append(sample, series[i])
		sessions = append(sessions, solver.NewSession())
		total += series[i].Total()
	}
	if total == 0 {
		// Satisfaction would read 1 at every scale and never bracket.
		return 0, fmt.Errorf("core: calibration samples offer no demand (%d of %d intervals sampled)", len(sample), len(series))
	}

	satisfied := func(scale float64) (float64, error) {
		var granted, offered float64
		for i, m := range sample {
			scaled := m.Scale(scale)
			st, _, err := sessions[i].Solve(Input{Demands: scaled})
			if err != nil {
				return 0, err
			}
			granted += st.TotalRate()
			offered += scaled.Total()
		}
		return granted / offered, nil
	}

	// Bracket: find hi with satisfaction below target.
	lo, hi := 0.0, 1.0
	for iter := 0; ; iter++ {
		s, err := satisfied(hi)
		if err != nil {
			return 0, err
		}
		if s < target {
			break
		}
		lo = hi
		hi *= 2
		if iter > 40 {
			return 0, fmt.Errorf("core: calibration failed to bracket (satisfaction stays ≥ %v)", target)
		}
	}
	for iter := 0; iter < 20; iter++ {
		mid := (lo + hi) / 2
		s, err := satisfied(mid)
		if err != nil {
			return 0, err
		}
		if s >= target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

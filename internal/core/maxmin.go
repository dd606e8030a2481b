package core

import (
	"math"

	"ffc/internal/tunnel"
)

// MaxMinResult carries the outcome of the iterative max-min computation.
type MaxMinResult struct {
	State *State
	// Iterations is the number of LP solves performed.
	Iterations int
	// TotalStats aggregates solver work across iterations.
	TotalStats Stats
}

// SolveMaxMin computes an approximately max-min fair allocation following
// SWAN's iterative method (§5.3): flow rates are capped by a bound that
// grows by a factor alpha each iteration; flows that cannot reach the bound
// are frozen at their achieved rate. FFC constraints from in.Prot apply in
// every iteration, yielding an allocation that is both fair and
// fault-protected. alpha must exceed 1; u0 > 0 seeds the first bound
// (a value ≤ the smallest interesting rate; it is lowered automatically if
// it exceeds the smallest demand). The iterations differ only in rate caps,
// floors, and fixings, so they run on one Session: each re-solves from the
// previous iteration's basis (and rebinds the built model when the shape
// allows).
func (s *Solver) SolveMaxMin(in Input, alpha, u0 float64) (*MaxMinResult, error) {
	return solveMaxMin(in, alpha, u0, s.NewSession().Solve)
}

func solveMaxMin(in Input, alpha, u0 float64, solve func(Input) (*State, *Stats, error)) (*MaxMinResult, error) {
	if alpha <= 1 {
		alpha = 2
	}
	maxDemand, minDemand := 0.0, math.Inf(1)
	for _, d := range in.Demands {
		if d > maxDemand {
			maxDemand = d
		}
		if d > 0 && d < minDemand {
			minDemand = d
		}
	}
	if maxDemand == 0 {
		return &MaxMinResult{State: NewState()}, nil
	}
	if u0 <= 0 {
		// Start well below the smallest demand so shares grow gradually —
		// that gradual growth is what yields the α-approximation.
		u0 = math.Min(minDemand, maxDemand/64)
	}
	if u0 > maxDemand {
		u0 = maxDemand
	}

	frozen := map[tunnel.Flow]float64{}
	res := &MaxMinResult{}
	bound, prevBound := u0, 0.0
	var last *State
	for {
		iter := in // copy
		iter.RateCaps = map[tunnel.Flow]float64{}
		iter.FixedRates = map[tunnel.Flow]float64{}
		iter.RateFloors = map[tunnel.Flow]float64{}
		for f, v := range frozen {
			iter.FixedRates[f] = v
		}
		for f, d := range in.Demands {
			if _, ok := frozen[f]; !ok {
				iter.RateCaps[f] = bound
				// Unfrozen flows reached the previous bound; that level is
				// guaranteed from now on (SWAN's α-approximation argument).
				iter.RateFloors[f] = math.Min(d, prevBound)
			}
		}
		st, stats, err := solve(iter)
		if err != nil {
			return nil, err
		}
		res.Iterations++
		res.TotalStats.Vars = stats.Vars
		res.TotalStats.Constraints = stats.Constraints
		res.TotalStats.Iters += stats.Iters
		res.TotalStats.SolveTime += stats.SolveTime
		last = st

		// Freeze flows that could not reach this iteration's bound.
		for f, d := range in.Demands {
			if _, ok := frozen[f]; ok {
				continue
			}
			cap := math.Min(d, bound)
			if overThreshold(cap, st.Rate[f]) {
				frozen[f] = st.Rate[f]
			} else if d <= bound {
				frozen[f] = st.Rate[f] // demand fully satisfied
			}
		}
		if bound >= maxDemand || len(frozen) == len(in.Demands) {
			break
		}
		prevBound = bound
		bound *= alpha
	}
	res.State = last
	res.TotalStats.Objective = last.TotalRate()
	return res, nil
}
